double A[220][220];
double B[220][220];
double x[220];
double y[220];
double tmp[220];

void init() {
  #pragma omp parallel
  {
    #pragma omp for schedule(static) nowait
    for (long i = 0; i <= 219; i++) {
      x[i] = (double)(i % 9) * 0.5;
      for (long j = 0; j <= 219; j++) {
        A[i][j] = (double)((i * j + 2) % 7);
        B[i][j] = (double)((i + j * 2) % 5);
      }
    }
  }
}

void kernel_gesummv() {
  #pragma omp parallel
  {
    #pragma omp for schedule(static) nowait
    for (long i = 0; i <= 219; i++) {
      tmp[i] = 0.0;
      y[i] = 0.0;
      for (long j = 0; j <= 219; j++) {
        tmp[i] = A[i][j] * x[j] + tmp[i];
        y[i] = B[i][j] * x[j] + y[i];
      }
      y[i] = 1.2 * tmp[i] + 1.5 * y[i];
    }
  }
}
