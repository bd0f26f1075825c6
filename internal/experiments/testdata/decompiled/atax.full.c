double A[220][220];
double x[220];
double y[220];
double tmp[220];

void init() {
  #pragma omp parallel
  {
    #pragma omp for schedule(static) nowait
    for (long i = 0; i <= 219; i++) {
      x[i] = 1.0 + (double)(i % 11);
      y[i] = 0.0;
      tmp[i] = 0.0;
      for (long j = 0; j <= 219; j++) {
        A[i][j] = (double)((i + j * 3) % 13);
      }
    }
  }
}

void kernel_atax() {
  #pragma omp parallel
  {
    #pragma omp for schedule(static) nowait
    for (long i = 0; i <= 219; i++) {
      tmp[i] = 0.0;
      for (long j = 0; j <= 219; j++) {
        tmp[i] = tmp[i] + A[i][j] * x[j];
      }
    }
  }
  for (long i = 0; i <= 219; i++) {
    #pragma omp parallel
    {
      #pragma omp for schedule(static) nowait
      for (long j = 0; j <= 219; j++) {
        y[j] = y[j] + A[i][j] * tmp[i];
      }
    }
  }
}
