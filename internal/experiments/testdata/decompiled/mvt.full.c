double A[220][220];
double x1[220];
double x2[220];
double y1[220];
double y2[220];

void init() {
  #pragma omp parallel
  {
    #pragma omp for schedule(static) nowait
    for (long i = 0; i <= 219; i++) {
      x1[i] = (double)(i % 9) * 0.5;
      x2[i] = (double)(i % 7) * 0.25;
      y1[i] = (double)(i % 5) * 1.5;
      y2[i] = (double)(i % 3) * 2.0;
      for (long j = 0; j <= 219; j++) {
        A[i][j] = (double)((i + j) % 11);
      }
    }
  }
}

void kernel_mvt() {
  #pragma omp parallel
  {
    #pragma omp for schedule(static) nowait
    for (long i = 0; i <= 219; i++) {
      for (long j = 0; j <= 219; j++) {
        x1[i] = x1[i] + A[i][j] * y1[j];
      }
    }
  }
  #pragma omp parallel
  {
    #pragma omp for schedule(static) nowait
    for (long i = 0; i <= 219; i++) {
      for (long j = 0; j <= 219; j++) {
        x2[i] = x2[i] + A[j][i] * y2[j];
      }
    }
  }
}
