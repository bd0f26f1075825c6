double A[200][200];
double u1[200];
double v1[200];
double u2[200];
double v2[200];
double w[200];
double x[200];
double y[200];
double z[200];

void init() {
  #pragma omp parallel
  {
    #pragma omp for schedule(static) nowait
    for (long i = 0; i <= 199; i++) {
      u1[i] = (double)(i % 7);
      u2[i] = (double)((i + 1) % 5);
      v1[i] = (double)((i + 2) % 9);
      v2[i] = (double)((i + 3) % 3);
      y[i] = (double)(i % 11) * 0.5;
      z[i] = (double)(i % 13) * 0.25;
      x[i] = 0.0;
      w[i] = 0.0;
      for (long j = 0; j <= 199; j++) {
        A[i][j] = (double)((i * j + 1) % 7);
      }
    }
  }
}

void kernel_gemver() {
  #pragma omp parallel
  {
    #pragma omp for schedule(static) nowait
    for (long i = 0; i <= 199; i++) {
      for (long j = 0; j <= 199; j++) {
        A[i][j] = A[i][j] + u1[i] * v1[j] + u2[i] * v2[j];
      }
    }
  }
  #pragma omp parallel
  {
    #pragma omp for schedule(static) nowait
    for (long i = 0; i <= 199; i++) {
      for (long j = 0; j <= 199; j++) {
        x[i] = x[i] + 0.75 * A[j][i] * y[j];
      }
    }
  }
  #pragma omp parallel
  {
    #pragma omp for schedule(static) nowait
    for (long i = 0; i <= 199; i++) {
      x[i] = x[i] + z[i];
    }
  }
  #pragma omp parallel
  {
    #pragma omp for schedule(static) nowait
    for (long i = 0; i <= 199; i++) {
      for (long j = 0; j <= 199; j++) {
        w[i] = w[i] + 1.25 * A[i][j] * x[j];
      }
    }
  }
}
