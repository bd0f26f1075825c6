double A[40][40];
double B[40][40];
double C[40][40];
double D[40][40];
double tmp[40][40];

void init() {
  #pragma omp parallel
  {
    long mul1;
    #pragma omp for schedule(static) nowait
    for (long i = 0; i <= 39; i++) {
      mul1 = i * 2;
      for (long j = 0; j <= 39; j++) {
        A[i][j] = (double)(i * j % 9);
        B[i][j] = (double)((i + j) % 7);
        C[i][j] = (double)((mul1 + j) % 5);
        D[i][j] = (double)((i - 2 * j) % 3);
      }
    }
  }
}

void kernel_2mm() {
  #pragma omp parallel
  {
    #pragma omp for schedule(static) nowait
    for (long i = 0; i <= 39; i++) {
      for (long j = 0; j <= 39; j++) {
        tmp[i][j] = 0.0;
        for (long k = 0; k <= 39; k++) {
          tmp[i][j] = tmp[i][j] + 1.2 * A[i][k] * B[k][j];
        }
      }
    }
  }
  #pragma omp parallel
  {
    #pragma omp for schedule(static) nowait
    for (long i = 0; i <= 39; i++) {
      for (long j = 0; j <= 39; j++) {
        D[i][j] = D[i][j] * 0.8;
        for (long k = 0; k <= 39; k++) {
          D[i][j] = D[i][j] + tmp[i][k] * C[k][j];
        }
      }
    }
  }
}
