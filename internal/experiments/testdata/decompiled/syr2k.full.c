double A[44][44];
double B[44][44];
double C[44][44];

void init() {
  #pragma omp parallel
  {
    long mul2;
    #pragma omp for schedule(static) nowait
    for (long i = 0; i <= 43; i++) {
      mul2 = 3 * i;
      for (long j = 0; j <= 43; j++) {
        A[i][j] = (double)((i * j + 1) % 9);
        B[i][j] = (double)((i + 2 * j) % 7);
        C[i][j] = (double)((mul2 + j) % 5);
      }
    }
  }
}

void kernel_syr2k() {
  #pragma omp parallel
  {
    #pragma omp for schedule(static) nowait
    for (long i = 0; i <= 43; i++) {
      for (long j = 0; j <= 43; j++) {
        C[i][j] = C[i][j] * 0.4;
        for (long k = 0; k <= 43; k++) {
          C[i][j] = C[i][j] + A[i][k] * B[j][k] + B[i][k] * A[j][k];
        }
      }
    }
  }
}
