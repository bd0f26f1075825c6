double A[48][48];
double B[48][48];
double C[48][48];

void init() {
  #pragma omp parallel
  {
    #pragma omp for schedule(static) nowait
    for (long i = 0; i <= 47; i++) {
      for (long j = 0; j <= 47; j++) {
        A[i][j] = (double)((i * j + 1) % 7);
        B[i][j] = (double)((i + j * 2) % 5);
        C[i][j] = (double)((i - j) % 3);
      }
    }
  }
}

void kernel_gemm() {
  #pragma omp parallel
  {
    #pragma omp for schedule(static) nowait
    for (long i = 0; i <= 47; i++) {
      for (long j = 0; j <= 47; j++) {
        C[i][j] = C[i][j] * 0.5;
        for (long k = 0; k <= 47; k++) {
          C[i][j] = C[i][j] + 1.5 * A[i][k] * B[k][j];
        }
      }
    }
  }
}
