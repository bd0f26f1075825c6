double A[48][48];
double C[48][48];

void init() {
  #pragma omp parallel
  {
    #pragma omp for schedule(static) nowait
    for (long i = 0; i <= 47; i++) {
      for (long j = 0; j <= 47; j++) {
        A[i][j] = (double)((i * j + 2) % 13);
        C[i][j] = (double)((i + j) % 7);
      }
    }
  }
}

void kernel_syrk() {
  #pragma omp parallel
  {
    #pragma omp for schedule(static) nowait
    for (long i = 0; i <= 47; i++) {
      for (long j = 0; j <= 47; j++) {
        C[i][j] = C[i][j] * 0.3;
        for (long k = 0; k <= 47; k++) {
          C[i][j] = C[i][j] + 1.1 * A[i][k] * A[j][k];
        }
      }
    }
  }
}
