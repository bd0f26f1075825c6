double A[36][36];
double B[36][36];
double C[36][36];
double D[36][36];
double E[36][36];
double F[36][36];
double G[36][36];

void init() {
  #pragma omp parallel
  {
    long mul1;
    #pragma omp for schedule(static) nowait
    for (long i = 0; i <= 35; i++) {
      mul1 = 2 * i;
      for (long j = 0; j <= 35; j++) {
        A[i][j] = (double)((i * j + 3) % 11);
        B[i][j] = (double)((i + j) % 7);
        C[i][j] = (double)((mul1 + j) % 5);
        D[i][j] = (double)((i + 3 * j) % 9);
      }
    }
  }
}

void kernel_3mm() {
  #pragma omp parallel
  {
    #pragma omp for schedule(static) nowait
    for (long i = 0; i <= 35; i++) {
      for (long j = 0; j <= 35; j++) {
        E[i][j] = 0.0;
        for (long k = 0; k <= 35; k++) {
          E[i][j] = E[i][j] + A[i][k] * B[k][j];
        }
      }
    }
  }
  #pragma omp parallel
  {
    #pragma omp for schedule(static) nowait
    for (long i = 0; i <= 35; i++) {
      for (long j = 0; j <= 35; j++) {
        F[i][j] = 0.0;
        for (long k = 0; k <= 35; k++) {
          F[i][j] = F[i][j] + C[i][k] * D[k][j];
        }
      }
    }
  }
  #pragma omp parallel
  {
    #pragma omp for schedule(static) nowait
    for (long i = 0; i <= 35; i++) {
      for (long j = 0; j <= 35; j++) {
        G[i][j] = 0.0;
        for (long k = 0; k <= 35; k++) {
          G[i][j] = G[i][j] + E[i][k] * F[k][j];
        }
      }
    }
  }
}
