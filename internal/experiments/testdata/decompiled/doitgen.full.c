double A[20][20][24];
double C4[24][24];
double sum[20][20][24];

void init() {
  #pragma omp parallel
  {
    long mul;
    #pragma omp for schedule(static) nowait
    for (long r = 0; r <= 19; r++) {
      for (long q = 0; q <= 19; q++) {
        mul = r * q;
        for (long p = 0; p <= 23; p++) {
          A[r][q][p] = (double)((mul + p) % 7);
        }
      }
    }
  }
  #pragma omp parallel
  {
    #pragma omp for schedule(static) nowait
    for (long i = 0; i <= 23; i++) {
      for (long j = 0; j <= 23; j++) {
        C4[i][j] = (double)(i * j % 5);
      }
    }
  }
}

void kernel_doitgen() {
  #pragma omp parallel
  {
    #pragma omp for schedule(static) nowait
    for (long r = 0; r <= 19; r++) {
      for (long q = 0; q <= 19; q++) {
        for (long p = 0; p <= 23; p++) {
          sum[r][q][p] = 0.0;
          for (long s = 0; s <= 23; s++) {
            sum[r][q][p] = sum[r][q][p] + A[r][q][s] * C4[s][p];
          }
        }
        for (long p = 0; p <= 23; p++) {
          A[r][q][p] = sum[r][q][p];
        }
      }
    }
  }
}
