double X[64][64];
double A[64][64];
double B[64][64];

void init() {
  #pragma omp parallel
  {
    #pragma omp for schedule(static) nowait
    for (long i = 0; i <= 63; i++) {
      for (long j = 0; j <= 63; j++) {
        X[i][j] = (double)((i * (j + 1) + 1) % 13) * 0.5;
        A[i][j] = (double)((i * (j + 2) + 2) % 11) * 0.25 + 1.0;
        B[i][j] = (double)((i * (j + 3) + 3) % 9) * 0.25 + 2.0;
      }
    }
  }
}

void kernel_adi() {
  long sub5;
  long sub6;
  long sub8;
  for (long t = 0; t <= 3; t++) {
    #pragma omp parallel
    {
      #pragma omp for schedule(static) nowait
      for (long i1 = 0; i1 <= 63; i1++) {
        for (long i2 = 1; i2 <= 63; i2++) {
          X[i1][i2] = X[i1][i2] - X[i1][i2 - 1] * A[i1][i2] / B[i1][i2 - 1];
          B[i1][i2] = B[i1][i2] - A[i1][i2] * A[i1][i2] / B[i1][i2 - 1];
        }
      }
    }
    for (long i1 = 1; i1 <= 63; i1++) {
      sub5 = i1 - 1;
      sub6 = i1 - 1;
      sub8 = i1 - 1;
      #pragma omp parallel
      {
        #pragma omp for schedule(static) nowait
        for (long i2 = 0; i2 <= 63; i2++) {
          X[i1][i2] = X[i1][i2] - X[sub5][i2] * A[i1][i2] / B[sub6][i2];
          B[i1][i2] = B[i1][i2] - A[i1][i2] * A[i1][i2] / B[sub8][i2];
        }
      }
    }
  }
}
