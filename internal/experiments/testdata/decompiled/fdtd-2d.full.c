double ex[64][64];
double ey[64][64];
double hz[64][64];
double fict[8];

void init() {
  #pragma omp parallel
  {
    #pragma omp for schedule(static) nowait
    for (long t = 0; t <= 7; t++) {
      fict[t] = (double)t;
    }
  }
  #pragma omp parallel
  {
    #pragma omp for schedule(static) nowait
    for (long i = 0; i <= 63; i++) {
      for (long j = 0; j <= 63; j++) {
        ex[i][j] = (double)(i * (j + 1) % 7) * 0.3;
        ey[i][j] = (double)(i * (j + 2) % 5) * 0.6;
        hz[i][j] = (double)(i * (j + 3) % 9) * 0.9;
      }
    }
  }
}

void kernel_fdtd_2d() {
  for (long t = 0; t <= 7; t++) {
    #pragma omp parallel
    {
      #pragma omp for schedule(static) nowait
      for (long j = 0; j <= 63; j++) {
        ey[0][j] = fict[t];
      }
    }
    #pragma omp parallel
    {
      long sub;
      #pragma omp for schedule(static) nowait
      for (long i = 1; i <= 63; i++) {
        sub = i - 1;
        for (long j = 0; j <= 63; j++) {
          ey[i][j] = ey[i][j] - 0.5 * (hz[i][j] - hz[sub][j]);
        }
      }
    }
    #pragma omp parallel
    {
      #pragma omp for schedule(static) nowait
      for (long i = 0; i <= 63; i++) {
        for (long j = 1; j <= 63; j++) {
          ex[i][j] = ex[i][j] - 0.5 * (hz[i][j] - hz[i][j - 1]);
        }
      }
    }
    #pragma omp parallel
    {
      long add1;
      #pragma omp for schedule(static) nowait
      for (long i = 0; i <= 62; i++) {
        add1 = i + 1;
        for (long j = 0; j <= 62; j++) {
          hz[i][j] = hz[i][j] - 0.7 * (ex[i][j + 1] - ex[i][j] + ey[add1][j] - ey[i][j]);
        }
      }
    }
  }
}
