double A[90][90];
double B[90][90];

void init() {
  #pragma omp parallel
  {
    long mul;
    #pragma omp for schedule(static) nowait
    for (long i = 0; i <= 89; i++) {
      mul = i * 31;
      for (long j = 0; j <= 89; j++) {
        A[i][j] = (double)((mul + j * 17) % 23);
        B[i][j] = 0.0;
      }
    }
  }
}

void kernel_jacobi_2d() {
  for (long t = 0; t <= 7; t++) {
    #pragma omp parallel
    {
      long sub3;
      long add3;
      #pragma omp for schedule(static) nowait
      for (long i = 1; i <= 88; i++) {
        add3 = i + 1;
        sub3 = i - 1;
        for (long j = 1; j <= 88; j++) {
          B[i][j] = 0.2 * (A[i][j] + A[i][j - 1] + A[i][j + 1] + A[add3][j] + A[sub3][j]);
        }
      }
    }
    #pragma omp parallel
    {
      #pragma omp for schedule(static) nowait
      for (long i = 1; i <= 88; i++) {
        for (long j = 1; j <= 88; j++) {
          A[i][j] = B[i][j];
        }
      }
    }
  }
}
