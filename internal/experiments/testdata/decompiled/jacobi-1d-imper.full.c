double A[4000];
double B[4000];

void init() {
  #pragma omp parallel
  {
    #pragma omp for schedule(static) nowait
    for (long i = 0; i <= 3999; i++) {
      A[i] = (double)(i * 7 % 31) * 0.5;
      B[i] = 0.0;
    }
  }
}

void kernel_jacobi_1d() {
  for (long t = 0; t <= 15; t++) {
    #pragma omp parallel
    {
      #pragma omp for schedule(static) nowait
      for (long i = 1; i <= 3998; i++) {
        B[i] = (A[i - 1] + A[i] + A[i + 1]) / 3.0;
      }
    }
    #pragma omp parallel
    {
      #pragma omp for schedule(static) nowait
      for (long j = 1; j <= 3998; j++) {
        A[j] = B[j];
      }
    }
  }
}
