double A[192];

void init() {
  for (long i = 0; i <= 191; i++) {
    A[i] = 0.0;
  }
}

void kernel_tri() {
  #pragma omp parallel
  {
    #pragma omp for schedule(static)
    for (long i = 0; i <= 191; i++) {
      A[i] = 0.25;
      for (long j = i; j <= 191; j++) {
        A[i] = A[i] + (double)((i + 2 * j + 1) % 9) * 0.5 + 0.125;
      }
    }
  }
}
