double A[192];

void init() {
  for (long i = 0; i <= 191; i++) {
    A[i] = 0.0;
  }
}

void kernel_tri() {
  #pragma omp parallel
  {
    #pragma omp for schedule(auto)
    for (long j = 0; j <= 191; j++) {
      A[j] = 0.25;
      for (long j_addr_phi = j; j_addr_phi <= 191; j_addr_phi++) {
        A[j] = A[j] + (double)((j + 2 * j_addr_phi + 1) % 9) * 0.5 + 0.125;
      }
    }
  }
}
