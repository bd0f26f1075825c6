double A[220][220];
double x[220];
double y[220];
double tmp[220];

void init() {
  #pragma omp parallel
  {
    #pragma omp for schedule(static) nowait
    for (long i_addr_phi = 0; i_addr_phi <= 219; i_addr_phi++) {
      x[i_addr_phi] = 1.0 + (double)(i_addr_phi % 11);
      y[i_addr_phi] = 0.0;
      tmp[i_addr_phi] = 0.0;
      for (long j_addr_phi = 0; j_addr_phi <= 219; j_addr_phi++) {
        A[i_addr_phi][j_addr_phi] = (double)((i_addr_phi + j_addr_phi * 3) % 13);
      }
    }
  }
}

void kernel_atax() {
  #pragma omp parallel
  {
    #pragma omp for schedule(static) nowait
    for (long i_addr_phi = 0; i_addr_phi <= 219; i_addr_phi++) {
      tmp[i_addr_phi] = 0.0;
      for (long j_addr_phi = 0; j_addr_phi <= 219; j_addr_phi++) {
        tmp[i_addr_phi] = tmp[i_addr_phi] + A[i_addr_phi][j_addr_phi] * x[j_addr_phi];
      }
    }
  }
  for (long i_addr1_phi = 0; i_addr1_phi <= 219; i_addr1_phi++) {
    #pragma omp parallel
    {
      #pragma omp for schedule(static) nowait
      for (long j_addr1_phi = 0; j_addr1_phi <= 219; j_addr1_phi++) {
        y[j_addr1_phi] = y[j_addr1_phi] + A[i_addr1_phi][j_addr1_phi] * tmp[i_addr1_phi];
      }
    }
  }
}
