double A[4000];
double B[4000];

void init() {
  #pragma omp parallel
  {
    #pragma omp for schedule(static) nowait
    for (long i_addr_phi = 0; i_addr_phi <= 3999; i_addr_phi++) {
      A[i_addr_phi] = (double)(i_addr_phi * 7 % 31) * 0.5;
      B[i_addr_phi] = 0.0;
    }
  }
}

void kernel_jacobi_1d() {
  for (long t_addr_phi = 0; t_addr_phi <= 15; t_addr_phi++) {
    #pragma omp parallel
    {
      #pragma omp for schedule(static) nowait
      for (long i_addr_phi = 1; i_addr_phi <= 3998; i_addr_phi++) {
        B[i_addr_phi] = (A[i_addr_phi - 1] + A[i_addr_phi] + A[i_addr_phi + 1]) / 3.0;
      }
    }
    #pragma omp parallel
    {
      #pragma omp for schedule(static) nowait
      for (long j_addr_phi = 1; j_addr_phi <= 3998; j_addr_phi++) {
        A[j_addr_phi] = B[j_addr_phi];
      }
    }
  }
}
