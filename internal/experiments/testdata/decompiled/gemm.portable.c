double A[48][48];
double B[48][48];
double C[48][48];

void init() {
  #pragma omp parallel
  {
    #pragma omp for schedule(static) nowait
    for (long i_addr_phi = 0; i_addr_phi <= 47; i_addr_phi++) {
      for (long j_addr_phi = 0; j_addr_phi <= 47; j_addr_phi++) {
        A[i_addr_phi][j_addr_phi] = (double)((i_addr_phi * j_addr_phi + 1) % 7);
        B[i_addr_phi][j_addr_phi] = (double)((i_addr_phi + j_addr_phi * 2) % 5);
        C[i_addr_phi][j_addr_phi] = (double)((i_addr_phi - j_addr_phi) % 3);
      }
    }
  }
}

void kernel_gemm() {
  #pragma omp parallel
  {
    #pragma omp for schedule(static) nowait
    for (long i_addr_phi = 0; i_addr_phi <= 47; i_addr_phi++) {
      for (long j_addr_phi = 0; j_addr_phi <= 47; j_addr_phi++) {
        C[i_addr_phi][j_addr_phi] = C[i_addr_phi][j_addr_phi] * 0.5;
        for (long k_addr_phi = 0; k_addr_phi <= 47; k_addr_phi++) {
          C[i_addr_phi][j_addr_phi] = C[i_addr_phi][j_addr_phi] + 1.5 * A[i_addr_phi][k_addr_phi] * B[k_addr_phi][j_addr_phi];
        }
      }
    }
  }
}
