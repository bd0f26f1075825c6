double A[44][44];
double B[44][44];
double C[44][44];

void init() {
  #pragma omp parallel
  {
    long mul2;
    #pragma omp for schedule(static) nowait
    for (long i_addr_phi = 0; i_addr_phi <= 43; i_addr_phi++) {
      mul2 = 3 * i_addr_phi;
      for (long j_addr_phi = 0; j_addr_phi <= 43; j_addr_phi++) {
        A[i_addr_phi][j_addr_phi] = (double)((i_addr_phi * j_addr_phi + 1) % 9);
        B[i_addr_phi][j_addr_phi] = (double)((i_addr_phi + 2 * j_addr_phi) % 7);
        C[i_addr_phi][j_addr_phi] = (double)((mul2 + j_addr_phi) % 5);
      }
    }
  }
}

void kernel_syr2k() {
  #pragma omp parallel
  {
    #pragma omp for schedule(static) nowait
    for (long i_addr_phi = 0; i_addr_phi <= 43; i_addr_phi++) {
      for (long j_addr_phi = 0; j_addr_phi <= 43; j_addr_phi++) {
        C[i_addr_phi][j_addr_phi] = C[i_addr_phi][j_addr_phi] * 0.4;
        for (long k_addr_phi = 0; k_addr_phi <= 43; k_addr_phi++) {
          C[i_addr_phi][j_addr_phi] = C[i_addr_phi][j_addr_phi] + A[i_addr_phi][k_addr_phi] * B[j_addr_phi][k_addr_phi] + B[i_addr_phi][k_addr_phi] * A[j_addr_phi][k_addr_phi];
        }
      }
    }
  }
}
