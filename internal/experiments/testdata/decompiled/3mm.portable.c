double A[36][36];
double B[36][36];
double C[36][36];
double D[36][36];
double E[36][36];
double F[36][36];
double G[36][36];

void init() {
  #pragma omp parallel
  {
    long mul1;
    #pragma omp for schedule(static) nowait
    for (long i_addr_phi = 0; i_addr_phi <= 35; i_addr_phi++) {
      mul1 = 2 * i_addr_phi;
      for (long j_addr_phi = 0; j_addr_phi <= 35; j_addr_phi++) {
        A[i_addr_phi][j_addr_phi] = (double)((i_addr_phi * j_addr_phi + 3) % 11);
        B[i_addr_phi][j_addr_phi] = (double)((i_addr_phi + j_addr_phi) % 7);
        C[i_addr_phi][j_addr_phi] = (double)((mul1 + j_addr_phi) % 5);
        D[i_addr_phi][j_addr_phi] = (double)((i_addr_phi + 3 * j_addr_phi) % 9);
      }
    }
  }
}

void kernel_3mm() {
  #pragma omp parallel
  {
    #pragma omp for schedule(static) nowait
    for (long i_addr_phi = 0; i_addr_phi <= 35; i_addr_phi++) {
      for (long j_addr_phi = 0; j_addr_phi <= 35; j_addr_phi++) {
        E[i_addr_phi][j_addr_phi] = 0.0;
        for (long k_addr_phi = 0; k_addr_phi <= 35; k_addr_phi++) {
          E[i_addr_phi][j_addr_phi] = E[i_addr_phi][j_addr_phi] + A[i_addr_phi][k_addr_phi] * B[k_addr_phi][j_addr_phi];
        }
      }
    }
  }
  #pragma omp parallel
  {
    #pragma omp for schedule(static) nowait
    for (long i_addr1_phi = 0; i_addr1_phi <= 35; i_addr1_phi++) {
      for (long j_addr1_phi = 0; j_addr1_phi <= 35; j_addr1_phi++) {
        F[i_addr1_phi][j_addr1_phi] = 0.0;
        for (long k_addr1_phi = 0; k_addr1_phi <= 35; k_addr1_phi++) {
          F[i_addr1_phi][j_addr1_phi] = F[i_addr1_phi][j_addr1_phi] + C[i_addr1_phi][k_addr1_phi] * D[k_addr1_phi][j_addr1_phi];
        }
      }
    }
  }
  #pragma omp parallel
  {
    #pragma omp for schedule(static) nowait
    for (long i_addr2_phi = 0; i_addr2_phi <= 35; i_addr2_phi++) {
      for (long j_addr2_phi = 0; j_addr2_phi <= 35; j_addr2_phi++) {
        G[i_addr2_phi][j_addr2_phi] = 0.0;
        for (long k_addr2_phi = 0; k_addr2_phi <= 35; k_addr2_phi++) {
          G[i_addr2_phi][j_addr2_phi] = G[i_addr2_phi][j_addr2_phi] + E[i_addr2_phi][k_addr2_phi] * F[k_addr2_phi][j_addr2_phi];
        }
      }
    }
  }
}
