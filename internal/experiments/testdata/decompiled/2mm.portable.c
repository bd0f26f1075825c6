double A[40][40];
double B[40][40];
double C[40][40];
double D[40][40];
double tmp[40][40];

void init() {
  #pragma omp parallel
  {
    long mul1;
    #pragma omp for schedule(static) nowait
    for (long i_addr_phi = 0; i_addr_phi <= 39; i_addr_phi++) {
      mul1 = i_addr_phi * 2;
      for (long j_addr_phi = 0; j_addr_phi <= 39; j_addr_phi++) {
        A[i_addr_phi][j_addr_phi] = (double)(i_addr_phi * j_addr_phi % 9);
        B[i_addr_phi][j_addr_phi] = (double)((i_addr_phi + j_addr_phi) % 7);
        C[i_addr_phi][j_addr_phi] = (double)((mul1 + j_addr_phi) % 5);
        D[i_addr_phi][j_addr_phi] = (double)((i_addr_phi - 2 * j_addr_phi) % 3);
      }
    }
  }
}

void kernel_2mm() {
  #pragma omp parallel
  {
    #pragma omp for schedule(static) nowait
    for (long i_addr_phi = 0; i_addr_phi <= 39; i_addr_phi++) {
      for (long j_addr_phi = 0; j_addr_phi <= 39; j_addr_phi++) {
        tmp[i_addr_phi][j_addr_phi] = 0.0;
        for (long k_addr_phi = 0; k_addr_phi <= 39; k_addr_phi++) {
          tmp[i_addr_phi][j_addr_phi] = tmp[i_addr_phi][j_addr_phi] + 1.2 * A[i_addr_phi][k_addr_phi] * B[k_addr_phi][j_addr_phi];
        }
      }
    }
  }
  #pragma omp parallel
  {
    #pragma omp for schedule(static) nowait
    for (long i_addr1_phi = 0; i_addr1_phi <= 39; i_addr1_phi++) {
      for (long j_addr1_phi = 0; j_addr1_phi <= 39; j_addr1_phi++) {
        D[i_addr1_phi][j_addr1_phi] = D[i_addr1_phi][j_addr1_phi] * 0.8;
        for (long k_addr1_phi = 0; k_addr1_phi <= 39; k_addr1_phi++) {
          D[i_addr1_phi][j_addr1_phi] = D[i_addr1_phi][j_addr1_phi] + tmp[i_addr1_phi][k_addr1_phi] * C[k_addr1_phi][j_addr1_phi];
        }
      }
    }
  }
}
