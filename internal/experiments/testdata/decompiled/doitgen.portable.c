double A[20][20][24];
double C4[24][24];
double sum[20][20][24];

void init() {
  #pragma omp parallel
  {
    long mul;
    #pragma omp for schedule(static) nowait
    for (long r_addr_phi = 0; r_addr_phi <= 19; r_addr_phi++) {
      for (long q_addr_phi = 0; q_addr_phi <= 19; q_addr_phi++) {
        mul = r_addr_phi * q_addr_phi;
        for (long p_addr_phi = 0; p_addr_phi <= 23; p_addr_phi++) {
          A[r_addr_phi][q_addr_phi][p_addr_phi] = (double)((mul + p_addr_phi) % 7);
        }
      }
    }
  }
  #pragma omp parallel
  {
    #pragma omp for schedule(static) nowait
    for (long i_addr_phi = 0; i_addr_phi <= 23; i_addr_phi++) {
      for (long j_addr_phi = 0; j_addr_phi <= 23; j_addr_phi++) {
        C4[i_addr_phi][j_addr_phi] = (double)(i_addr_phi * j_addr_phi % 5);
      }
    }
  }
}

void kernel_doitgen() {
  #pragma omp parallel
  {
    #pragma omp for schedule(static) nowait
    for (long r_addr_phi = 0; r_addr_phi <= 19; r_addr_phi++) {
      for (long q_addr_phi = 0; q_addr_phi <= 19; q_addr_phi++) {
        for (long p_addr_phi = 0; p_addr_phi <= 23; p_addr_phi++) {
          sum[r_addr_phi][q_addr_phi][p_addr_phi] = 0.0;
          for (long s_addr_phi = 0; s_addr_phi <= 23; s_addr_phi++) {
            sum[r_addr_phi][q_addr_phi][p_addr_phi] = sum[r_addr_phi][q_addr_phi][p_addr_phi] + A[r_addr_phi][q_addr_phi][s_addr_phi] * C4[s_addr_phi][p_addr_phi];
          }
        }
        for (long p_addr1_phi = 0; p_addr1_phi <= 23; p_addr1_phi++) {
          A[r_addr_phi][q_addr_phi][p_addr1_phi] = sum[r_addr_phi][q_addr_phi][p_addr1_phi];
        }
      }
    }
  }
}
