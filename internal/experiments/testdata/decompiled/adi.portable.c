double X[64][64];
double A[64][64];
double B[64][64];

void init() {
  #pragma omp parallel
  {
    #pragma omp for schedule(static) nowait
    for (long i_addr_phi = 0; i_addr_phi <= 63; i_addr_phi++) {
      for (long j_addr_phi = 0; j_addr_phi <= 63; j_addr_phi++) {
        X[i_addr_phi][j_addr_phi] = (double)((i_addr_phi * (j_addr_phi + 1) + 1) % 13) * 0.5;
        A[i_addr_phi][j_addr_phi] = (double)((i_addr_phi * (j_addr_phi + 2) + 2) % 11) * 0.25 + 1.0;
        B[i_addr_phi][j_addr_phi] = (double)((i_addr_phi * (j_addr_phi + 3) + 3) % 9) * 0.25 + 2.0;
      }
    }
  }
}

void kernel_adi() {
  long sub5;
  long sub6;
  long sub8;
  for (long t_addr_phi = 0; t_addr_phi <= 3; t_addr_phi++) {
    #pragma omp parallel
    {
      #pragma omp for schedule(static) nowait
      for (long i1_addr_phi = 0; i1_addr_phi <= 63; i1_addr_phi++) {
        for (long i2_addr_phi = 1; i2_addr_phi <= 63; i2_addr_phi++) {
          X[i1_addr_phi][i2_addr_phi] = X[i1_addr_phi][i2_addr_phi] - X[i1_addr_phi][i2_addr_phi - 1] * A[i1_addr_phi][i2_addr_phi] / B[i1_addr_phi][i2_addr_phi - 1];
          B[i1_addr_phi][i2_addr_phi] = B[i1_addr_phi][i2_addr_phi] - A[i1_addr_phi][i2_addr_phi] * A[i1_addr_phi][i2_addr_phi] / B[i1_addr_phi][i2_addr_phi - 1];
        }
      }
    }
    for (long i1_addr1_phi = 1; i1_addr1_phi <= 63; i1_addr1_phi++) {
      sub5 = i1_addr1_phi - 1;
      sub6 = i1_addr1_phi - 1;
      sub8 = i1_addr1_phi - 1;
      #pragma omp parallel
      {
        #pragma omp for schedule(static) nowait
        for (long i2_addr1_phi = 0; i2_addr1_phi <= 63; i2_addr1_phi++) {
          X[i1_addr1_phi][i2_addr1_phi] = X[i1_addr1_phi][i2_addr1_phi] - X[sub5][i2_addr1_phi] * A[i1_addr1_phi][i2_addr1_phi] / B[sub6][i2_addr1_phi];
          B[i1_addr1_phi][i2_addr1_phi] = B[i1_addr1_phi][i2_addr1_phi] - A[i1_addr1_phi][i2_addr1_phi] * A[i1_addr1_phi][i2_addr1_phi] / B[sub8][i2_addr1_phi];
        }
      }
    }
  }
}
