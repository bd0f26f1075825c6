double A[200][200];
double u1[200];
double v1[200];
double u2[200];
double v2[200];
double w[200];
double x[200];
double y[200];
double z[200];

void init() {
  #pragma omp parallel
  {
    #pragma omp for schedule(static) nowait
    for (long i_addr_phi = 0; i_addr_phi <= 199; i_addr_phi++) {
      u1[i_addr_phi] = (double)(i_addr_phi % 7);
      u2[i_addr_phi] = (double)((i_addr_phi + 1) % 5);
      v1[i_addr_phi] = (double)((i_addr_phi + 2) % 9);
      v2[i_addr_phi] = (double)((i_addr_phi + 3) % 3);
      y[i_addr_phi] = (double)(i_addr_phi % 11) * 0.5;
      z[i_addr_phi] = (double)(i_addr_phi % 13) * 0.25;
      x[i_addr_phi] = 0.0;
      w[i_addr_phi] = 0.0;
      for (long j_addr_phi = 0; j_addr_phi <= 199; j_addr_phi++) {
        A[i_addr_phi][j_addr_phi] = (double)((i_addr_phi * j_addr_phi + 1) % 7);
      }
    }
  }
}

void kernel_gemver() {
  #pragma omp parallel
  {
    #pragma omp for schedule(static) nowait
    for (long i_addr_phi = 0; i_addr_phi <= 199; i_addr_phi++) {
      for (long j_addr_phi = 0; j_addr_phi <= 199; j_addr_phi++) {
        A[i_addr_phi][j_addr_phi] = A[i_addr_phi][j_addr_phi] + u1[i_addr_phi] * v1[j_addr_phi] + u2[i_addr_phi] * v2[j_addr_phi];
      }
    }
  }
  #pragma omp parallel
  {
    #pragma omp for schedule(static) nowait
    for (long i_addr1_phi = 0; i_addr1_phi <= 199; i_addr1_phi++) {
      for (long j_addr1_phi = 0; j_addr1_phi <= 199; j_addr1_phi++) {
        x[i_addr1_phi] = x[i_addr1_phi] + 0.75 * A[j_addr1_phi][i_addr1_phi] * y[j_addr1_phi];
      }
    }
  }
  #pragma omp parallel
  {
    #pragma omp for schedule(static) nowait
    for (long i_addr2_phi = 0; i_addr2_phi <= 199; i_addr2_phi++) {
      x[i_addr2_phi] = x[i_addr2_phi] + z[i_addr2_phi];
    }
  }
  #pragma omp parallel
  {
    #pragma omp for schedule(static) nowait
    for (long i_addr3_phi = 0; i_addr3_phi <= 199; i_addr3_phi++) {
      for (long j_addr2_phi = 0; j_addr2_phi <= 199; j_addr2_phi++) {
        w[i_addr3_phi] = w[i_addr3_phi] + 1.25 * A[i_addr3_phi][j_addr2_phi] * x[j_addr2_phi];
      }
    }
  }
}
