double A[220][220];
double x1[220];
double x2[220];
double y1[220];
double y2[220];

void init() {
  #pragma omp parallel
  {
    #pragma omp for schedule(static) nowait
    for (long i_addr_phi = 0; i_addr_phi <= 219; i_addr_phi++) {
      x1[i_addr_phi] = (double)(i_addr_phi % 9) * 0.5;
      x2[i_addr_phi] = (double)(i_addr_phi % 7) * 0.25;
      y1[i_addr_phi] = (double)(i_addr_phi % 5) * 1.5;
      y2[i_addr_phi] = (double)(i_addr_phi % 3) * 2.0;
      for (long j_addr_phi = 0; j_addr_phi <= 219; j_addr_phi++) {
        A[i_addr_phi][j_addr_phi] = (double)((i_addr_phi + j_addr_phi) % 11);
      }
    }
  }
}

void kernel_mvt() {
  #pragma omp parallel
  {
    #pragma omp for schedule(static) nowait
    for (long i_addr_phi = 0; i_addr_phi <= 219; i_addr_phi++) {
      for (long j_addr_phi = 0; j_addr_phi <= 219; j_addr_phi++) {
        x1[i_addr_phi] = x1[i_addr_phi] + A[i_addr_phi][j_addr_phi] * y1[j_addr_phi];
      }
    }
  }
  #pragma omp parallel
  {
    #pragma omp for schedule(static) nowait
    for (long i_addr1_phi = 0; i_addr1_phi <= 219; i_addr1_phi++) {
      for (long j_addr1_phi = 0; j_addr1_phi <= 219; j_addr1_phi++) {
        x2[i_addr1_phi] = x2[i_addr1_phi] + A[j_addr1_phi][i_addr1_phi] * y2[j_addr1_phi];
      }
    }
  }
}
