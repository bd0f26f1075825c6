double ex[64][64];
double ey[64][64];
double hz[64][64];
double fict[8];

void init() {
  #pragma omp parallel
  {
    #pragma omp for schedule(static) nowait
    for (long t_addr_phi = 0; t_addr_phi <= 7; t_addr_phi++) {
      fict[t_addr_phi] = (double)t_addr_phi;
    }
  }
  #pragma omp parallel
  {
    #pragma omp for schedule(static) nowait
    for (long i_addr_phi = 0; i_addr_phi <= 63; i_addr_phi++) {
      for (long j_addr_phi = 0; j_addr_phi <= 63; j_addr_phi++) {
        ex[i_addr_phi][j_addr_phi] = (double)(i_addr_phi * (j_addr_phi + 1) % 7) * 0.3;
        ey[i_addr_phi][j_addr_phi] = (double)(i_addr_phi * (j_addr_phi + 2) % 5) * 0.6;
        hz[i_addr_phi][j_addr_phi] = (double)(i_addr_phi * (j_addr_phi + 3) % 9) * 0.9;
      }
    }
  }
}

void kernel_fdtd_2d() {
  for (long t_addr_phi = 0; t_addr_phi <= 7; t_addr_phi++) {
    #pragma omp parallel
    {
      #pragma omp for schedule(static) nowait
      for (long j_addr_phi = 0; j_addr_phi <= 63; j_addr_phi++) {
        ey[0][j_addr_phi] = fict[t_addr_phi];
      }
    }
    #pragma omp parallel
    {
      long sub;
      #pragma omp for schedule(static) nowait
      for (long i_addr_phi = 1; i_addr_phi <= 63; i_addr_phi++) {
        sub = i_addr_phi - 1;
        for (long j_addr1_phi = 0; j_addr1_phi <= 63; j_addr1_phi++) {
          ey[i_addr_phi][j_addr1_phi] = ey[i_addr_phi][j_addr1_phi] - 0.5 * (hz[i_addr_phi][j_addr1_phi] - hz[sub][j_addr1_phi]);
        }
      }
    }
    #pragma omp parallel
    {
      #pragma omp for schedule(static) nowait
      for (long i_addr1_phi = 0; i_addr1_phi <= 63; i_addr1_phi++) {
        for (long j_addr2_phi = 1; j_addr2_phi <= 63; j_addr2_phi++) {
          ex[i_addr1_phi][j_addr2_phi] = ex[i_addr1_phi][j_addr2_phi] - 0.5 * (hz[i_addr1_phi][j_addr2_phi] - hz[i_addr1_phi][j_addr2_phi - 1]);
        }
      }
    }
    #pragma omp parallel
    {
      long add1;
      #pragma omp for schedule(static) nowait
      for (long i_addr2_phi = 0; i_addr2_phi <= 62; i_addr2_phi++) {
        add1 = i_addr2_phi + 1;
        for (long j_addr3_phi = 0; j_addr3_phi <= 62; j_addr3_phi++) {
          hz[i_addr2_phi][j_addr3_phi] = hz[i_addr2_phi][j_addr3_phi] - 0.7 * (ex[i_addr2_phi][j_addr3_phi + 1] - ex[i_addr2_phi][j_addr3_phi] + ey[add1][j_addr3_phi] - ey[i_addr2_phi][j_addr3_phi]);
        }
      }
    }
  }
}
