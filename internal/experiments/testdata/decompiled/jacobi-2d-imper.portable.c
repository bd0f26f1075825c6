double A[90][90];
double B[90][90];

void init() {
  #pragma omp parallel
  {
    long mul;
    #pragma omp for schedule(static) nowait
    for (long i_addr_phi = 0; i_addr_phi <= 89; i_addr_phi++) {
      mul = i_addr_phi * 31;
      for (long j_addr_phi = 0; j_addr_phi <= 89; j_addr_phi++) {
        A[i_addr_phi][j_addr_phi] = (double)((mul + j_addr_phi * 17) % 23);
        B[i_addr_phi][j_addr_phi] = 0.0;
      }
    }
  }
}

void kernel_jacobi_2d() {
  for (long t_addr_phi = 0; t_addr_phi <= 7; t_addr_phi++) {
    #pragma omp parallel
    {
      long sub3;
      long add3;
      #pragma omp for schedule(static) nowait
      for (long i_addr_phi = 1; i_addr_phi <= 88; i_addr_phi++) {
        add3 = i_addr_phi + 1;
        sub3 = i_addr_phi - 1;
        for (long j_addr_phi = 1; j_addr_phi <= 88; j_addr_phi++) {
          B[i_addr_phi][j_addr_phi] = 0.2 * (A[i_addr_phi][j_addr_phi] + A[i_addr_phi][j_addr_phi - 1] + A[i_addr_phi][j_addr_phi + 1] + A[add3][j_addr_phi] + A[sub3][j_addr_phi]);
        }
      }
    }
    #pragma omp parallel
    {
      #pragma omp for schedule(static) nowait
      for (long i_addr1_phi = 1; i_addr1_phi <= 88; i_addr1_phi++) {
        for (long j_addr1_phi = 1; j_addr1_phi <= 88; j_addr1_phi++) {
          A[i_addr1_phi][j_addr1_phi] = B[i_addr1_phi][j_addr1_phi];
        }
      }
    }
  }
}
