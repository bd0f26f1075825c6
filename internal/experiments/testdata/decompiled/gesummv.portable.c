double A[220][220];
double B[220][220];
double x[220];
double y[220];
double tmp[220];

void init() {
  #pragma omp parallel
  {
    #pragma omp for schedule(static) nowait
    for (long i_addr_phi = 0; i_addr_phi <= 219; i_addr_phi++) {
      x[i_addr_phi] = (double)(i_addr_phi % 9) * 0.5;
      for (long j_addr_phi = 0; j_addr_phi <= 219; j_addr_phi++) {
        A[i_addr_phi][j_addr_phi] = (double)((i_addr_phi * j_addr_phi + 2) % 7);
        B[i_addr_phi][j_addr_phi] = (double)((i_addr_phi + j_addr_phi * 2) % 5);
      }
    }
  }
}

void kernel_gesummv() {
  #pragma omp parallel
  {
    #pragma omp for schedule(static) nowait
    for (long i_addr_phi = 0; i_addr_phi <= 219; i_addr_phi++) {
      tmp[i_addr_phi] = 0.0;
      y[i_addr_phi] = 0.0;
      for (long j_addr_phi = 0; j_addr_phi <= 219; j_addr_phi++) {
        tmp[i_addr_phi] = A[i_addr_phi][j_addr_phi] * x[j_addr_phi] + tmp[i_addr_phi];
        y[i_addr_phi] = B[i_addr_phi][j_addr_phi] * x[j_addr_phi] + y[i_addr_phi];
      }
      y[i_addr_phi] = 1.2 * tmp[i_addr_phi] + 1.5 * y[i_addr_phi];
    }
  }
}
