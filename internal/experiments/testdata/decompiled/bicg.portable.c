double A[220][220];
double s[220];
double q[220];
double p[220];
double r[220];

void init() {
  #pragma omp parallel
  {
    long mul2;
    #pragma omp for schedule(static) nowait
    for (long i_addr_phi = 0; i_addr_phi <= 219; i_addr_phi++) {
      p[i_addr_phi] = (double)(i_addr_phi % 7) * 0.5;
      r[i_addr_phi] = (double)(i_addr_phi % 5) * 0.25;
      s[i_addr_phi] = 0.0;
      q[i_addr_phi] = 0.0;
      mul2 = i_addr_phi * 2;
      for (long j_addr_phi = 0; j_addr_phi <= 219; j_addr_phi++) {
        A[i_addr_phi][j_addr_phi] = (double)((mul2 + j_addr_phi) % 9);
      }
    }
  }
}

void kernel_bicg() {
  for (long i_addr_phi = 0; i_addr_phi <= 219; i_addr_phi++) {
    q[i_addr_phi] = 0.0;
    for (long j_addr_phi = 0; j_addr_phi <= 219; j_addr_phi++) {
      s[j_addr_phi] = s[j_addr_phi] + r[i_addr_phi] * A[i_addr_phi][j_addr_phi];
      q[i_addr_phi] = q[i_addr_phi] + A[i_addr_phi][j_addr_phi] * p[j_addr_phi];
    }
  }
}
