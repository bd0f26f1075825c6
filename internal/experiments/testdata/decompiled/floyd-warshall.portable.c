double path[56][56];

void init() {
  #pragma omp parallel
  {
    #pragma omp for schedule(static) nowait
    for (long i_addr_phi = 0; i_addr_phi <= 55; i_addr_phi++) {
      for (long j_addr_phi = 0; j_addr_phi <= 55; j_addr_phi++) {
        path[i_addr_phi][j_addr_phi] = (double)(i_addr_phi * j_addr_phi % 7) + 1.0;
        if (i_addr_phi == j_addr_phi) {
          path[i_addr_phi][j_addr_phi] = 0.0;
        }
      }
    }
  }
}

void kernel_floyd_warshall() {
  for (long k_addr_phi = 0; k_addr_phi <= 55; k_addr_phi++) {
    for (long i_addr_phi = 0; i_addr_phi <= 55; i_addr_phi++) {
      for (long j_addr_phi = 0; j_addr_phi <= 55; j_addr_phi++) {
        path[i_addr_phi][j_addr_phi] = path[i_addr_phi][j_addr_phi] < path[i_addr_phi][k_addr_phi] + path[k_addr_phi][j_addr_phi] ? path[i_addr_phi][j_addr_phi] : path[i_addr_phi][k_addr_phi] + path[k_addr_phi][j_addr_phi];
      }
    }
  }
}
