double A[44][44];
double B[44][44];
double C[44][44];

void init() {
  __kmpc_fork_call(0, &init_parallel_region);
}

void kernel_syr2k() {
  __kmpc_fork_call(0, &kernel_syr2k_parallel_region);
}

void init_parallel_region(long* gtid_ptr, long* btid_ptr) {
  long gtid;
  long lb_addr;
  long ub_addr;
  long stride_addr;
  long lastiter_addr;
  long ub;
  long mul2;
  gtid = *gtid_ptr;
  lb_addr = 0;
  ub_addr = 43;
  __kmpc_for_static_init_8(gtid, 34, &lastiter_addr, &lb_addr, &ub_addr, &stride_addr, 1, 1);
  ub = ub_addr;
  for (long i_addr_phi = lb; i_addr_phi <= ub; i_addr_phi++) {
    mul2 = 3 * i_addr_phi;
    for (long j_addr_phi = 0; j_addr_phi <= 43; j_addr_phi++) {
      A[i_addr_phi][j_addr_phi] = (double)((i_addr_phi * j_addr_phi + 1) % 9);
      B[i_addr_phi][j_addr_phi] = (double)((i_addr_phi + 2 * j_addr_phi) % 7);
      C[i_addr_phi][j_addr_phi] = (double)((mul2 + j_addr_phi) % 5);
    }
  }
  __kmpc_for_static_fini(gtid);
}

void kernel_syr2k_parallel_region(long* gtid_ptr, long* btid_ptr) {
  long gtid;
  long lb_addr;
  long ub_addr;
  long stride_addr;
  long lastiter_addr;
  long ub;
  gtid = *gtid_ptr;
  lb_addr = 0;
  ub_addr = 43;
  __kmpc_for_static_init_8(gtid, 34, &lastiter_addr, &lb_addr, &ub_addr, &stride_addr, 1, 1);
  ub = ub_addr;
  for (long i_addr_phi = lb; i_addr_phi <= ub; i_addr_phi++) {
    for (long j_addr_phi = 0; j_addr_phi <= 43; j_addr_phi++) {
      C[i_addr_phi][j_addr_phi] = C[i_addr_phi][j_addr_phi] * 0.4;
      for (long k_addr_phi = 0; k_addr_phi <= 43; k_addr_phi++) {
        C[i_addr_phi][j_addr_phi] = C[i_addr_phi][j_addr_phi] + A[i_addr_phi][k_addr_phi] * B[j_addr_phi][k_addr_phi] + B[i_addr_phi][k_addr_phi] * A[j_addr_phi][k_addr_phi];
      }
    }
  }
  __kmpc_for_static_fini(gtid);
}
