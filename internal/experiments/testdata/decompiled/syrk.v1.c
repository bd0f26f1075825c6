double A[48][48];
double C[48][48];

void init() {
  __kmpc_fork_call(0, &init_parallel_region);
}

void kernel_syrk() {
  __kmpc_fork_call(0, &kernel_syrk_parallel_region);
}

void init_parallel_region(long* gtid_ptr, long* btid_ptr) {
  long gtid;
  long lb_addr;
  long ub_addr;
  long stride_addr;
  long lastiter_addr;
  long ub;
  gtid = *gtid_ptr;
  lb_addr = 0;
  ub_addr = 47;
  __kmpc_for_static_init_8(gtid, 34, &lastiter_addr, &lb_addr, &ub_addr, &stride_addr, 1, 1);
  ub = ub_addr;
  for (long i_addr_phi = lb; i_addr_phi <= ub; i_addr_phi++) {
    for (long j_addr_phi = 0; j_addr_phi <= 47; j_addr_phi++) {
      A[i_addr_phi][j_addr_phi] = (double)((i_addr_phi * j_addr_phi + 2) % 13);
      C[i_addr_phi][j_addr_phi] = (double)((i_addr_phi + j_addr_phi) % 7);
    }
  }
  __kmpc_for_static_fini(gtid);
}

void kernel_syrk_parallel_region(long* gtid_ptr, long* btid_ptr) {
  long gtid;
  long lb_addr;
  long ub_addr;
  long stride_addr;
  long lastiter_addr;
  long ub;
  gtid = *gtid_ptr;
  lb_addr = 0;
  ub_addr = 47;
  __kmpc_for_static_init_8(gtid, 34, &lastiter_addr, &lb_addr, &ub_addr, &stride_addr, 1, 1);
  ub = ub_addr;
  for (long i_addr_phi = lb; i_addr_phi <= ub; i_addr_phi++) {
    for (long j_addr_phi = 0; j_addr_phi <= 47; j_addr_phi++) {
      C[i_addr_phi][j_addr_phi] = C[i_addr_phi][j_addr_phi] * 0.3;
      for (long k_addr_phi = 0; k_addr_phi <= 47; k_addr_phi++) {
        C[i_addr_phi][j_addr_phi] = C[i_addr_phi][j_addr_phi] + 1.1 * A[i_addr_phi][k_addr_phi] * A[j_addr_phi][k_addr_phi];
      }
    }
  }
  __kmpc_for_static_fini(gtid);
}
