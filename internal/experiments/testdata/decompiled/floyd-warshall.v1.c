double path[56][56];

void init() {
  __kmpc_fork_call(0, &init_parallel_region);
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

void init_parallel_region(long* gtid_ptr, long* btid_ptr) {
  long gtid;
  long lb_addr;
  long ub_addr;
  long stride_addr;
  long lastiter_addr;
  long ub;
  gtid = *gtid_ptr;
  lb_addr = 0;
  ub_addr = 55;
  __kmpc_for_static_init_8(gtid, 34, &lastiter_addr, &lb_addr, &ub_addr, &stride_addr, 1, 1);
  ub = ub_addr;
  for (long i_addr_phi = lb; i_addr_phi <= ub; i_addr_phi++) {
    for (long j_addr_phi = 0; j_addr_phi <= 55; j_addr_phi++) {
      path[i_addr_phi][j_addr_phi] = (double)(i_addr_phi * j_addr_phi % 7) + 1.0;
      if (i_addr_phi == j_addr_phi) {
        path[i_addr_phi][j_addr_phi] = 0.0;
      }
    }
  }
  __kmpc_for_static_fini(gtid);
}
