double A[4000];
double B[4000];

void init() {
  __kmpc_fork_call(0, &init_parallel_region);
}

void kernel_jacobi_1d() {
  for (long t_addr_phi = 0; t_addr_phi <= 15; t_addr_phi++) {
    __kmpc_fork_call(0, &kernel_jacobi_1d_parallel_region);
    __kmpc_fork_call(0, &kernel_jacobi_1d_parallel_region_1);
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
  ub_addr = 3999;
  __kmpc_for_static_init_8(gtid, 34, &lastiter_addr, &lb_addr, &ub_addr, &stride_addr, 1, 1);
  ub = ub_addr;
  for (long i_addr_phi = lb; i_addr_phi <= ub; i_addr_phi++) {
    A[i_addr_phi] = (double)(i_addr_phi * 7 % 31) * 0.5;
    B[i_addr_phi] = 0.0;
  }
  __kmpc_for_static_fini(gtid);
}

void kernel_jacobi_1d_parallel_region(long* gtid_ptr, long* btid_ptr) {
  long gtid;
  long lb_addr;
  long ub_addr;
  long stride_addr;
  long lastiter_addr;
  long ub;
  gtid = *gtid_ptr;
  lb_addr = 1;
  ub_addr = 3998;
  __kmpc_for_static_init_8(gtid, 34, &lastiter_addr, &lb_addr, &ub_addr, &stride_addr, 1, 1);
  ub = ub_addr;
  for (long i_addr_phi = lb; i_addr_phi <= ub; i_addr_phi++) {
    B[i_addr_phi] = (A[i_addr_phi - 1] + A[i_addr_phi] + A[i_addr_phi + 1]) / 3.0;
  }
  __kmpc_for_static_fini(gtid);
}

void kernel_jacobi_1d_parallel_region_1(long* gtid_ptr, long* btid_ptr) {
  long gtid;
  long lb_addr;
  long ub_addr;
  long stride_addr;
  long lastiter_addr;
  long ub;
  gtid = *gtid_ptr;
  lb_addr = 1;
  ub_addr = 3998;
  __kmpc_for_static_init_8(gtid, 34, &lastiter_addr, &lb_addr, &ub_addr, &stride_addr, 1, 1);
  ub = ub_addr;
  for (long j_addr_phi = lb; j_addr_phi <= ub; j_addr_phi++) {
    A[j_addr_phi] = B[j_addr_phi];
  }
  __kmpc_for_static_fini(gtid);
}
