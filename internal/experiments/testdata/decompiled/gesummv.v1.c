double A[220][220];
double B[220][220];
double x[220];
double y[220];
double tmp[220];

void init() {
  __kmpc_fork_call(0, &init_parallel_region);
}

void kernel_gesummv() {
  __kmpc_fork_call(0, &kernel_gesummv_parallel_region);
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
  ub_addr = 219;
  __kmpc_for_static_init_8(gtid, 34, &lastiter_addr, &lb_addr, &ub_addr, &stride_addr, 1, 1);
  ub = ub_addr;
  for (long i_addr_phi = lb; i_addr_phi <= ub; i_addr_phi++) {
    x[i_addr_phi] = (double)(i_addr_phi % 9) * 0.5;
    for (long j_addr_phi = 0; j_addr_phi <= 219; j_addr_phi++) {
      A[i_addr_phi][j_addr_phi] = (double)((i_addr_phi * j_addr_phi + 2) % 7);
      B[i_addr_phi][j_addr_phi] = (double)((i_addr_phi + j_addr_phi * 2) % 5);
    }
  }
  __kmpc_for_static_fini(gtid);
}

void kernel_gesummv_parallel_region(long* gtid_ptr, long* btid_ptr) {
  long gtid;
  long lb_addr;
  long ub_addr;
  long stride_addr;
  long lastiter_addr;
  long ub;
  gtid = *gtid_ptr;
  lb_addr = 0;
  ub_addr = 219;
  __kmpc_for_static_init_8(gtid, 34, &lastiter_addr, &lb_addr, &ub_addr, &stride_addr, 1, 1);
  ub = ub_addr;
  for (long i_addr_phi = lb; i_addr_phi <= ub; i_addr_phi++) {
    tmp[i_addr_phi] = 0.0;
    y[i_addr_phi] = 0.0;
    for (long j_addr_phi = 0; j_addr_phi <= 219; j_addr_phi++) {
      tmp[i_addr_phi] = A[i_addr_phi][j_addr_phi] * x[j_addr_phi] + tmp[i_addr_phi];
      y[i_addr_phi] = B[i_addr_phi][j_addr_phi] * x[j_addr_phi] + y[i_addr_phi];
    }
    y[i_addr_phi] = 1.2 * tmp[i_addr_phi] + 1.5 * y[i_addr_phi];
  }
  __kmpc_for_static_fini(gtid);
}
