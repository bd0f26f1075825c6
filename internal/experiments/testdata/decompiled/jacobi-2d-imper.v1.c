double A[90][90];
double B[90][90];

void init() {
  __kmpc_fork_call(0, &init_parallel_region);
}

void kernel_jacobi_2d() {
  for (long t_addr_phi = 0; t_addr_phi <= 7; t_addr_phi++) {
    __kmpc_fork_call(0, &kernel_jacobi_2d_parallel_region);
    __kmpc_fork_call(0, &kernel_jacobi_2d_parallel_region_1);
  }
}

void init_parallel_region(long* gtid_ptr, long* btid_ptr) {
  long gtid;
  long lb_addr;
  long ub_addr;
  long stride_addr;
  long lastiter_addr;
  long ub;
  long mul;
  gtid = *gtid_ptr;
  lb_addr = 0;
  ub_addr = 89;
  __kmpc_for_static_init_8(gtid, 34, &lastiter_addr, &lb_addr, &ub_addr, &stride_addr, 1, 1);
  ub = ub_addr;
  for (long i_addr_phi = lb; i_addr_phi <= ub; i_addr_phi++) {
    mul = i_addr_phi * 31;
    for (long j_addr_phi = 0; j_addr_phi <= 89; j_addr_phi++) {
      A[i_addr_phi][j_addr_phi] = (double)((mul + j_addr_phi * 17) % 23);
      B[i_addr_phi][j_addr_phi] = 0.0;
    }
  }
  __kmpc_for_static_fini(gtid);
}

void kernel_jacobi_2d_parallel_region(long* gtid_ptr, long* btid_ptr) {
  long gtid;
  long lb_addr;
  long ub_addr;
  long stride_addr;
  long lastiter_addr;
  long ub;
  long add3;
  long sub3;
  gtid = *gtid_ptr;
  lb_addr = 1;
  ub_addr = 88;
  __kmpc_for_static_init_8(gtid, 34, &lastiter_addr, &lb_addr, &ub_addr, &stride_addr, 1, 1);
  ub = ub_addr;
  for (long i_addr_phi = lb; i_addr_phi <= ub; i_addr_phi++) {
    add3 = i_addr_phi + 1;
    sub3 = i_addr_phi - 1;
    for (long j_addr_phi = 1; j_addr_phi <= 88; j_addr_phi++) {
      B[i_addr_phi][j_addr_phi] = 0.2 * (A[i_addr_phi][j_addr_phi] + A[i_addr_phi][j_addr_phi - 1] + A[i_addr_phi][j_addr_phi + 1] + A[add3][j_addr_phi] + A[sub3][j_addr_phi]);
    }
  }
  __kmpc_for_static_fini(gtid);
}

void kernel_jacobi_2d_parallel_region_1(long* gtid_ptr, long* btid_ptr) {
  long gtid;
  long lb_addr;
  long ub_addr;
  long stride_addr;
  long lastiter_addr;
  long ub;
  gtid = *gtid_ptr;
  lb_addr = 1;
  ub_addr = 88;
  __kmpc_for_static_init_8(gtid, 34, &lastiter_addr, &lb_addr, &ub_addr, &stride_addr, 1, 1);
  ub = ub_addr;
  for (long i_addr1_phi = lb; i_addr1_phi <= ub; i_addr1_phi++) {
    for (long j_addr1_phi = 1; j_addr1_phi <= 88; j_addr1_phi++) {
      A[i_addr1_phi][j_addr1_phi] = B[i_addr1_phi][j_addr1_phi];
    }
  }
  __kmpc_for_static_fini(gtid);
}
