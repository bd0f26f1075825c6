double X[64][64];
double A[64][64];
double B[64][64];

void init() {
  __kmpc_fork_call(0, &init_parallel_region);
}

void kernel_adi() {
  for (long t_addr_phi = 0; t_addr_phi <= 3; t_addr_phi++) {
    __kmpc_fork_call(0, &kernel_adi_parallel_region);
    for (long i1_addr1_phi = 1; i1_addr1_phi <= 63; i1_addr1_phi++) {
      __kmpc_fork_call(10, &kernel_adi_parallel_region_1, &X[i1_addr1_phi], &X[i1_addr1_phi], &X[i1_addr1_phi - 1], &A[i1_addr1_phi], &B[i1_addr1_phi - 1], &B[i1_addr1_phi], &B[i1_addr1_phi], &A[i1_addr1_phi], &A[i1_addr1_phi], &B[i1_addr1_phi - 1]);
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
  ub_addr = 63;
  __kmpc_for_static_init_8(gtid, 34, &lastiter_addr, &lb_addr, &ub_addr, &stride_addr, 1, 1);
  ub = ub_addr;
  for (long i_addr_phi = lb; i_addr_phi <= ub; i_addr_phi++) {
    for (long j_addr_phi = 0; j_addr_phi <= 63; j_addr_phi++) {
      X[i_addr_phi][j_addr_phi] = (double)((i_addr_phi * (j_addr_phi + 1) + 1) % 13) * 0.5;
      A[i_addr_phi][j_addr_phi] = (double)((i_addr_phi * (j_addr_phi + 2) + 2) % 11) * 0.25 + 1.0;
      B[i_addr_phi][j_addr_phi] = (double)((i_addr_phi * (j_addr_phi + 3) + 3) % 9) * 0.25 + 2.0;
    }
  }
  __kmpc_for_static_fini(gtid);
}

void kernel_adi_parallel_region(long* gtid_ptr, long* btid_ptr) {
  long gtid;
  long lb_addr;
  long ub_addr;
  long stride_addr;
  long lastiter_addr;
  long ub;
  gtid = *gtid_ptr;
  lb_addr = 0;
  ub_addr = 63;
  __kmpc_for_static_init_8(gtid, 34, &lastiter_addr, &lb_addr, &ub_addr, &stride_addr, 1, 1);
  ub = ub_addr;
  for (long i1_addr_phi = lb; i1_addr_phi <= ub; i1_addr_phi++) {
    for (long i2_addr_phi = 1; i2_addr_phi <= 63; i2_addr_phi++) {
      X[i1_addr_phi][i2_addr_phi] = X[i1_addr_phi][i2_addr_phi] - X[i1_addr_phi][i2_addr_phi - 1] * A[i1_addr_phi][i2_addr_phi] / B[i1_addr_phi][i2_addr_phi - 1];
      B[i1_addr_phi][i2_addr_phi] = B[i1_addr_phi][i2_addr_phi] - A[i1_addr_phi][i2_addr_phi] * A[i1_addr_phi][i2_addr_phi] / B[i1_addr_phi][i2_addr_phi - 1];
    }
  }
  __kmpc_for_static_fini(gtid);
}

void kernel_adi_parallel_region_1(long* gtid_ptr, long* btid_ptr, double[64]* argarrayidx20, double[64]* argarrayidx22, double[64]* argarrayidx24, double[64]* argarrayidx26, double[64]* argarrayidx28, double[64]* argarrayidx30, double[64]* argarrayidx32, double[64]* argarrayidx34, double[64]* argarrayidx36, double[64]* argarrayidx38) {
  long gtid;
  long lb_addr;
  long ub_addr;
  long stride_addr;
  long lastiter_addr;
  long ub;
  gtid = *gtid_ptr;
  lb_addr = 0;
  ub_addr = 63;
  __kmpc_for_static_init_8(gtid, 34, &lastiter_addr, &lb_addr, &ub_addr, &stride_addr, 1, 1);
  ub = ub_addr;
  for (long i2_addr1_phi = lb; i2_addr1_phi <= ub; i2_addr1_phi++) {
    argarrayidx20[i2_addr1_phi] = argarrayidx22[i2_addr1_phi] - argarrayidx24[i2_addr1_phi] * argarrayidx26[i2_addr1_phi] / argarrayidx28[i2_addr1_phi];
    argarrayidx30[i2_addr1_phi] = argarrayidx32[i2_addr1_phi] - argarrayidx34[i2_addr1_phi] * argarrayidx36[i2_addr1_phi] / argarrayidx38[i2_addr1_phi];
  }
  __kmpc_for_static_fini(gtid);
}
