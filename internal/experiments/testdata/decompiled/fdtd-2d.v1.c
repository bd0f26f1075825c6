double ex[64][64];
double ey[64][64];
double hz[64][64];
double fict[8];

void init() {
  __kmpc_fork_call(0, &init_parallel_region);
  __kmpc_fork_call(0, &init_parallel_region_1);
}

void kernel_fdtd_2d() {
  for (long t_addr_phi = 0; t_addr_phi <= 7; t_addr_phi++) {
    __kmpc_fork_call(2, &kernel_fdtd_2d_parallel_region, &ey[0], &fict[t_addr_phi]);
    __kmpc_fork_call(0, &kernel_fdtd_2d_parallel_region_1);
    __kmpc_fork_call(0, &kernel_fdtd_2d_parallel_region_2);
    __kmpc_fork_call(0, &kernel_fdtd_2d_parallel_region_3);
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
  ub_addr = 7;
  __kmpc_for_static_init_8(gtid, 34, &lastiter_addr, &lb_addr, &ub_addr, &stride_addr, 1, 1);
  ub = ub_addr;
  for (long t_addr_phi = lb; t_addr_phi <= ub; t_addr_phi++) {
    fict[t_addr_phi] = (double)t_addr_phi;
  }
  __kmpc_for_static_fini(gtid);
}

void init_parallel_region_1(long* gtid_ptr, long* btid_ptr) {
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
      ex[i_addr_phi][j_addr_phi] = (double)(i_addr_phi * (j_addr_phi + 1) % 7) * 0.3;
      ey[i_addr_phi][j_addr_phi] = (double)(i_addr_phi * (j_addr_phi + 2) % 5) * 0.6;
      hz[i_addr_phi][j_addr_phi] = (double)(i_addr_phi * (j_addr_phi + 3) % 9) * 0.9;
    }
  }
  __kmpc_for_static_fini(gtid);
}

void kernel_fdtd_2d_parallel_region(long* gtid_ptr, long* btid_ptr, double[64]* argarrayidx, double* argarrayidx2) {
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
  for (long j_addr_phi = lb; j_addr_phi <= ub; j_addr_phi++) {
    argarrayidx[j_addr_phi] = *argarrayidx2;
  }
  __kmpc_for_static_fini(gtid);
}

void kernel_fdtd_2d_parallel_region_1(long* gtid_ptr, long* btid_ptr) {
  long gtid;
  long lb_addr;
  long ub_addr;
  long stride_addr;
  long lastiter_addr;
  long ub;
  long sub;
  gtid = *gtid_ptr;
  lb_addr = 1;
  ub_addr = 63;
  __kmpc_for_static_init_8(gtid, 34, &lastiter_addr, &lb_addr, &ub_addr, &stride_addr, 1, 1);
  ub = ub_addr;
  for (long i_addr_phi = lb; i_addr_phi <= ub; i_addr_phi++) {
    sub = i_addr_phi - 1;
    for (long j_addr1_phi = 0; j_addr1_phi <= 63; j_addr1_phi++) {
      ey[i_addr_phi][j_addr1_phi] = ey[i_addr_phi][j_addr1_phi] - 0.5 * (hz[i_addr_phi][j_addr1_phi] - hz[sub][j_addr1_phi]);
    }
  }
  __kmpc_for_static_fini(gtid);
}

void kernel_fdtd_2d_parallel_region_2(long* gtid_ptr, long* btid_ptr) {
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
  for (long i_addr1_phi = lb; i_addr1_phi <= ub; i_addr1_phi++) {
    for (long j_addr2_phi = 1; j_addr2_phi <= 63; j_addr2_phi++) {
      ex[i_addr1_phi][j_addr2_phi] = ex[i_addr1_phi][j_addr2_phi] - 0.5 * (hz[i_addr1_phi][j_addr2_phi] - hz[i_addr1_phi][j_addr2_phi - 1]);
    }
  }
  __kmpc_for_static_fini(gtid);
}

void kernel_fdtd_2d_parallel_region_3(long* gtid_ptr, long* btid_ptr) {
  long gtid;
  long lb_addr;
  long ub_addr;
  long stride_addr;
  long lastiter_addr;
  long ub;
  long add1;
  gtid = *gtid_ptr;
  lb_addr = 0;
  ub_addr = 62;
  __kmpc_for_static_init_8(gtid, 34, &lastiter_addr, &lb_addr, &ub_addr, &stride_addr, 1, 1);
  ub = ub_addr;
  for (long i_addr2_phi = lb; i_addr2_phi <= ub; i_addr2_phi++) {
    add1 = i_addr2_phi + 1;
    for (long j_addr3_phi = 0; j_addr3_phi <= 62; j_addr3_phi++) {
      hz[i_addr2_phi][j_addr3_phi] = hz[i_addr2_phi][j_addr3_phi] - 0.7 * (ex[i_addr2_phi][j_addr3_phi + 1] - ex[i_addr2_phi][j_addr3_phi] + ey[add1][j_addr3_phi] - ey[i_addr2_phi][j_addr3_phi]);
    }
  }
  __kmpc_for_static_fini(gtid);
}
