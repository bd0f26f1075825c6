double A[220][220];
double x1[220];
double x2[220];
double y1[220];
double y2[220];

void init() {
  __kmpc_fork_call(0, &init_parallel_region);
}

void kernel_mvt() {
  __kmpc_fork_call(0, &kernel_mvt_parallel_region);
  __kmpc_fork_call(0, &kernel_mvt_parallel_region_1);
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
    x1[i_addr_phi] = (double)(i_addr_phi % 9) * 0.5;
    x2[i_addr_phi] = (double)(i_addr_phi % 7) * 0.25;
    y1[i_addr_phi] = (double)(i_addr_phi % 5) * 1.5;
    y2[i_addr_phi] = (double)(i_addr_phi % 3) * 2.0;
    for (long j_addr_phi = 0; j_addr_phi <= 219; j_addr_phi++) {
      A[i_addr_phi][j_addr_phi] = (double)((i_addr_phi + j_addr_phi) % 11);
    }
  }
  __kmpc_for_static_fini(gtid);
}

void kernel_mvt_parallel_region(long* gtid_ptr, long* btid_ptr) {
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
    for (long j_addr_phi = 0; j_addr_phi <= 219; j_addr_phi++) {
      x1[i_addr_phi] = x1[i_addr_phi] + A[i_addr_phi][j_addr_phi] * y1[j_addr_phi];
    }
  }
  __kmpc_for_static_fini(gtid);
}

void kernel_mvt_parallel_region_1(long* gtid_ptr, long* btid_ptr) {
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
  for (long i_addr1_phi = lb; i_addr1_phi <= ub; i_addr1_phi++) {
    for (long j_addr1_phi = 0; j_addr1_phi <= 219; j_addr1_phi++) {
      x2[i_addr1_phi] = x2[i_addr1_phi] + A[j_addr1_phi][i_addr1_phi] * y2[j_addr1_phi];
    }
  }
  __kmpc_for_static_fini(gtid);
}
