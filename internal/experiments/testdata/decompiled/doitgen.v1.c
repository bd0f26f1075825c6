double A[20][20][24];
double C4[24][24];
double sum[20][20][24];

void init() {
  __kmpc_fork_call(0, &init_parallel_region);
  __kmpc_fork_call(0, &init_parallel_region_1);
}

void kernel_doitgen() {
  __kmpc_fork_call(0, &kernel_doitgen_parallel_region);
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
  ub_addr = 19;
  __kmpc_for_static_init_8(gtid, 34, &lastiter_addr, &lb_addr, &ub_addr, &stride_addr, 1, 1);
  ub = ub_addr;
  for (long r_addr_phi = lb; r_addr_phi <= ub; r_addr_phi++) {
    for (long q_addr_phi = 0; q_addr_phi <= 19; q_addr_phi++) {
      mul = r_addr_phi * q_addr_phi;
      for (long p_addr_phi = 0; p_addr_phi <= 23; p_addr_phi++) {
        A[r_addr_phi][q_addr_phi][p_addr_phi] = (double)((mul + p_addr_phi) % 7);
      }
    }
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
  ub_addr = 23;
  __kmpc_for_static_init_8(gtid, 34, &lastiter_addr, &lb_addr, &ub_addr, &stride_addr, 1, 1);
  ub = ub_addr;
  for (long i_addr_phi = lb; i_addr_phi <= ub; i_addr_phi++) {
    for (long j_addr_phi = 0; j_addr_phi <= 23; j_addr_phi++) {
      C4[i_addr_phi][j_addr_phi] = (double)(i_addr_phi * j_addr_phi % 5);
    }
  }
  __kmpc_for_static_fini(gtid);
}

void kernel_doitgen_parallel_region(long* gtid_ptr, long* btid_ptr) {
  long gtid;
  long lb_addr;
  long ub_addr;
  long stride_addr;
  long lastiter_addr;
  long ub;
  gtid = *gtid_ptr;
  lb_addr = 0;
  ub_addr = 19;
  __kmpc_for_static_init_8(gtid, 34, &lastiter_addr, &lb_addr, &ub_addr, &stride_addr, 1, 1);
  ub = ub_addr;
  for (long r_addr_phi = lb; r_addr_phi <= ub; r_addr_phi++) {
    for (long q_addr_phi = 0; q_addr_phi <= 19; q_addr_phi++) {
      for (long p_addr_phi = 0; p_addr_phi <= 23; p_addr_phi++) {
        sum[r_addr_phi][q_addr_phi][p_addr_phi] = 0.0;
        for (long s_addr_phi = 0; s_addr_phi <= 23; s_addr_phi++) {
          sum[r_addr_phi][q_addr_phi][p_addr_phi] = sum[r_addr_phi][q_addr_phi][p_addr_phi] + A[r_addr_phi][q_addr_phi][s_addr_phi] * C4[s_addr_phi][p_addr_phi];
        }
      }
      for (long p_addr1_phi = 0; p_addr1_phi <= 23; p_addr1_phi++) {
        A[r_addr_phi][q_addr_phi][p_addr1_phi] = sum[r_addr_phi][q_addr_phi][p_addr1_phi];
      }
    }
  }
  __kmpc_for_static_fini(gtid);
}
