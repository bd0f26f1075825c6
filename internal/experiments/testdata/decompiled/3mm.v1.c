double A[36][36];
double B[36][36];
double C[36][36];
double D[36][36];
double E[36][36];
double F[36][36];
double G[36][36];

void init() {
  __kmpc_fork_call(0, &init_parallel_region);
}

void kernel_3mm() {
  __kmpc_fork_call(0, &kernel_3mm_parallel_region);
  __kmpc_fork_call(0, &kernel_3mm_parallel_region_1);
  __kmpc_fork_call(0, &kernel_3mm_parallel_region_2);
}

void init_parallel_region(long* gtid_ptr, long* btid_ptr) {
  long gtid;
  long lb_addr;
  long ub_addr;
  long stride_addr;
  long lastiter_addr;
  long ub;
  long mul1;
  gtid = *gtid_ptr;
  lb_addr = 0;
  ub_addr = 35;
  __kmpc_for_static_init_8(gtid, 34, &lastiter_addr, &lb_addr, &ub_addr, &stride_addr, 1, 1);
  ub = ub_addr;
  for (long i_addr_phi = lb; i_addr_phi <= ub; i_addr_phi++) {
    mul1 = 2 * i_addr_phi;
    for (long j_addr_phi = 0; j_addr_phi <= 35; j_addr_phi++) {
      A[i_addr_phi][j_addr_phi] = (double)((i_addr_phi * j_addr_phi + 3) % 11);
      B[i_addr_phi][j_addr_phi] = (double)((i_addr_phi + j_addr_phi) % 7);
      C[i_addr_phi][j_addr_phi] = (double)((mul1 + j_addr_phi) % 5);
      D[i_addr_phi][j_addr_phi] = (double)((i_addr_phi + 3 * j_addr_phi) % 9);
    }
  }
  __kmpc_for_static_fini(gtid);
}

void kernel_3mm_parallel_region(long* gtid_ptr, long* btid_ptr) {
  long gtid;
  long lb_addr;
  long ub_addr;
  long stride_addr;
  long lastiter_addr;
  long ub;
  gtid = *gtid_ptr;
  lb_addr = 0;
  ub_addr = 35;
  __kmpc_for_static_init_8(gtid, 34, &lastiter_addr, &lb_addr, &ub_addr, &stride_addr, 1, 1);
  ub = ub_addr;
  for (long i_addr_phi = lb; i_addr_phi <= ub; i_addr_phi++) {
    for (long j_addr_phi = 0; j_addr_phi <= 35; j_addr_phi++) {
      E[i_addr_phi][j_addr_phi] = 0.0;
      for (long k_addr_phi = 0; k_addr_phi <= 35; k_addr_phi++) {
        E[i_addr_phi][j_addr_phi] = E[i_addr_phi][j_addr_phi] + A[i_addr_phi][k_addr_phi] * B[k_addr_phi][j_addr_phi];
      }
    }
  }
  __kmpc_for_static_fini(gtid);
}

void kernel_3mm_parallel_region_1(long* gtid_ptr, long* btid_ptr) {
  long gtid;
  long lb_addr;
  long ub_addr;
  long stride_addr;
  long lastiter_addr;
  long ub;
  gtid = *gtid_ptr;
  lb_addr = 0;
  ub_addr = 35;
  __kmpc_for_static_init_8(gtid, 34, &lastiter_addr, &lb_addr, &ub_addr, &stride_addr, 1, 1);
  ub = ub_addr;
  for (long i_addr1_phi = lb; i_addr1_phi <= ub; i_addr1_phi++) {
    for (long j_addr1_phi = 0; j_addr1_phi <= 35; j_addr1_phi++) {
      F[i_addr1_phi][j_addr1_phi] = 0.0;
      for (long k_addr1_phi = 0; k_addr1_phi <= 35; k_addr1_phi++) {
        F[i_addr1_phi][j_addr1_phi] = F[i_addr1_phi][j_addr1_phi] + C[i_addr1_phi][k_addr1_phi] * D[k_addr1_phi][j_addr1_phi];
      }
    }
  }
  __kmpc_for_static_fini(gtid);
}

void kernel_3mm_parallel_region_2(long* gtid_ptr, long* btid_ptr) {
  long gtid;
  long lb_addr;
  long ub_addr;
  long stride_addr;
  long lastiter_addr;
  long ub;
  gtid = *gtid_ptr;
  lb_addr = 0;
  ub_addr = 35;
  __kmpc_for_static_init_8(gtid, 34, &lastiter_addr, &lb_addr, &ub_addr, &stride_addr, 1, 1);
  ub = ub_addr;
  for (long i_addr2_phi = lb; i_addr2_phi <= ub; i_addr2_phi++) {
    for (long j_addr2_phi = 0; j_addr2_phi <= 35; j_addr2_phi++) {
      G[i_addr2_phi][j_addr2_phi] = 0.0;
      for (long k_addr2_phi = 0; k_addr2_phi <= 35; k_addr2_phi++) {
        G[i_addr2_phi][j_addr2_phi] = G[i_addr2_phi][j_addr2_phi] + E[i_addr2_phi][k_addr2_phi] * F[k_addr2_phi][j_addr2_phi];
      }
    }
  }
  __kmpc_for_static_fini(gtid);
}
