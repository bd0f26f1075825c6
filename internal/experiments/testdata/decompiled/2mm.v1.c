double A[40][40];
double B[40][40];
double C[40][40];
double D[40][40];
double tmp[40][40];

void init() {
  __kmpc_fork_call(0, &init_parallel_region);
}

void kernel_2mm() {
  __kmpc_fork_call(0, &kernel_2mm_parallel_region);
  __kmpc_fork_call(0, &kernel_2mm_parallel_region_1);
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
  ub_addr = 39;
  __kmpc_for_static_init_8(gtid, 34, &lastiter_addr, &lb_addr, &ub_addr, &stride_addr, 1, 1);
  ub = ub_addr;
  for (long i_addr_phi = lb; i_addr_phi <= ub; i_addr_phi++) {
    mul1 = i_addr_phi * 2;
    for (long j_addr_phi = 0; j_addr_phi <= 39; j_addr_phi++) {
      A[i_addr_phi][j_addr_phi] = (double)(i_addr_phi * j_addr_phi % 9);
      B[i_addr_phi][j_addr_phi] = (double)((i_addr_phi + j_addr_phi) % 7);
      C[i_addr_phi][j_addr_phi] = (double)((mul1 + j_addr_phi) % 5);
      D[i_addr_phi][j_addr_phi] = (double)((i_addr_phi - 2 * j_addr_phi) % 3);
    }
  }
  __kmpc_for_static_fini(gtid);
}

void kernel_2mm_parallel_region(long* gtid_ptr, long* btid_ptr) {
  long gtid;
  long lb_addr;
  long ub_addr;
  long stride_addr;
  long lastiter_addr;
  long ub;
  gtid = *gtid_ptr;
  lb_addr = 0;
  ub_addr = 39;
  __kmpc_for_static_init_8(gtid, 34, &lastiter_addr, &lb_addr, &ub_addr, &stride_addr, 1, 1);
  ub = ub_addr;
  for (long i_addr_phi = lb; i_addr_phi <= ub; i_addr_phi++) {
    for (long j_addr_phi = 0; j_addr_phi <= 39; j_addr_phi++) {
      tmp[i_addr_phi][j_addr_phi] = 0.0;
      for (long k_addr_phi = 0; k_addr_phi <= 39; k_addr_phi++) {
        tmp[i_addr_phi][j_addr_phi] = tmp[i_addr_phi][j_addr_phi] + 1.2 * A[i_addr_phi][k_addr_phi] * B[k_addr_phi][j_addr_phi];
      }
    }
  }
  __kmpc_for_static_fini(gtid);
}

void kernel_2mm_parallel_region_1(long* gtid_ptr, long* btid_ptr) {
  long gtid;
  long lb_addr;
  long ub_addr;
  long stride_addr;
  long lastiter_addr;
  long ub;
  gtid = *gtid_ptr;
  lb_addr = 0;
  ub_addr = 39;
  __kmpc_for_static_init_8(gtid, 34, &lastiter_addr, &lb_addr, &ub_addr, &stride_addr, 1, 1);
  ub = ub_addr;
  for (long i_addr1_phi = lb; i_addr1_phi <= ub; i_addr1_phi++) {
    for (long j_addr1_phi = 0; j_addr1_phi <= 39; j_addr1_phi++) {
      D[i_addr1_phi][j_addr1_phi] = D[i_addr1_phi][j_addr1_phi] * 0.8;
      for (long k_addr1_phi = 0; k_addr1_phi <= 39; k_addr1_phi++) {
        D[i_addr1_phi][j_addr1_phi] = D[i_addr1_phi][j_addr1_phi] + tmp[i_addr1_phi][k_addr1_phi] * C[k_addr1_phi][j_addr1_phi];
      }
    }
  }
  __kmpc_for_static_fini(gtid);
}
