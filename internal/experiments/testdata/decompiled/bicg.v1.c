double A[220][220];
double s[220];
double q[220];
double p[220];
double r[220];

void init() {
  __kmpc_fork_call(0, &init_parallel_region);
}

void kernel_bicg() {
  for (long i_addr_phi = 0; i_addr_phi <= 219; i_addr_phi++) {
    q[i_addr_phi] = 0.0;
    for (long j_addr_phi = 0; j_addr_phi <= 219; j_addr_phi++) {
      s[j_addr_phi] = s[j_addr_phi] + r[i_addr_phi] * A[i_addr_phi][j_addr_phi];
      q[i_addr_phi] = q[i_addr_phi] + A[i_addr_phi][j_addr_phi] * p[j_addr_phi];
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
  long mul2;
  gtid = *gtid_ptr;
  lb_addr = 0;
  ub_addr = 219;
  __kmpc_for_static_init_8(gtid, 34, &lastiter_addr, &lb_addr, &ub_addr, &stride_addr, 1, 1);
  ub = ub_addr;
  for (long i_addr_phi = lb; i_addr_phi <= ub; i_addr_phi++) {
    p[i_addr_phi] = (double)(i_addr_phi % 7) * 0.5;
    r[i_addr_phi] = (double)(i_addr_phi % 5) * 0.25;
    s[i_addr_phi] = 0.0;
    q[i_addr_phi] = 0.0;
    mul2 = i_addr_phi * 2;
    for (long j_addr_phi = 0; j_addr_phi <= 219; j_addr_phi++) {
      A[i_addr_phi][j_addr_phi] = (double)((mul2 + j_addr_phi) % 9);
    }
  }
  __kmpc_for_static_fini(gtid);
}
