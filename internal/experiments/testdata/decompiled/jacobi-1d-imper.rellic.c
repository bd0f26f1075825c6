double A[4000];
double B[4000];

void init() {
  __kmpc_fork_call(0, &init_parallel_region);
}

void kernel_jacobi_1d() {
  long val1;
  long val2;
  int val3;
  val1 = 0;
  do {
    __kmpc_fork_call(0, &kernel_jacobi_1d_parallel_region);
    __kmpc_fork_call(0, &kernel_jacobi_1d_parallel_region_1);
    val2 = (long)val1 + 1;
    val3 = (long)val2 < 16;
    val1 = (long)val2;
  } while ((long)val3);
}

void init_parallel_region(long* val5, long* val22) {
  long val4;
  long val6;
  long val7;
  long val8;
  long val9;
  long val10;
  long val11;
  int val12;
  long val13;
  double* val14;
  long val15;
  long val16;
  double val17;
  double val18;
  double* val19;
  long val20;
  int val21;
  val4 = *val5;
  val6 = 0;
  val7 = 3999;
  __kmpc_for_static_init_8((long)val4, 34, &val9, &val6, &val7, &val8, 1, 1);
  val10 = val6;
  val11 = val7;
  val12 = (long)val10 <= (long)val11;
  if ((long)val12) {
    val13 = (long)val10;
    do {
      val14 = &*((double*)A + 0 * 4000 + (long)val13);
      val15 = (long)val13 * 7;
      val16 = (long)val15 % 31;
      val17 = (double)(long)val16;
      val18 = (double)val17 * 0.5;
      (*val14) = (double)val18;
      val19 = &*((double*)B + 0 * 4000 + (long)val13);
      (*val19) = 0.0;
      val20 = (long)val13 + 1;
      val21 = (long)val20 <= (long)val11;
      val13 = (long)val20;
    } while ((long)val21);
  }
  __kmpc_for_static_fini((long)val4);
}

void kernel_jacobi_1d_parallel_region(long* val24, long* val47) {
  long val23;
  long val25;
  long val26;
  long val27;
  long val28;
  long val29;
  long val30;
  int val31;
  long val32;
  double* val33;
  long val34;
  double* val35;
  double val36;
  double* val37;
  double val38;
  double val39;
  long val40;
  double* val41;
  double val42;
  double val43;
  double val44;
  long val45;
  int val46;
  val23 = *val24;
  val25 = 1;
  val26 = 3998;
  __kmpc_for_static_init_8((long)val23, 34, &val28, &val25, &val26, &val27, 1, 1);
  val29 = val25;
  val30 = val26;
  val31 = (long)val29 <= (long)val30;
  if ((long)val31) {
    val32 = (long)val29;
    do {
      val33 = &*((double*)B + 0 * 4000 + (long)val32);
      val34 = (long)val32 - 1;
      val35 = &*((double*)A + 0 * 4000 + (long)val34);
      val36 = *val35;
      val37 = &*((double*)A + 0 * 4000 + (long)val32);
      val38 = *val37;
      val39 = (double)val36 + (double)val38;
      val40 = (long)val32 + 1;
      val41 = &*((double*)A + 0 * 4000 + (long)val40);
      val42 = *val41;
      val43 = (double)val39 + (double)val42;
      val44 = (double)val43 / 3.0;
      (*val33) = (double)val44;
      val45 = (long)val32 + 1;
      val46 = (long)val45 <= (long)val30;
      val32 = (long)val45;
    } while ((long)val46);
  }
  __kmpc_for_static_fini((long)val23);
}

void kernel_jacobi_1d_parallel_region_1(long* val49, long* val63) {
  long val48;
  long val50;
  long val51;
  long val52;
  long val53;
  long val54;
  long val55;
  int val56;
  long val57;
  double* val58;
  double* val59;
  double val60;
  long val61;
  int val62;
  val48 = *val49;
  val50 = 1;
  val51 = 3998;
  __kmpc_for_static_init_8((long)val48, 34, &val53, &val50, &val51, &val52, 1, 1);
  val54 = val50;
  val55 = val51;
  val56 = (long)val54 <= (long)val55;
  if ((long)val56) {
    val57 = (long)val54;
    do {
      val58 = &*((double*)A + 0 * 4000 + (long)val57);
      val59 = &*((double*)B + 0 * 4000 + (long)val57);
      val60 = *val59;
      (*val58) = (double)val60;
      val61 = (long)val57 + 1;
      val62 = (long)val61 <= (long)val55;
      val57 = (long)val61;
    } while ((long)val62);
  }
  __kmpc_for_static_fini((long)val48);
}
