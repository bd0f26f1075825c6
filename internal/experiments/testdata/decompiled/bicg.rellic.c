double A[220][220];
double s[220];
double q[220];
double p[220];
double r[220];

void init() {
  __kmpc_fork_call(0, &init_parallel_region);
}

void kernel_bicg() {
  long val1;
  double* val2;
  double* val3;
  double[220]* val4;
  double* val5;
  double* val6;
  double[220]* val7;
  long val8;
  double* val9;
  double* val10;
  double val11;
  double val12;
  double* val13;
  double val14;
  double val15;
  double val16;
  double val17;
  double* val18;
  double val19;
  double* val20;
  double val21;
  double val22;
  double val23;
  long val24;
  int val25;
  long val26;
  int val27;
  val1 = 0;
  do {
    val2 = &*((double*)q + 0 * 220 + (long)val1);
    (*val2) = 0.0;
    val3 = &*((double*)r + 0 * 220 + (long)val1);
    val4 = &*((double*)A + 0 * 48400 + (long)val1 * 220);
    val5 = &*((double*)q + 0 * 220 + (long)val1);
    val6 = &*((double*)q + 0 * 220 + (long)val1);
    val7 = &*((double*)A + 0 * 48400 + (long)val1 * 220);
    val8 = 0;
    do {
      val9 = &*((double*)s + 0 * 220 + (long)val8);
      val10 = &*((double*)s + 0 * 220 + (long)val8);
      val11 = *val10;
      val12 = *val3;
      val13 = &*((double*)val4 + 0 * 220 + (long)val8);
      val14 = *val13;
      val15 = (double)val12 * (double)val14;
      val16 = (double)val11 + (double)val15;
      (*val9) = (double)val16;
      val17 = *val6;
      val18 = &*((double*)val7 + 0 * 220 + (long)val8);
      val19 = *val18;
      val20 = &*((double*)p + 0 * 220 + (long)val8);
      val21 = *val20;
      val22 = (double)val19 * (double)val21;
      val23 = (double)val17 + (double)val22;
      (*val5) = (double)val23;
      val24 = (long)val8 + 1;
      val25 = (long)val24 < 220;
      val8 = (long)val24;
    } while ((long)val25);
    val26 = (long)val1 + 1;
    val27 = (long)val26 < 220;
    val1 = (long)val26;
  } while ((long)val27);
}

void init_parallel_region(long* val29, long* val59) {
  long val28;
  long val30;
  long val31;
  long val32;
  long val33;
  long val34;
  long val35;
  int val36;
  long val37;
  double* val38;
  long val39;
  double val40;
  double val41;
  double* val42;
  long val43;
  double val44;
  double val45;
  double* val46;
  double* val47;
  double[220]* val48;
  long val49;
  long val50;
  double* val51;
  long val52;
  long val53;
  double val54;
  long val55;
  int val56;
  long val57;
  int val58;
  val28 = *val29;
  val30 = 0;
  val31 = 219;
  __kmpc_for_static_init_8((long)val28, 34, &val33, &val30, &val31, &val32, 1, 1);
  val34 = val30;
  val35 = val31;
  val36 = (long)val34 <= (long)val35;
  if ((long)val36) {
    val37 = (long)val34;
    do {
      val38 = &*((double*)p + 0 * 220 + (long)val37);
      val39 = (long)val37 % 7;
      val40 = (double)(long)val39;
      val41 = (double)val40 * 0.5;
      (*val38) = (double)val41;
      val42 = &*((double*)r + 0 * 220 + (long)val37);
      val43 = (long)val37 % 5;
      val44 = (double)(long)val43;
      val45 = (double)val44 * 0.25;
      (*val42) = (double)val45;
      val46 = &*((double*)s + 0 * 220 + (long)val37);
      (*val46) = 0.0;
      val47 = &*((double*)q + 0 * 220 + (long)val37);
      (*val47) = 0.0;
      val48 = &*((double*)A + 0 * 48400 + (long)val37 * 220);
      val49 = (long)val37 * 2;
      val50 = 0;
      do {
        val51 = &*((double*)val48 + 0 * 220 + (long)val50);
        val52 = (long)val49 + (long)val50;
        val53 = (long)val52 % 9;
        val54 = (double)(long)val53;
        (*val51) = (double)val54;
        val55 = (long)val50 + 1;
        val56 = (long)val55 < 220;
        val50 = (long)val55;
      } while ((long)val56);
      val57 = (long)val37 + 1;
      val58 = (long)val57 <= (long)val35;
      val37 = (long)val57;
    } while ((long)val58);
  }
  __kmpc_for_static_fini((long)val28);
}
