double path[56][56];

void init() {
  __kmpc_fork_call(0, &init_parallel_region);
}

void kernel_floyd_warshall() {
  long val1;
  double[56]* val2;
  double[56]* val3;
  long val4;
  double[56]* val5;
  double[56]* val6;
  double[56]* val7;
  double* val8;
  double[56]* val9;
  double[56]* val10;
  double* val11;
  long val12;
  double* val13;
  double* val14;
  double val15;
  double val16;
  double* val17;
  double val18;
  double val19;
  int val20;
  double* val21;
  double val22;
  double val23;
  double* val24;
  double val25;
  double val26;
  double val27;
  long val28;
  int val29;
  long val30;
  int val31;
  long val32;
  int val33;
  val1 = 0;
  do {
    val2 = &*((double*)path + 0 * 3136 + (long)val1 * 56);
    val3 = &*((double*)path + 0 * 3136 + (long)val1 * 56);
    val4 = 0;
    do {
      val5 = &*((double*)path + 0 * 3136 + (long)val4 * 56);
      val6 = &*((double*)path + 0 * 3136 + (long)val4 * 56);
      val7 = &*((double*)path + 0 * 3136 + (long)val4 * 56);
      val8 = &*((double*)val7 + 0 * 56 + (long)val1);
      val9 = &*((double*)path + 0 * 3136 + (long)val4 * 56);
      val10 = &*((double*)path + 0 * 3136 + (long)val4 * 56);
      val11 = &*((double*)val10 + 0 * 56 + (long)val1);
      val12 = 0;
      do {
        val13 = &*((double*)val5 + 0 * 56 + (long)val12);
        val14 = &*((double*)val6 + 0 * 56 + (long)val12);
        val15 = *val14;
        val16 = *val8;
        val17 = &*((double*)val2 + 0 * 56 + (long)val12);
        val18 = *val17;
        val19 = (double)val16 + (double)val18;
        val20 = (double)val15 < (double)val19;
        val21 = &*((double*)val9 + 0 * 56 + (long)val12);
        val22 = *val21;
        val23 = *val11;
        val24 = &*((double*)val3 + 0 * 56 + (long)val12);
        val25 = *val24;
        val26 = (double)val23 + (double)val25;
        val27 = (long)val20 ? (double)val22 : (double)val26;
        (*val13) = (double)val27;
        val28 = (long)val12 + 1;
        val29 = (long)val28 < 56;
        val12 = (long)val28;
      } while ((long)val29);
      val30 = (long)val4 + 1;
      val31 = (long)val30 < 56;
      val4 = (long)val30;
    } while ((long)val31);
    val32 = (long)val1 + 1;
    val33 = (long)val32 < 56;
    val1 = (long)val32;
  } while ((long)val33);
}

void init_parallel_region(long* val35, long* val58) {
  long val34;
  long val36;
  long val37;
  long val38;
  long val39;
  long val40;
  long val41;
  int val42;
  long val43;
  double[56]* val44;
  double[56]* val45;
  long val46;
  double* val47;
  long val48;
  long val49;
  double val50;
  double val51;
  int val52;
  double* val53;
  long val54;
  int val55;
  long val56;
  int val57;
  val34 = *val35;
  val36 = 0;
  val37 = 55;
  __kmpc_for_static_init_8((long)val34, 34, &val39, &val36, &val37, &val38, 1, 1);
  val40 = val36;
  val41 = val37;
  val42 = (long)val40 <= (long)val41;
  if ((long)val42) {
    val43 = (long)val40;
    do {
      val44 = &*((double*)path + 0 * 3136 + (long)val43 * 56);
      val45 = &*((double*)path + 0 * 3136 + (long)val43 * 56);
      val46 = 0;
      do {
        val47 = &*((double*)val44 + 0 * 56 + (long)val46);
        val48 = (long)val43 * (long)val46;
        val49 = (long)val48 % 7;
        val50 = (double)(long)val49;
        val51 = (double)val50 + 1.0;
        (*val47) = (double)val51;
        val52 = (long)val43 == (long)val46;
        if ((long)val52) {
          val53 = &*((double*)val45 + 0 * 56 + (long)val46);
          (*val53) = 0.0;
        }
        val54 = (long)val46 + 1;
        val55 = (long)val54 < 56;
        val46 = (long)val54;
      } while ((long)val55);
      val56 = (long)val43 + 1;
      val57 = (long)val56 <= (long)val41;
      val43 = (long)val56;
    } while ((long)val57);
  }
  __kmpc_for_static_fini((long)val34);
}
