double A[48][48];
double C[48][48];

void init() {
  __kmpc_fork_call(0, &init_parallel_region);
}

void kernel_syrk() {
  __kmpc_fork_call(0, &kernel_syrk_parallel_region);
}

void init_parallel_region(long* val2, long* val27) {
  long val1;
  long val3;
  long val4;
  long val5;
  long val6;
  long val7;
  long val8;
  int val9;
  long val10;
  double[48]* val11;
  double[48]* val12;
  long val13;
  double* val14;
  long val15;
  long val16;
  long val17;
  double val18;
  double* val19;
  long val20;
  long val21;
  double val22;
  long val23;
  int val24;
  long val25;
  int val26;
  val1 = *val2;
  val3 = 0;
  val4 = 47;
  __kmpc_for_static_init_8((long)val1, 34, &val6, &val3, &val4, &val5, 1, 1);
  val7 = val3;
  val8 = val4;
  val9 = (long)val7 <= (long)val8;
  if ((long)val9) {
    val10 = (long)val7;
    do {
      val11 = &*((double*)A + 0 * 2304 + (long)val10 * 48);
      val12 = &*((double*)C + 0 * 2304 + (long)val10 * 48);
      val13 = 0;
      do {
        val14 = &*((double*)val11 + 0 * 48 + (long)val13);
        val15 = (long)val10 * (long)val13;
        val16 = (long)val15 + 2;
        val17 = (long)val16 % 13;
        val18 = (double)(long)val17;
        (*val14) = (double)val18;
        val19 = &*((double*)val12 + 0 * 48 + (long)val13);
        val20 = (long)val10 + (long)val13;
        val21 = (long)val20 % 7;
        val22 = (double)(long)val21;
        (*val19) = (double)val22;
        val23 = (long)val13 + 1;
        val24 = (long)val23 < 48;
        val13 = (long)val23;
      } while ((long)val24);
      val25 = (long)val10 + 1;
      val26 = (long)val25 <= (long)val8;
      val10 = (long)val25;
    } while ((long)val26);
  }
  __kmpc_for_static_fini((long)val1);
}

void kernel_syrk_parallel_region(long* val29, long* val66) {
  long val28;
  long val30;
  long val31;
  long val32;
  long val33;
  long val34;
  long val35;
  int val36;
  long val37;
  double[48]* val38;
  double[48]* val39;
  double[48]* val40;
  double[48]* val41;
  double[48]* val42;
  long val43;
  double* val44;
  double* val45;
  double val46;
  double val47;
  double* val48;
  double* val49;
  double[48]* val50;
  long val51;
  double val52;
  double* val53;
  double val54;
  double val55;
  double* val56;
  double val57;
  double val58;
  double val59;
  long val60;
  int val61;
  long val62;
  int val63;
  long val64;
  int val65;
  val28 = *val29;
  val30 = 0;
  val31 = 47;
  __kmpc_for_static_init_8((long)val28, 34, &val33, &val30, &val31, &val32, 1, 1);
  val34 = val30;
  val35 = val31;
  val36 = (long)val34 <= (long)val35;
  if ((long)val36) {
    val37 = (long)val34;
    do {
      val38 = &*((double*)C + 0 * 2304 + (long)val37 * 48);
      val39 = &*((double*)C + 0 * 2304 + (long)val37 * 48);
      val40 = &*((double*)C + 0 * 2304 + (long)val37 * 48);
      val41 = &*((double*)C + 0 * 2304 + (long)val37 * 48);
      val42 = &*((double*)A + 0 * 2304 + (long)val37 * 48);
      val43 = 0;
      do {
        val44 = &*((double*)val38 + 0 * 48 + (long)val43);
        val45 = &*((double*)val39 + 0 * 48 + (long)val43);
        val46 = *val45;
        val47 = (double)val46 * 0.3;
        (*val44) = (double)val47;
        val48 = &*((double*)val40 + 0 * 48 + (long)val43);
        val49 = &*((double*)val41 + 0 * 48 + (long)val43);
        val50 = &*((double*)A + 0 * 2304 + (long)val43 * 48);
        val51 = 0;
        do {
          val52 = *val49;
          val53 = &*((double*)val42 + 0 * 48 + (long)val51);
          val54 = *val53;
          val55 = 1.1 * (double)val54;
          val56 = &*((double*)val50 + 0 * 48 + (long)val51);
          val57 = *val56;
          val58 = (double)val55 * (double)val57;
          val59 = (double)val52 + (double)val58;
          (*val48) = (double)val59;
          val60 = (long)val51 + 1;
          val61 = (long)val60 < 48;
          val51 = (long)val60;
        } while ((long)val61);
        val62 = (long)val43 + 1;
        val63 = (long)val62 < 48;
        val43 = (long)val62;
      } while ((long)val63);
      val64 = (long)val37 + 1;
      val65 = (long)val64 <= (long)val35;
      val37 = (long)val64;
    } while ((long)val65);
  }
  __kmpc_for_static_fini((long)val28);
}
