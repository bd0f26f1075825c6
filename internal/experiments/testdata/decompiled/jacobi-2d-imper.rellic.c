double A[90][90];
double B[90][90];

void init() {
  __kmpc_fork_call(0, &init_parallel_region);
}

void kernel_jacobi_2d() {
  long val1;
  long val2;
  int val3;
  val1 = 0;
  do {
    __kmpc_fork_call(0, &kernel_jacobi_2d_parallel_region);
    __kmpc_fork_call(0, &kernel_jacobi_2d_parallel_region_1);
    val2 = (long)val1 + 1;
    val3 = (long)val2 < 8;
    val1 = (long)val2;
  } while ((long)val3);
}

void init_parallel_region(long* val5, long* val28) {
  long val4;
  long val6;
  long val7;
  long val8;
  long val9;
  long val10;
  long val11;
  int val12;
  long val13;
  double[90]* val14;
  long val15;
  double[90]* val16;
  long val17;
  double* val18;
  long val19;
  long val20;
  long val21;
  double val22;
  double* val23;
  long val24;
  int val25;
  long val26;
  int val27;
  val4 = *val5;
  val6 = 0;
  val7 = 89;
  __kmpc_for_static_init_8((long)val4, 34, &val9, &val6, &val7, &val8, 1, 1);
  val10 = val6;
  val11 = val7;
  val12 = (long)val10 <= (long)val11;
  if ((long)val12) {
    val13 = (long)val10;
    do {
      val14 = &*((double*)A + 0 * 8100 + (long)val13 * 90);
      val15 = (long)val13 * 31;
      val16 = &*((double*)B + 0 * 8100 + (long)val13 * 90);
      val17 = 0;
      do {
        val18 = &*((double*)val14 + 0 * 90 + (long)val17);
        val19 = (long)val17 * 17;
        val20 = (long)val15 + (long)val19;
        val21 = (long)val20 % 23;
        val22 = (double)(long)val21;
        (*val18) = (double)val22;
        val23 = &*((double*)val16 + 0 * 90 + (long)val17);
        (*val23) = 0.0;
        val24 = (long)val17 + 1;
        val25 = (long)val24 < 90;
        val17 = (long)val24;
      } while ((long)val25);
      val26 = (long)val13 + 1;
      val27 = (long)val26 <= (long)val11;
      val13 = (long)val26;
    } while ((long)val27);
  }
  __kmpc_for_static_fini((long)val4);
}

void kernel_jacobi_2d_parallel_region(long* val30, long* val70) {
  long val29;
  long val31;
  long val32;
  long val33;
  long val34;
  long val35;
  long val36;
  int val37;
  long val38;
  double[90]* val39;
  double[90]* val40;
  double[90]* val41;
  double[90]* val42;
  long val43;
  double[90]* val44;
  long val45;
  double[90]* val46;
  long val47;
  double* val48;
  double* val49;
  double val50;
  long val51;
  double* val52;
  double val53;
  double val54;
  long val55;
  double* val56;
  double val57;
  double val58;
  double* val59;
  double val60;
  double val61;
  double* val62;
  double val63;
  double val64;
  double val65;
  long val66;
  int val67;
  long val68;
  int val69;
  val29 = *val30;
  val31 = 1;
  val32 = 88;
  __kmpc_for_static_init_8((long)val29, 34, &val34, &val31, &val32, &val33, 1, 1);
  val35 = val31;
  val36 = val32;
  val37 = (long)val35 <= (long)val36;
  if ((long)val37) {
    val38 = (long)val35;
    do {
      val39 = &*((double*)B + 0 * 8100 + (long)val38 * 90);
      val40 = &*((double*)A + 0 * 8100 + (long)val38 * 90);
      val41 = &*((double*)A + 0 * 8100 + (long)val38 * 90);
      val42 = &*((double*)A + 0 * 8100 + (long)val38 * 90);
      val43 = (long)val38 + 1;
      val44 = &*((double*)A + 0 * 8100 + (long)val43 * 90);
      val45 = (long)val38 - 1;
      val46 = &*((double*)A + 0 * 8100 + (long)val45 * 90);
      val47 = 1;
      do {
        val48 = &*((double*)val39 + 0 * 90 + (long)val47);
        val49 = &*((double*)val40 + 0 * 90 + (long)val47);
        val50 = *val49;
        val51 = (long)val47 - 1;
        val52 = &*((double*)val41 + 0 * 90 + (long)val51);
        val53 = *val52;
        val54 = (double)val50 + (double)val53;
        val55 = (long)val47 + 1;
        val56 = &*((double*)val42 + 0 * 90 + (long)val55);
        val57 = *val56;
        val58 = (double)val54 + (double)val57;
        val59 = &*((double*)val44 + 0 * 90 + (long)val47);
        val60 = *val59;
        val61 = (double)val58 + (double)val60;
        val62 = &*((double*)val46 + 0 * 90 + (long)val47);
        val63 = *val62;
        val64 = (double)val61 + (double)val63;
        val65 = 0.2 * (double)val64;
        (*val48) = (double)val65;
        val66 = (long)val47 + 1;
        val67 = (long)val66 < 89;
        val47 = (long)val66;
      } while ((long)val67);
      val68 = (long)val38 + 1;
      val69 = (long)val68 <= (long)val36;
      val38 = (long)val68;
    } while ((long)val69);
  }
  __kmpc_for_static_fini((long)val29);
}

void kernel_jacobi_2d_parallel_region_1(long* val72, long* val91) {
  long val71;
  long val73;
  long val74;
  long val75;
  long val76;
  long val77;
  long val78;
  int val79;
  long val80;
  double[90]* val81;
  double[90]* val82;
  long val83;
  double* val84;
  double* val85;
  double val86;
  long val87;
  int val88;
  long val89;
  int val90;
  val71 = *val72;
  val73 = 1;
  val74 = 88;
  __kmpc_for_static_init_8((long)val71, 34, &val76, &val73, &val74, &val75, 1, 1);
  val77 = val73;
  val78 = val74;
  val79 = (long)val77 <= (long)val78;
  if ((long)val79) {
    val80 = (long)val77;
    do {
      val81 = &*((double*)A + 0 * 8100 + (long)val80 * 90);
      val82 = &*((double*)B + 0 * 8100 + (long)val80 * 90);
      val83 = 1;
      do {
        val84 = &*((double*)val81 + 0 * 90 + (long)val83);
        val85 = &*((double*)val82 + 0 * 90 + (long)val83);
        val86 = *val85;
        (*val84) = (double)val86;
        val87 = (long)val83 + 1;
        val88 = (long)val87 < 89;
        val83 = (long)val87;
      } while ((long)val88);
      val89 = (long)val80 + 1;
      val90 = (long)val89 <= (long)val78;
      val80 = (long)val89;
    } while ((long)val90);
  }
  __kmpc_for_static_fini((long)val71);
}
