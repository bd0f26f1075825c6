double A[48][48];
double B[48][48];
double C[48][48];

void init() {
  __kmpc_fork_call(0, &init_parallel_region);
}

void kernel_gemm() {
  __kmpc_fork_call(0, &kernel_gemm_parallel_region);
}

void init_parallel_region(long* val2, long* val33) {
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
  double[48]* val13;
  long val14;
  double* val15;
  long val16;
  long val17;
  long val18;
  double val19;
  double* val20;
  long val21;
  long val22;
  long val23;
  double val24;
  double* val25;
  long val26;
  long val27;
  double val28;
  long val29;
  int val30;
  long val31;
  int val32;
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
      val12 = &*((double*)B + 0 * 2304 + (long)val10 * 48);
      val13 = &*((double*)C + 0 * 2304 + (long)val10 * 48);
      val14 = 0;
      do {
        val15 = &*((double*)val11 + 0 * 48 + (long)val14);
        val16 = (long)val10 * (long)val14;
        val17 = (long)val16 + 1;
        val18 = (long)val17 % 7;
        val19 = (double)(long)val18;
        (*val15) = (double)val19;
        val20 = &*((double*)val12 + 0 * 48 + (long)val14);
        val21 = (long)val14 * 2;
        val22 = (long)val10 + (long)val21;
        val23 = (long)val22 % 5;
        val24 = (double)(long)val23;
        (*val20) = (double)val24;
        val25 = &*((double*)val13 + 0 * 48 + (long)val14);
        val26 = (long)val10 - (long)val14;
        val27 = (long)val26 % 3;
        val28 = (double)(long)val27;
        (*val25) = (double)val28;
        val29 = (long)val14 + 1;
        val30 = (long)val29 < 48;
        val14 = (long)val29;
      } while ((long)val30);
      val31 = (long)val10 + 1;
      val32 = (long)val31 <= (long)val8;
      val10 = (long)val31;
    } while ((long)val32);
  }
  __kmpc_for_static_fini((long)val1);
}

void kernel_gemm_parallel_region(long* val35, long* val72) {
  long val34;
  long val36;
  long val37;
  long val38;
  long val39;
  long val40;
  long val41;
  int val42;
  long val43;
  double[48]* val44;
  double[48]* val45;
  double[48]* val46;
  double[48]* val47;
  double[48]* val48;
  long val49;
  double* val50;
  double* val51;
  double val52;
  double val53;
  double* val54;
  double* val55;
  long val56;
  double val57;
  double* val58;
  double val59;
  double val60;
  double[48]* val61;
  double* val62;
  double val63;
  double val64;
  double val65;
  long val66;
  int val67;
  long val68;
  int val69;
  long val70;
  int val71;
  val34 = *val35;
  val36 = 0;
  val37 = 47;
  __kmpc_for_static_init_8((long)val34, 34, &val39, &val36, &val37, &val38, 1, 1);
  val40 = val36;
  val41 = val37;
  val42 = (long)val40 <= (long)val41;
  if ((long)val42) {
    val43 = (long)val40;
    do {
      val44 = &*((double*)C + 0 * 2304 + (long)val43 * 48);
      val45 = &*((double*)C + 0 * 2304 + (long)val43 * 48);
      val46 = &*((double*)C + 0 * 2304 + (long)val43 * 48);
      val47 = &*((double*)C + 0 * 2304 + (long)val43 * 48);
      val48 = &*((double*)A + 0 * 2304 + (long)val43 * 48);
      val49 = 0;
      do {
        val50 = &*((double*)val44 + 0 * 48 + (long)val49);
        val51 = &*((double*)val45 + 0 * 48 + (long)val49);
        val52 = *val51;
        val53 = (double)val52 * 0.5;
        (*val50) = (double)val53;
        val54 = &*((double*)val46 + 0 * 48 + (long)val49);
        val55 = &*((double*)val47 + 0 * 48 + (long)val49);
        val56 = 0;
        do {
          val57 = *val55;
          val58 = &*((double*)val48 + 0 * 48 + (long)val56);
          val59 = *val58;
          val60 = 1.5 * (double)val59;
          val61 = &*((double*)B + 0 * 2304 + (long)val56 * 48);
          val62 = &*((double*)val61 + 0 * 48 + (long)val49);
          val63 = *val62;
          val64 = (double)val60 * (double)val63;
          val65 = (double)val57 + (double)val64;
          (*val54) = (double)val65;
          val66 = (long)val56 + 1;
          val67 = (long)val66 < 48;
          val56 = (long)val66;
        } while ((long)val67);
        val68 = (long)val49 + 1;
        val69 = (long)val68 < 48;
        val49 = (long)val68;
      } while ((long)val69);
      val70 = (long)val43 + 1;
      val71 = (long)val70 <= (long)val41;
      val43 = (long)val70;
    } while ((long)val71);
  }
  __kmpc_for_static_fini((long)val34);
}
