double A[44][44];
double B[44][44];
double C[44][44];

void init() {
  __kmpc_fork_call(0, &init_parallel_region);
}

void kernel_syr2k() {
  __kmpc_fork_call(0, &kernel_syr2k_parallel_region);
}

void init_parallel_region(long* val2, long* val34) {
  long val1;
  long val3;
  long val4;
  long val5;
  long val6;
  long val7;
  long val8;
  int val9;
  long val10;
  double[44]* val11;
  double[44]* val12;
  double[44]* val13;
  long val14;
  long val15;
  double* val16;
  long val17;
  long val18;
  long val19;
  double val20;
  double* val21;
  long val22;
  long val23;
  long val24;
  double val25;
  double* val26;
  long val27;
  long val28;
  double val29;
  long val30;
  int val31;
  long val32;
  int val33;
  val1 = *val2;
  val3 = 0;
  val4 = 43;
  __kmpc_for_static_init_8((long)val1, 34, &val6, &val3, &val4, &val5, 1, 1);
  val7 = val3;
  val8 = val4;
  val9 = (long)val7 <= (long)val8;
  if ((long)val9) {
    val10 = (long)val7;
    do {
      val11 = &*((double*)A + 0 * 1936 + (long)val10 * 44);
      val12 = &*((double*)B + 0 * 1936 + (long)val10 * 44);
      val13 = &*((double*)C + 0 * 1936 + (long)val10 * 44);
      val14 = 3 * (long)val10;
      val15 = 0;
      do {
        val16 = &*((double*)val11 + 0 * 44 + (long)val15);
        val17 = (long)val10 * (long)val15;
        val18 = (long)val17 + 1;
        val19 = (long)val18 % 9;
        val20 = (double)(long)val19;
        (*val16) = (double)val20;
        val21 = &*((double*)val12 + 0 * 44 + (long)val15);
        val22 = 2 * (long)val15;
        val23 = (long)val10 + (long)val22;
        val24 = (long)val23 % 7;
        val25 = (double)(long)val24;
        (*val21) = (double)val25;
        val26 = &*((double*)val13 + 0 * 44 + (long)val15);
        val27 = (long)val14 + (long)val15;
        val28 = (long)val27 % 5;
        val29 = (double)(long)val28;
        (*val26) = (double)val29;
        val30 = (long)val15 + 1;
        val31 = (long)val30 < 44;
        val15 = (long)val30;
      } while ((long)val31);
      val32 = (long)val10 + 1;
      val33 = (long)val32 <= (long)val8;
      val10 = (long)val32;
    } while ((long)val33);
  }
  __kmpc_for_static_fini((long)val1);
}

void kernel_syr2k_parallel_region(long* val36, long* val80) {
  long val35;
  long val37;
  long val38;
  long val39;
  long val40;
  long val41;
  long val42;
  int val43;
  long val44;
  double[44]* val45;
  double[44]* val46;
  double[44]* val47;
  double[44]* val48;
  double[44]* val49;
  double[44]* val50;
  long val51;
  double* val52;
  double* val53;
  double val54;
  double val55;
  double* val56;
  double* val57;
  double[44]* val58;
  double[44]* val59;
  long val60;
  double val61;
  double* val62;
  double val63;
  double* val64;
  double val65;
  double val66;
  double val67;
  double* val68;
  double val69;
  double* val70;
  double val71;
  double val72;
  double val73;
  long val74;
  int val75;
  long val76;
  int val77;
  long val78;
  int val79;
  val35 = *val36;
  val37 = 0;
  val38 = 43;
  __kmpc_for_static_init_8((long)val35, 34, &val40, &val37, &val38, &val39, 1, 1);
  val41 = val37;
  val42 = val38;
  val43 = (long)val41 <= (long)val42;
  if ((long)val43) {
    val44 = (long)val41;
    do {
      val45 = &*((double*)C + 0 * 1936 + (long)val44 * 44);
      val46 = &*((double*)C + 0 * 1936 + (long)val44 * 44);
      val47 = &*((double*)C + 0 * 1936 + (long)val44 * 44);
      val48 = &*((double*)C + 0 * 1936 + (long)val44 * 44);
      val49 = &*((double*)A + 0 * 1936 + (long)val44 * 44);
      val50 = &*((double*)B + 0 * 1936 + (long)val44 * 44);
      val51 = 0;
      do {
        val52 = &*((double*)val45 + 0 * 44 + (long)val51);
        val53 = &*((double*)val46 + 0 * 44 + (long)val51);
        val54 = *val53;
        val55 = (double)val54 * 0.4;
        (*val52) = (double)val55;
        val56 = &*((double*)val47 + 0 * 44 + (long)val51);
        val57 = &*((double*)val48 + 0 * 44 + (long)val51);
        val58 = &*((double*)B + 0 * 1936 + (long)val51 * 44);
        val59 = &*((double*)A + 0 * 1936 + (long)val51 * 44);
        val60 = 0;
        do {
          val61 = *val57;
          val62 = &*((double*)val49 + 0 * 44 + (long)val60);
          val63 = *val62;
          val64 = &*((double*)val58 + 0 * 44 + (long)val60);
          val65 = *val64;
          val66 = (double)val63 * (double)val65;
          val67 = (double)val61 + (double)val66;
          val68 = &*((double*)val50 + 0 * 44 + (long)val60);
          val69 = *val68;
          val70 = &*((double*)val59 + 0 * 44 + (long)val60);
          val71 = *val70;
          val72 = (double)val69 * (double)val71;
          val73 = (double)val67 + (double)val72;
          (*val56) = (double)val73;
          val74 = (long)val60 + 1;
          val75 = (long)val74 < 44;
          val60 = (long)val74;
        } while ((long)val75);
        val76 = (long)val51 + 1;
        val77 = (long)val76 < 44;
        val51 = (long)val76;
      } while ((long)val77);
      val78 = (long)val44 + 1;
      val79 = (long)val78 <= (long)val42;
      val44 = (long)val78;
    } while ((long)val79);
  }
  __kmpc_for_static_fini((long)val35);
}
