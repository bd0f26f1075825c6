double A[20][20][24];
double C4[24][24];
double sum[20][20][24];

void init() {
  __kmpc_fork_call(0, &init_parallel_region);
  __kmpc_fork_call(0, &init_parallel_region_1);
}

void kernel_doitgen() {
  __kmpc_fork_call(0, &kernel_doitgen_parallel_region);
}

void init_parallel_region(long* val2, long* val26) {
  long val1;
  long val3;
  long val4;
  long val5;
  long val6;
  long val7;
  long val8;
  int val9;
  long val10;
  double[24][20]* val11;
  long val12;
  double[24]* val13;
  long val14;
  long val15;
  double* val16;
  long val17;
  long val18;
  double val19;
  long val20;
  int val21;
  long val22;
  int val23;
  long val24;
  int val25;
  val1 = *val2;
  val3 = 0;
  val4 = 19;
  __kmpc_for_static_init_8((long)val1, 34, &val6, &val3, &val4, &val5, 1, 1);
  val7 = val3;
  val8 = val4;
  val9 = (long)val7 <= (long)val8;
  if ((long)val9) {
    val10 = (long)val7;
    do {
      val11 = &*((double*)A + 0 * 9600 + (long)val10 * 480);
      val12 = 0;
      do {
        val13 = &*((double*)val11 + 0 * 480 + (long)val12 * 24);
        val14 = (long)val10 * (long)val12;
        val15 = 0;
        do {
          val16 = &*((double*)val13 + 0 * 24 + (long)val15);
          val17 = (long)val14 + (long)val15;
          val18 = (long)val17 % 7;
          val19 = (double)(long)val18;
          (*val16) = (double)val19;
          val20 = (long)val15 + 1;
          val21 = (long)val20 < 24;
          val15 = (long)val20;
        } while ((long)val21);
        val22 = (long)val12 + 1;
        val23 = (long)val22 < 20;
        val12 = (long)val22;
      } while ((long)val23);
      val24 = (long)val10 + 1;
      val25 = (long)val24 <= (long)val8;
      val10 = (long)val24;
    } while ((long)val25);
  }
  __kmpc_for_static_fini((long)val1);
}

void init_parallel_region_1(long* val28, long* val47) {
  long val27;
  long val29;
  long val30;
  long val31;
  long val32;
  long val33;
  long val34;
  int val35;
  long val36;
  double[24]* val37;
  long val38;
  double* val39;
  long val40;
  long val41;
  double val42;
  long val43;
  int val44;
  long val45;
  int val46;
  val27 = *val28;
  val29 = 0;
  val30 = 23;
  __kmpc_for_static_init_8((long)val27, 34, &val32, &val29, &val30, &val31, 1, 1);
  val33 = val29;
  val34 = val30;
  val35 = (long)val33 <= (long)val34;
  if ((long)val35) {
    val36 = (long)val33;
    do {
      val37 = &*((double*)C4 + 0 * 576 + (long)val36 * 24);
      val38 = 0;
      do {
        val39 = &*((double*)val37 + 0 * 24 + (long)val38);
        val40 = (long)val36 * (long)val38;
        val41 = (long)val40 % 5;
        val42 = (double)(long)val41;
        (*val39) = (double)val42;
        val43 = (long)val38 + 1;
        val44 = (long)val43 < 24;
        val38 = (long)val43;
      } while ((long)val44);
      val45 = (long)val36 + 1;
      val46 = (long)val45 <= (long)val34;
      val36 = (long)val45;
    } while ((long)val46);
  }
  __kmpc_for_static_fini((long)val27);
}

void kernel_doitgen_parallel_region(long* val49, long* val98) {
  long val48;
  long val50;
  long val51;
  long val52;
  long val53;
  long val54;
  long val55;
  int val56;
  long val57;
  double[24][20]* val58;
  double[24][20]* val59;
  double[24][20]* val60;
  double[24][20]* val61;
  double[24][20]* val62;
  double[24][20]* val63;
  long val64;
  double[24]* val65;
  double[24]* val66;
  double[24]* val67;
  double[24]* val68;
  long val69;
  double* val70;
  double* val71;
  double* val72;
  long val73;
  double val74;
  double* val75;
  double val76;
  double[24]* val77;
  double* val78;
  double val79;
  double val80;
  double val81;
  long val82;
  int val83;
  long val84;
  int val85;
  double[24]* val86;
  double[24]* val87;
  long val88;
  double* val89;
  double* val90;
  double val91;
  long val92;
  int val93;
  long val94;
  int val95;
  long val96;
  int val97;
  val48 = *val49;
  val50 = 0;
  val51 = 19;
  __kmpc_for_static_init_8((long)val48, 34, &val53, &val50, &val51, &val52, 1, 1);
  val54 = val50;
  val55 = val51;
  val56 = (long)val54 <= (long)val55;
  if ((long)val56) {
    val57 = (long)val54;
    do {
      val58 = &*((double*)sum + 0 * 9600 + (long)val57 * 480);
      val59 = &*((double*)sum + 0 * 9600 + (long)val57 * 480);
      val60 = &*((double*)sum + 0 * 9600 + (long)val57 * 480);
      val61 = &*((double*)A + 0 * 9600 + (long)val57 * 480);
      val62 = &*((double*)A + 0 * 9600 + (long)val57 * 480);
      val63 = &*((double*)sum + 0 * 9600 + (long)val57 * 480);
      val64 = 0;
      do {
        val65 = &*((double*)val58 + 0 * 480 + (long)val64 * 24);
        val66 = &*((double*)val59 + 0 * 480 + (long)val64 * 24);
        val67 = &*((double*)val60 + 0 * 480 + (long)val64 * 24);
        val68 = &*((double*)val61 + 0 * 480 + (long)val64 * 24);
        val69 = 0;
        do {
          val70 = &*((double*)val65 + 0 * 24 + (long)val69);
          (*val70) = 0.0;
          val71 = &*((double*)val66 + 0 * 24 + (long)val69);
          val72 = &*((double*)val67 + 0 * 24 + (long)val69);
          val73 = 0;
          do {
            val74 = *val72;
            val75 = &*((double*)val68 + 0 * 24 + (long)val73);
            val76 = *val75;
            val77 = &*((double*)C4 + 0 * 576 + (long)val73 * 24);
            val78 = &*((double*)val77 + 0 * 24 + (long)val69);
            val79 = *val78;
            val80 = (double)val76 * (double)val79;
            val81 = (double)val74 + (double)val80;
            (*val71) = (double)val81;
            val82 = (long)val73 + 1;
            val83 = (long)val82 < 24;
            val73 = (long)val82;
          } while ((long)val83);
          val84 = (long)val69 + 1;
          val85 = (long)val84 < 24;
          val69 = (long)val84;
        } while ((long)val85);
        val86 = &*((double*)val62 + 0 * 480 + (long)val64 * 24);
        val87 = &*((double*)val63 + 0 * 480 + (long)val64 * 24);
        val88 = 0;
        do {
          val89 = &*((double*)val86 + 0 * 24 + (long)val88);
          val90 = &*((double*)val87 + 0 * 24 + (long)val88);
          val91 = *val90;
          (*val89) = (double)val91;
          val92 = (long)val88 + 1;
          val93 = (long)val92 < 24;
          val88 = (long)val92;
        } while ((long)val93);
        val94 = (long)val64 + 1;
        val95 = (long)val94 < 20;
        val64 = (long)val94;
      } while ((long)val95);
      val96 = (long)val57 + 1;
      val97 = (long)val96 <= (long)val55;
      val57 = (long)val96;
    } while ((long)val97);
  }
  __kmpc_for_static_fini((long)val48);
}
