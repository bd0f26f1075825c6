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

void init_parallel_region(long* val2, long* val38) {
  long val1;
  long val3;
  long val4;
  long val5;
  long val6;
  long val7;
  long val8;
  int val9;
  long val10;
  double[40]* val11;
  double[40]* val12;
  double[40]* val13;
  long val14;
  double[40]* val15;
  long val16;
  double* val17;
  long val18;
  long val19;
  double val20;
  double* val21;
  long val22;
  long val23;
  double val24;
  double* val25;
  long val26;
  long val27;
  double val28;
  double* val29;
  long val30;
  long val31;
  long val32;
  double val33;
  long val34;
  int val35;
  long val36;
  int val37;
  val1 = *val2;
  val3 = 0;
  val4 = 39;
  __kmpc_for_static_init_8((long)val1, 34, &val6, &val3, &val4, &val5, 1, 1);
  val7 = val3;
  val8 = val4;
  val9 = (long)val7 <= (long)val8;
  if ((long)val9) {
    val10 = (long)val7;
    do {
      val11 = &*((double*)A + 0 * 1600 + (long)val10 * 40);
      val12 = &*((double*)B + 0 * 1600 + (long)val10 * 40);
      val13 = &*((double*)C + 0 * 1600 + (long)val10 * 40);
      val14 = (long)val10 * 2;
      val15 = &*((double*)D + 0 * 1600 + (long)val10 * 40);
      val16 = 0;
      do {
        val17 = &*((double*)val11 + 0 * 40 + (long)val16);
        val18 = (long)val10 * (long)val16;
        val19 = (long)val18 % 9;
        val20 = (double)(long)val19;
        (*val17) = (double)val20;
        val21 = &*((double*)val12 + 0 * 40 + (long)val16);
        val22 = (long)val10 + (long)val16;
        val23 = (long)val22 % 7;
        val24 = (double)(long)val23;
        (*val21) = (double)val24;
        val25 = &*((double*)val13 + 0 * 40 + (long)val16);
        val26 = (long)val14 + (long)val16;
        val27 = (long)val26 % 5;
        val28 = (double)(long)val27;
        (*val25) = (double)val28;
        val29 = &*((double*)val15 + 0 * 40 + (long)val16);
        val30 = 2 * (long)val16;
        val31 = (long)val10 - (long)val30;
        val32 = (long)val31 % 3;
        val33 = (double)(long)val32;
        (*val29) = (double)val33;
        val34 = (long)val16 + 1;
        val35 = (long)val34 < 40;
        val16 = (long)val34;
      } while ((long)val35);
      val36 = (long)val10 + 1;
      val37 = (long)val36 <= (long)val8;
      val10 = (long)val36;
    } while ((long)val37);
  }
  __kmpc_for_static_fini((long)val1);
}

void kernel_2mm_parallel_region(long* val40, long* val73) {
  long val39;
  long val41;
  long val42;
  long val43;
  long val44;
  long val45;
  long val46;
  int val47;
  long val48;
  double[40]* val49;
  double[40]* val50;
  double[40]* val51;
  double[40]* val52;
  long val53;
  double* val54;
  double* val55;
  double* val56;
  long val57;
  double val58;
  double* val59;
  double val60;
  double val61;
  double[40]* val62;
  double* val63;
  double val64;
  double val65;
  double val66;
  long val67;
  int val68;
  long val69;
  int val70;
  long val71;
  int val72;
  val39 = *val40;
  val41 = 0;
  val42 = 39;
  __kmpc_for_static_init_8((long)val39, 34, &val44, &val41, &val42, &val43, 1, 1);
  val45 = val41;
  val46 = val42;
  val47 = (long)val45 <= (long)val46;
  if ((long)val47) {
    val48 = (long)val45;
    do {
      val49 = &*((double*)tmp + 0 * 1600 + (long)val48 * 40);
      val50 = &*((double*)tmp + 0 * 1600 + (long)val48 * 40);
      val51 = &*((double*)tmp + 0 * 1600 + (long)val48 * 40);
      val52 = &*((double*)A + 0 * 1600 + (long)val48 * 40);
      val53 = 0;
      do {
        val54 = &*((double*)val49 + 0 * 40 + (long)val53);
        (*val54) = 0.0;
        val55 = &*((double*)val50 + 0 * 40 + (long)val53);
        val56 = &*((double*)val51 + 0 * 40 + (long)val53);
        val57 = 0;
        do {
          val58 = *val56;
          val59 = &*((double*)val52 + 0 * 40 + (long)val57);
          val60 = *val59;
          val61 = 1.2 * (double)val60;
          val62 = &*((double*)B + 0 * 1600 + (long)val57 * 40);
          val63 = &*((double*)val62 + 0 * 40 + (long)val53);
          val64 = *val63;
          val65 = (double)val61 * (double)val64;
          val66 = (double)val58 + (double)val65;
          (*val55) = (double)val66;
          val67 = (long)val57 + 1;
          val68 = (long)val67 < 40;
          val57 = (long)val67;
        } while ((long)val68);
        val69 = (long)val53 + 1;
        val70 = (long)val69 < 40;
        val53 = (long)val69;
      } while ((long)val70);
      val71 = (long)val48 + 1;
      val72 = (long)val71 <= (long)val46;
      val48 = (long)val71;
    } while ((long)val72);
  }
  __kmpc_for_static_fini((long)val39);
}

void kernel_2mm_parallel_region_1(long* val75, long* val111) {
  long val74;
  long val76;
  long val77;
  long val78;
  long val79;
  long val80;
  long val81;
  int val82;
  long val83;
  double[40]* val84;
  double[40]* val85;
  double[40]* val86;
  double[40]* val87;
  double[40]* val88;
  long val89;
  double* val90;
  double* val91;
  double val92;
  double val93;
  double* val94;
  double* val95;
  long val96;
  double val97;
  double* val98;
  double val99;
  double[40]* val100;
  double* val101;
  double val102;
  double val103;
  double val104;
  long val105;
  int val106;
  long val107;
  int val108;
  long val109;
  int val110;
  val74 = *val75;
  val76 = 0;
  val77 = 39;
  __kmpc_for_static_init_8((long)val74, 34, &val79, &val76, &val77, &val78, 1, 1);
  val80 = val76;
  val81 = val77;
  val82 = (long)val80 <= (long)val81;
  if ((long)val82) {
    val83 = (long)val80;
    do {
      val84 = &*((double*)D + 0 * 1600 + (long)val83 * 40);
      val85 = &*((double*)D + 0 * 1600 + (long)val83 * 40);
      val86 = &*((double*)D + 0 * 1600 + (long)val83 * 40);
      val87 = &*((double*)D + 0 * 1600 + (long)val83 * 40);
      val88 = &*((double*)tmp + 0 * 1600 + (long)val83 * 40);
      val89 = 0;
      do {
        val90 = &*((double*)val84 + 0 * 40 + (long)val89);
        val91 = &*((double*)val85 + 0 * 40 + (long)val89);
        val92 = *val91;
        val93 = (double)val92 * 0.8;
        (*val90) = (double)val93;
        val94 = &*((double*)val86 + 0 * 40 + (long)val89);
        val95 = &*((double*)val87 + 0 * 40 + (long)val89);
        val96 = 0;
        do {
          val97 = *val95;
          val98 = &*((double*)val88 + 0 * 40 + (long)val96);
          val99 = *val98;
          val100 = &*((double*)C + 0 * 1600 + (long)val96 * 40);
          val101 = &*((double*)val100 + 0 * 40 + (long)val89);
          val102 = *val101;
          val103 = (double)val99 * (double)val102;
          val104 = (double)val97 + (double)val103;
          (*val94) = (double)val104;
          val105 = (long)val96 + 1;
          val106 = (long)val105 < 40;
          val96 = (long)val105;
        } while ((long)val106);
        val107 = (long)val89 + 1;
        val108 = (long)val107 < 40;
        val89 = (long)val107;
      } while ((long)val108);
      val109 = (long)val83 + 1;
      val110 = (long)val109 <= (long)val81;
      val83 = (long)val109;
    } while ((long)val110);
  }
  __kmpc_for_static_fini((long)val74);
}
