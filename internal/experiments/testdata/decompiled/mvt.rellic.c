double A[220][220];
double x1[220];
double x2[220];
double y1[220];
double y2[220];

void init() {
  __kmpc_fork_call(0, &init_parallel_region);
}

void kernel_mvt() {
  __kmpc_fork_call(0, &kernel_mvt_parallel_region);
  __kmpc_fork_call(0, &kernel_mvt_parallel_region_1);
}

void init_parallel_region(long* val2, long* val37) {
  long val1;
  long val3;
  long val4;
  long val5;
  long val6;
  long val7;
  long val8;
  int val9;
  long val10;
  double* val11;
  long val12;
  double val13;
  double val14;
  double* val15;
  long val16;
  double val17;
  double val18;
  double* val19;
  long val20;
  double val21;
  double val22;
  double* val23;
  long val24;
  double val25;
  double val26;
  double[220]* val27;
  long val28;
  double* val29;
  long val30;
  long val31;
  double val32;
  long val33;
  int val34;
  long val35;
  int val36;
  val1 = *val2;
  val3 = 0;
  val4 = 219;
  __kmpc_for_static_init_8((long)val1, 34, &val6, &val3, &val4, &val5, 1, 1);
  val7 = val3;
  val8 = val4;
  val9 = (long)val7 <= (long)val8;
  if ((long)val9) {
    val10 = (long)val7;
    do {
      val11 = &*((double*)x1 + 0 * 220 + (long)val10);
      val12 = (long)val10 % 9;
      val13 = (double)(long)val12;
      val14 = (double)val13 * 0.5;
      (*val11) = (double)val14;
      val15 = &*((double*)x2 + 0 * 220 + (long)val10);
      val16 = (long)val10 % 7;
      val17 = (double)(long)val16;
      val18 = (double)val17 * 0.25;
      (*val15) = (double)val18;
      val19 = &*((double*)y1 + 0 * 220 + (long)val10);
      val20 = (long)val10 % 5;
      val21 = (double)(long)val20;
      val22 = (double)val21 * 1.5;
      (*val19) = (double)val22;
      val23 = &*((double*)y2 + 0 * 220 + (long)val10);
      val24 = (long)val10 % 3;
      val25 = (double)(long)val24;
      val26 = (double)val25 * 2.0;
      (*val23) = (double)val26;
      val27 = &*((double*)A + 0 * 48400 + (long)val10 * 220);
      val28 = 0;
      do {
        val29 = &*((double*)val27 + 0 * 220 + (long)val28);
        val30 = (long)val10 + (long)val28;
        val31 = (long)val30 % 11;
        val32 = (double)(long)val31;
        (*val29) = (double)val32;
        val33 = (long)val28 + 1;
        val34 = (long)val33 < 220;
        val28 = (long)val33;
      } while ((long)val34);
      val35 = (long)val10 + 1;
      val36 = (long)val35 <= (long)val8;
      val10 = (long)val35;
    } while ((long)val36);
  }
  __kmpc_for_static_fini((long)val1);
}

void kernel_mvt_parallel_region(long* val39, long* val63) {
  long val38;
  long val40;
  long val41;
  long val42;
  long val43;
  long val44;
  long val45;
  int val46;
  long val47;
  double* val48;
  double* val49;
  double[220]* val50;
  long val51;
  double val52;
  double* val53;
  double val54;
  double* val55;
  double val56;
  double val57;
  double val58;
  long val59;
  int val60;
  long val61;
  int val62;
  val38 = *val39;
  val40 = 0;
  val41 = 219;
  __kmpc_for_static_init_8((long)val38, 34, &val43, &val40, &val41, &val42, 1, 1);
  val44 = val40;
  val45 = val41;
  val46 = (long)val44 <= (long)val45;
  if ((long)val46) {
    val47 = (long)val44;
    do {
      val48 = &*((double*)x1 + 0 * 220 + (long)val47);
      val49 = &*((double*)x1 + 0 * 220 + (long)val47);
      val50 = &*((double*)A + 0 * 48400 + (long)val47 * 220);
      val51 = 0;
      do {
        val52 = *val49;
        val53 = &*((double*)val50 + 0 * 220 + (long)val51);
        val54 = *val53;
        val55 = &*((double*)y1 + 0 * 220 + (long)val51);
        val56 = *val55;
        val57 = (double)val54 * (double)val56;
        val58 = (double)val52 + (double)val57;
        (*val48) = (double)val58;
        val59 = (long)val51 + 1;
        val60 = (long)val59 < 220;
        val51 = (long)val59;
      } while ((long)val60);
      val61 = (long)val47 + 1;
      val62 = (long)val61 <= (long)val45;
      val47 = (long)val61;
    } while ((long)val62);
  }
  __kmpc_for_static_fini((long)val38);
}

void kernel_mvt_parallel_region_1(long* val65, long* val89) {
  long val64;
  long val66;
  long val67;
  long val68;
  long val69;
  long val70;
  long val71;
  int val72;
  long val73;
  double* val74;
  double* val75;
  long val76;
  double val77;
  double[220]* val78;
  double* val79;
  double val80;
  double* val81;
  double val82;
  double val83;
  double val84;
  long val85;
  int val86;
  long val87;
  int val88;
  val64 = *val65;
  val66 = 0;
  val67 = 219;
  __kmpc_for_static_init_8((long)val64, 34, &val69, &val66, &val67, &val68, 1, 1);
  val70 = val66;
  val71 = val67;
  val72 = (long)val70 <= (long)val71;
  if ((long)val72) {
    val73 = (long)val70;
    do {
      val74 = &*((double*)x2 + 0 * 220 + (long)val73);
      val75 = &*((double*)x2 + 0 * 220 + (long)val73);
      val76 = 0;
      do {
        val77 = *val75;
        val78 = &*((double*)A + 0 * 48400 + (long)val76 * 220);
        val79 = &*((double*)val78 + 0 * 220 + (long)val73);
        val80 = *val79;
        val81 = &*((double*)y2 + 0 * 220 + (long)val76);
        val82 = *val81;
        val83 = (double)val80 * (double)val82;
        val84 = (double)val77 + (double)val83;
        (*val74) = (double)val84;
        val85 = (long)val76 + 1;
        val86 = (long)val85 < 220;
        val76 = (long)val85;
      } while ((long)val86);
      val87 = (long)val73 + 1;
      val88 = (long)val87 <= (long)val71;
      val73 = (long)val87;
    } while ((long)val88);
  }
  __kmpc_for_static_fini((long)val64);
}
