double A[220][220];
double x[220];
double y[220];
double tmp[220];

void init() {
  __kmpc_fork_call(0, &init_parallel_region);
}

void kernel_atax() {
  long val1;
  double[220]* val2;
  double* val3;
  long val4;
  int val5;
  __kmpc_fork_call(0, &kernel_atax_parallel_region);
  val1 = 0;
  do {
    val2 = &*((double*)A + 0 * 48400 + (long)val1 * 220);
    val3 = &*((double*)tmp + 0 * 220 + (long)val1);
    __kmpc_fork_call(2, &kernel_atax_parallel_region_1, val3, val2);
    val4 = (long)val1 + 1;
    val5 = (long)val4 < 220;
    val1 = (long)val4;
  } while ((long)val5);
}

void init_parallel_region(long* val7, long* val33) {
  long val6;
  long val8;
  long val9;
  long val10;
  long val11;
  long val12;
  long val13;
  int val14;
  long val15;
  double* val16;
  long val17;
  double val18;
  double val19;
  double* val20;
  double* val21;
  double[220]* val22;
  long val23;
  double* val24;
  long val25;
  long val26;
  long val27;
  double val28;
  long val29;
  int val30;
  long val31;
  int val32;
  val6 = *val7;
  val8 = 0;
  val9 = 219;
  __kmpc_for_static_init_8((long)val6, 34, &val11, &val8, &val9, &val10, 1, 1);
  val12 = val8;
  val13 = val9;
  val14 = (long)val12 <= (long)val13;
  if ((long)val14) {
    val15 = (long)val12;
    do {
      val16 = &*((double*)x + 0 * 220 + (long)val15);
      val17 = (long)val15 % 11;
      val18 = (double)(long)val17;
      val19 = 1.0 + (double)val18;
      (*val16) = (double)val19;
      val20 = &*((double*)y + 0 * 220 + (long)val15);
      (*val20) = 0.0;
      val21 = &*((double*)tmp + 0 * 220 + (long)val15);
      (*val21) = 0.0;
      val22 = &*((double*)A + 0 * 48400 + (long)val15 * 220);
      val23 = 0;
      do {
        val24 = &*((double*)val22 + 0 * 220 + (long)val23);
        val25 = (long)val23 * 3;
        val26 = (long)val15 + (long)val25;
        val27 = (long)val26 % 13;
        val28 = (double)(long)val27;
        (*val24) = (double)val28;
        val29 = (long)val23 + 1;
        val30 = (long)val29 < 220;
        val23 = (long)val29;
      } while ((long)val30);
      val31 = (long)val15 + 1;
      val32 = (long)val31 <= (long)val13;
      val15 = (long)val31;
    } while ((long)val32);
  }
  __kmpc_for_static_fini((long)val6);
}

void kernel_atax_parallel_region(long* val35, long* val60) {
  long val34;
  long val36;
  long val37;
  long val38;
  long val39;
  long val40;
  long val41;
  int val42;
  long val43;
  double* val44;
  double* val45;
  double* val46;
  double[220]* val47;
  long val48;
  double val49;
  double* val50;
  double val51;
  double* val52;
  double val53;
  double val54;
  double val55;
  long val56;
  int val57;
  long val58;
  int val59;
  val34 = *val35;
  val36 = 0;
  val37 = 219;
  __kmpc_for_static_init_8((long)val34, 34, &val39, &val36, &val37, &val38, 1, 1);
  val40 = val36;
  val41 = val37;
  val42 = (long)val40 <= (long)val41;
  if ((long)val42) {
    val43 = (long)val40;
    do {
      val44 = &*((double*)tmp + 0 * 220 + (long)val43);
      (*val44) = 0.0;
      val45 = &*((double*)tmp + 0 * 220 + (long)val43);
      val46 = &*((double*)tmp + 0 * 220 + (long)val43);
      val47 = &*((double*)A + 0 * 48400 + (long)val43 * 220);
      val48 = 0;
      do {
        val49 = *val46;
        val50 = &*((double*)val47 + 0 * 220 + (long)val48);
        val51 = *val50;
        val52 = &*((double*)x + 0 * 220 + (long)val48);
        val53 = *val52;
        val54 = (double)val51 * (double)val53;
        val55 = (double)val49 + (double)val54;
        (*val45) = (double)val55;
        val56 = (long)val48 + 1;
        val57 = (long)val56 < 220;
        val48 = (long)val56;
      } while ((long)val57);
      val58 = (long)val43 + 1;
      val59 = (long)val58 <= (long)val41;
      val43 = (long)val58;
    } while ((long)val59);
  }
  __kmpc_for_static_fini((long)val34);
}

void kernel_atax_parallel_region_1(long* val62, long* val83, double* val78, double[220]* val75) {
  long val61;
  long val63;
  long val64;
  long val65;
  long val66;
  long val67;
  long val68;
  int val69;
  long val70;
  double* val71;
  double* val72;
  double val73;
  double* val74;
  double val76;
  double val77;
  double val79;
  double val80;
  long val81;
  int val82;
  val61 = *val62;
  val63 = 0;
  val64 = 219;
  __kmpc_for_static_init_8((long)val61, 34, &val66, &val63, &val64, &val65, 1, 1);
  val67 = val63;
  val68 = val64;
  val69 = (long)val67 <= (long)val68;
  if ((long)val69) {
    val70 = (long)val67;
    do {
      val71 = &*((double*)y + 0 * 220 + (long)val70);
      val72 = &*((double*)y + 0 * 220 + (long)val70);
      val73 = *val72;
      val74 = &*((double*)val75 + 0 * 220 + (long)val70);
      val76 = *val74;
      val77 = *val78;
      val79 = (double)val76 * (double)val77;
      val80 = (double)val73 + (double)val79;
      (*val71) = (double)val80;
      val81 = (long)val70 + 1;
      val82 = (long)val81 <= (long)val68;
      val70 = (long)val81;
    } while ((long)val82);
  }
  __kmpc_for_static_fini((long)val61);
}
