double A[220][220];
double B[220][220];
double x[220];
double y[220];
double tmp[220];

void init() {
  __kmpc_fork_call(0, &init_parallel_region);
}

void kernel_gesummv() {
  __kmpc_fork_call(0, &kernel_gesummv_parallel_region);
}

void init_parallel_region(long* val2, long* val32) {
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
  double[220]* val15;
  double[220]* val16;
  long val17;
  double* val18;
  long val19;
  long val20;
  long val21;
  double val22;
  double* val23;
  long val24;
  long val25;
  long val26;
  double val27;
  long val28;
  int val29;
  long val30;
  int val31;
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
      val11 = &*((double*)x + 0 * 220 + (long)val10);
      val12 = (long)val10 % 9;
      val13 = (double)(long)val12;
      val14 = (double)val13 * 0.5;
      (*val11) = (double)val14;
      val15 = &*((double*)A + 0 * 48400 + (long)val10 * 220);
      val16 = &*((double*)B + 0 * 48400 + (long)val10 * 220);
      val17 = 0;
      do {
        val18 = &*((double*)val15 + 0 * 220 + (long)val17);
        val19 = (long)val10 * (long)val17;
        val20 = (long)val19 + 2;
        val21 = (long)val20 % 7;
        val22 = (double)(long)val21;
        (*val18) = (double)val22;
        val23 = &*((double*)val16 + 0 * 220 + (long)val17);
        val24 = (long)val17 * 2;
        val25 = (long)val10 + (long)val24;
        val26 = (long)val25 % 5;
        val27 = (double)(long)val26;
        (*val23) = (double)val27;
        val28 = (long)val17 + 1;
        val29 = (long)val28 < 220;
        val17 = (long)val28;
      } while ((long)val29);
      val30 = (long)val10 + 1;
      val31 = (long)val30 <= (long)val8;
      val10 = (long)val30;
    } while ((long)val31);
  }
  __kmpc_for_static_fini((long)val1);
}

void kernel_gesummv_parallel_region(long* val34, long* val78) {
  long val33;
  long val35;
  long val36;
  long val37;
  long val38;
  long val39;
  long val40;
  int val41;
  long val42;
  double* val43;
  double* val44;
  double* val45;
  double[220]* val46;
  double* val47;
  double* val48;
  double[220]* val49;
  double* val50;
  long val51;
  double* val52;
  double val53;
  double* val54;
  double val55;
  double val56;
  double val57;
  double val58;
  double* val59;
  double val60;
  double* val61;
  double val62;
  double val63;
  double val64;
  double val65;
  long val66;
  int val67;
  double* val68;
  double* val69;
  double val70;
  double val71;
  double* val72;
  double val73;
  double val74;
  double val75;
  long val76;
  int val77;
  val33 = *val34;
  val35 = 0;
  val36 = 219;
  __kmpc_for_static_init_8((long)val33, 34, &val38, &val35, &val36, &val37, 1, 1);
  val39 = val35;
  val40 = val36;
  val41 = (long)val39 <= (long)val40;
  if ((long)val41) {
    val42 = (long)val39;
    do {
      val43 = &*((double*)tmp + 0 * 220 + (long)val42);
      (*val43) = 0.0;
      val44 = &*((double*)y + 0 * 220 + (long)val42);
      (*val44) = 0.0;
      val45 = &*((double*)tmp + 0 * 220 + (long)val42);
      val46 = &*((double*)A + 0 * 48400 + (long)val42 * 220);
      val47 = &*((double*)tmp + 0 * 220 + (long)val42);
      val48 = &*((double*)y + 0 * 220 + (long)val42);
      val49 = &*((double*)B + 0 * 48400 + (long)val42 * 220);
      val50 = &*((double*)y + 0 * 220 + (long)val42);
      val51 = 0;
      do {
        val52 = &*((double*)val46 + 0 * 220 + (long)val51);
        val53 = *val52;
        val54 = &*((double*)x + 0 * 220 + (long)val51);
        val55 = *val54;
        val56 = (double)val53 * (double)val55;
        val57 = *val47;
        val58 = (double)val56 + (double)val57;
        (*val45) = (double)val58;
        val59 = &*((double*)val49 + 0 * 220 + (long)val51);
        val60 = *val59;
        val61 = &*((double*)x + 0 * 220 + (long)val51);
        val62 = *val61;
        val63 = (double)val60 * (double)val62;
        val64 = *val50;
        val65 = (double)val63 + (double)val64;
        (*val48) = (double)val65;
        val66 = (long)val51 + 1;
        val67 = (long)val66 < 220;
        val51 = (long)val66;
      } while ((long)val67);
      val68 = &*((double*)y + 0 * 220 + (long)val42);
      val69 = &*((double*)tmp + 0 * 220 + (long)val42);
      val70 = *val69;
      val71 = 1.2 * (double)val70;
      val72 = &*((double*)y + 0 * 220 + (long)val42);
      val73 = *val72;
      val74 = 1.5 * (double)val73;
      val75 = (double)val71 + (double)val74;
      (*val68) = (double)val75;
      val76 = (long)val42 + 1;
      val77 = (long)val76 <= (long)val40;
      val42 = (long)val76;
    } while ((long)val77);
  }
  __kmpc_for_static_fini((long)val33);
}
