double A[200][200];
double u1[200];
double v1[200];
double u2[200];
double v2[200];
double w[200];
double x[200];
double y[200];
double z[200];

void init() {
  __kmpc_fork_call(0, &init_parallel_region);
}

void kernel_gemver() {
  __kmpc_fork_call(0, &kernel_gemver_parallel_region);
  __kmpc_fork_call(0, &kernel_gemver_parallel_region_1);
  __kmpc_fork_call(0, &kernel_gemver_parallel_region_2);
  __kmpc_fork_call(0, &kernel_gemver_parallel_region_3);
}

void init_parallel_region(long* val2, long* val47) {
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
  double* val14;
  long val15;
  long val16;
  double val17;
  double* val18;
  long val19;
  long val20;
  double val21;
  double* val22;
  long val23;
  long val24;
  double val25;
  double* val26;
  long val27;
  double val28;
  double val29;
  double* val30;
  long val31;
  double val32;
  double val33;
  double* val34;
  double* val35;
  double[200]* val36;
  long val37;
  double* val38;
  long val39;
  long val40;
  long val41;
  double val42;
  long val43;
  int val44;
  long val45;
  int val46;
  val1 = *val2;
  val3 = 0;
  val4 = 199;
  __kmpc_for_static_init_8((long)val1, 34, &val6, &val3, &val4, &val5, 1, 1);
  val7 = val3;
  val8 = val4;
  val9 = (long)val7 <= (long)val8;
  if ((long)val9) {
    val10 = (long)val7;
    do {
      val11 = &*((double*)u1 + 0 * 200 + (long)val10);
      val12 = (long)val10 % 7;
      val13 = (double)(long)val12;
      (*val11) = (double)val13;
      val14 = &*((double*)u2 + 0 * 200 + (long)val10);
      val15 = (long)val10 + 1;
      val16 = (long)val15 % 5;
      val17 = (double)(long)val16;
      (*val14) = (double)val17;
      val18 = &*((double*)v1 + 0 * 200 + (long)val10);
      val19 = (long)val10 + 2;
      val20 = (long)val19 % 9;
      val21 = (double)(long)val20;
      (*val18) = (double)val21;
      val22 = &*((double*)v2 + 0 * 200 + (long)val10);
      val23 = (long)val10 + 3;
      val24 = (long)val23 % 3;
      val25 = (double)(long)val24;
      (*val22) = (double)val25;
      val26 = &*((double*)y + 0 * 200 + (long)val10);
      val27 = (long)val10 % 11;
      val28 = (double)(long)val27;
      val29 = (double)val28 * 0.5;
      (*val26) = (double)val29;
      val30 = &*((double*)z + 0 * 200 + (long)val10);
      val31 = (long)val10 % 13;
      val32 = (double)(long)val31;
      val33 = (double)val32 * 0.25;
      (*val30) = (double)val33;
      val34 = &*((double*)x + 0 * 200 + (long)val10);
      (*val34) = 0.0;
      val35 = &*((double*)w + 0 * 200 + (long)val10);
      (*val35) = 0.0;
      val36 = &*((double*)A + 0 * 40000 + (long)val10 * 200);
      val37 = 0;
      do {
        val38 = &*((double*)val36 + 0 * 200 + (long)val37);
        val39 = (long)val10 * (long)val37;
        val40 = (long)val39 + 1;
        val41 = (long)val40 % 7;
        val42 = (double)(long)val41;
        (*val38) = (double)val42;
        val43 = (long)val37 + 1;
        val44 = (long)val43 < 200;
        val37 = (long)val43;
      } while ((long)val44);
      val45 = (long)val10 + 1;
      val46 = (long)val45 <= (long)val8;
      val10 = (long)val45;
    } while ((long)val46);
  }
  __kmpc_for_static_fini((long)val1);
}

void kernel_gemver_parallel_region(long* val49, long* val80) {
  long val48;
  long val50;
  long val51;
  long val52;
  long val53;
  long val54;
  long val55;
  int val56;
  long val57;
  double[200]* val58;
  double[200]* val59;
  double* val60;
  double* val61;
  long val62;
  double* val63;
  double* val64;
  double val65;
  double val66;
  double* val67;
  double val68;
  double val69;
  double val70;
  double val71;
  double* val72;
  double val73;
  double val74;
  double val75;
  long val76;
  int val77;
  long val78;
  int val79;
  val48 = *val49;
  val50 = 0;
  val51 = 199;
  __kmpc_for_static_init_8((long)val48, 34, &val53, &val50, &val51, &val52, 1, 1);
  val54 = val50;
  val55 = val51;
  val56 = (long)val54 <= (long)val55;
  if ((long)val56) {
    val57 = (long)val54;
    do {
      val58 = &*((double*)A + 0 * 40000 + (long)val57 * 200);
      val59 = &*((double*)A + 0 * 40000 + (long)val57 * 200);
      val60 = &*((double*)u1 + 0 * 200 + (long)val57);
      val61 = &*((double*)u2 + 0 * 200 + (long)val57);
      val62 = 0;
      do {
        val63 = &*((double*)val58 + 0 * 200 + (long)val62);
        val64 = &*((double*)val59 + 0 * 200 + (long)val62);
        val65 = *val64;
        val66 = *val60;
        val67 = &*((double*)v1 + 0 * 200 + (long)val62);
        val68 = *val67;
        val69 = (double)val66 * (double)val68;
        val70 = (double)val65 + (double)val69;
        val71 = *val61;
        val72 = &*((double*)v2 + 0 * 200 + (long)val62);
        val73 = *val72;
        val74 = (double)val71 * (double)val73;
        val75 = (double)val70 + (double)val74;
        (*val63) = (double)val75;
        val76 = (long)val62 + 1;
        val77 = (long)val76 < 200;
        val62 = (long)val76;
      } while ((long)val77);
      val78 = (long)val57 + 1;
      val79 = (long)val78 <= (long)val55;
      val57 = (long)val78;
    } while ((long)val79);
  }
  __kmpc_for_static_fini((long)val48);
}

void kernel_gemver_parallel_region_1(long* val82, long* val107) {
  long val81;
  long val83;
  long val84;
  long val85;
  long val86;
  long val87;
  long val88;
  int val89;
  long val90;
  double* val91;
  double* val92;
  long val93;
  double val94;
  double[200]* val95;
  double* val96;
  double val97;
  double val98;
  double* val99;
  double val100;
  double val101;
  double val102;
  long val103;
  int val104;
  long val105;
  int val106;
  val81 = *val82;
  val83 = 0;
  val84 = 199;
  __kmpc_for_static_init_8((long)val81, 34, &val86, &val83, &val84, &val85, 1, 1);
  val87 = val83;
  val88 = val84;
  val89 = (long)val87 <= (long)val88;
  if ((long)val89) {
    val90 = (long)val87;
    do {
      val91 = &*((double*)x + 0 * 200 + (long)val90);
      val92 = &*((double*)x + 0 * 200 + (long)val90);
      val93 = 0;
      do {
        val94 = *val92;
        val95 = &*((double*)A + 0 * 40000 + (long)val93 * 200);
        val96 = &*((double*)val95 + 0 * 200 + (long)val90);
        val97 = *val96;
        val98 = 0.75 * (double)val97;
        val99 = &*((double*)y + 0 * 200 + (long)val93);
        val100 = *val99;
        val101 = (double)val98 * (double)val100;
        val102 = (double)val94 + (double)val101;
        (*val91) = (double)val102;
        val103 = (long)val93 + 1;
        val104 = (long)val103 < 200;
        val93 = (long)val103;
      } while ((long)val104);
      val105 = (long)val90 + 1;
      val106 = (long)val105 <= (long)val88;
      val90 = (long)val105;
    } while ((long)val106);
  }
  __kmpc_for_static_fini((long)val81);
}

void kernel_gemver_parallel_region_2(long* val109, long* val126) {
  long val108;
  long val110;
  long val111;
  long val112;
  long val113;
  long val114;
  long val115;
  int val116;
  long val117;
  double* val118;
  double* val119;
  double val120;
  double* val121;
  double val122;
  double val123;
  long val124;
  int val125;
  val108 = *val109;
  val110 = 0;
  val111 = 199;
  __kmpc_for_static_init_8((long)val108, 34, &val113, &val110, &val111, &val112, 1, 1);
  val114 = val110;
  val115 = val111;
  val116 = (long)val114 <= (long)val115;
  if ((long)val116) {
    val117 = (long)val114;
    do {
      val118 = &*((double*)x + 0 * 200 + (long)val117);
      val119 = &*((double*)x + 0 * 200 + (long)val117);
      val120 = *val119;
      val121 = &*((double*)z + 0 * 200 + (long)val117);
      val122 = *val121;
      val123 = (double)val120 + (double)val122;
      (*val118) = (double)val123;
      val124 = (long)val117 + 1;
      val125 = (long)val124 <= (long)val115;
      val117 = (long)val124;
    } while ((long)val125);
  }
  __kmpc_for_static_fini((long)val108);
}

void kernel_gemver_parallel_region_3(long* val128, long* val153) {
  long val127;
  long val129;
  long val130;
  long val131;
  long val132;
  long val133;
  long val134;
  int val135;
  long val136;
  double* val137;
  double* val138;
  double[200]* val139;
  long val140;
  double val141;
  double* val142;
  double val143;
  double val144;
  double* val145;
  double val146;
  double val147;
  double val148;
  long val149;
  int val150;
  long val151;
  int val152;
  val127 = *val128;
  val129 = 0;
  val130 = 199;
  __kmpc_for_static_init_8((long)val127, 34, &val132, &val129, &val130, &val131, 1, 1);
  val133 = val129;
  val134 = val130;
  val135 = (long)val133 <= (long)val134;
  if ((long)val135) {
    val136 = (long)val133;
    do {
      val137 = &*((double*)w + 0 * 200 + (long)val136);
      val138 = &*((double*)w + 0 * 200 + (long)val136);
      val139 = &*((double*)A + 0 * 40000 + (long)val136 * 200);
      val140 = 0;
      do {
        val141 = *val138;
        val142 = &*((double*)val139 + 0 * 200 + (long)val140);
        val143 = *val142;
        val144 = 1.25 * (double)val143;
        val145 = &*((double*)x + 0 * 200 + (long)val140);
        val146 = *val145;
        val147 = (double)val144 * (double)val146;
        val148 = (double)val141 + (double)val147;
        (*val137) = (double)val148;
        val149 = (long)val140 + 1;
        val150 = (long)val149 < 200;
        val140 = (long)val149;
      } while ((long)val150);
      val151 = (long)val136 + 1;
      val152 = (long)val151 <= (long)val134;
      val136 = (long)val151;
    } while ((long)val152);
  }
  __kmpc_for_static_fini((long)val127);
}
