double ex[64][64];
double ey[64][64];
double hz[64][64];
double fict[8];

void init() {
  __kmpc_fork_call(0, &init_parallel_region);
  __kmpc_fork_call(0, &init_parallel_region_1);
}

void kernel_fdtd_2d() {
  double[64]* val1;
  long val2;
  double* val3;
  long val4;
  int val5;
  val1 = &*((double*)ey + 0 * 4096 + 0 * 64);
  val2 = 0;
  do {
    val3 = &*((double*)fict + 0 * 8 + (long)val2);
    __kmpc_fork_call(2, &kernel_fdtd_2d_parallel_region, val1, val3);
    __kmpc_fork_call(0, &kernel_fdtd_2d_parallel_region_1);
    __kmpc_fork_call(0, &kernel_fdtd_2d_parallel_region_2);
    __kmpc_fork_call(0, &kernel_fdtd_2d_parallel_region_3);
    val4 = (long)val2 + 1;
    val5 = (long)val4 < 8;
    val2 = (long)val4;
  } while ((long)val5);
}

void init_parallel_region(long* val7, long* val20) {
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
  double val17;
  long val18;
  int val19;
  val6 = *val7;
  val8 = 0;
  val9 = 7;
  __kmpc_for_static_init_8((long)val6, 34, &val11, &val8, &val9, &val10, 1, 1);
  val12 = val8;
  val13 = val9;
  val14 = (long)val12 <= (long)val13;
  if ((long)val14) {
    val15 = (long)val12;
    do {
      val16 = &*((double*)fict + 0 * 8 + (long)val15);
      val17 = (double)(long)val15;
      (*val16) = (double)val17;
      val18 = (long)val15 + 1;
      val19 = (long)val18 <= (long)val13;
      val15 = (long)val18;
    } while ((long)val19);
  }
  __kmpc_for_static_fini((long)val6);
}

void init_parallel_region_1(long* val22, long* val57) {
  long val21;
  long val23;
  long val24;
  long val25;
  long val26;
  long val27;
  long val28;
  int val29;
  long val30;
  double[64]* val31;
  double[64]* val32;
  double[64]* val33;
  long val34;
  double* val35;
  long val36;
  long val37;
  long val38;
  double val39;
  double val40;
  double* val41;
  long val42;
  long val43;
  long val44;
  double val45;
  double val46;
  double* val47;
  long val48;
  long val49;
  long val50;
  double val51;
  double val52;
  long val53;
  int val54;
  long val55;
  int val56;
  val21 = *val22;
  val23 = 0;
  val24 = 63;
  __kmpc_for_static_init_8((long)val21, 34, &val26, &val23, &val24, &val25, 1, 1);
  val27 = val23;
  val28 = val24;
  val29 = (long)val27 <= (long)val28;
  if ((long)val29) {
    val30 = (long)val27;
    do {
      val31 = &*((double*)ex + 0 * 4096 + (long)val30 * 64);
      val32 = &*((double*)ey + 0 * 4096 + (long)val30 * 64);
      val33 = &*((double*)hz + 0 * 4096 + (long)val30 * 64);
      val34 = 0;
      do {
        val35 = &*((double*)val31 + 0 * 64 + (long)val34);
        val36 = (long)val34 + 1;
        val37 = (long)val30 * (long)val36;
        val38 = (long)val37 % 7;
        val39 = (double)(long)val38;
        val40 = (double)val39 * 0.3;
        (*val35) = (double)val40;
        val41 = &*((double*)val32 + 0 * 64 + (long)val34);
        val42 = (long)val34 + 2;
        val43 = (long)val30 * (long)val42;
        val44 = (long)val43 % 5;
        val45 = (double)(long)val44;
        val46 = (double)val45 * 0.6;
        (*val41) = (double)val46;
        val47 = &*((double*)val33 + 0 * 64 + (long)val34);
        val48 = (long)val34 + 3;
        val49 = (long)val30 * (long)val48;
        val50 = (long)val49 % 9;
        val51 = (double)(long)val50;
        val52 = (double)val51 * 0.9;
        (*val47) = (double)val52;
        val53 = (long)val34 + 1;
        val54 = (long)val53 < 64;
        val34 = (long)val53;
      } while ((long)val54);
      val55 = (long)val30 + 1;
      val56 = (long)val55 <= (long)val28;
      val30 = (long)val55;
    } while ((long)val56);
  }
  __kmpc_for_static_fini((long)val21);
}

void kernel_fdtd_2d_parallel_region(long* val59, long* val74, double[64]* val69, double* val71) {
  long val58;
  long val60;
  long val61;
  long val62;
  long val63;
  long val64;
  long val65;
  int val66;
  long val67;
  double* val68;
  double val70;
  long val72;
  int val73;
  val58 = *val59;
  val60 = 0;
  val61 = 63;
  __kmpc_for_static_init_8((long)val58, 34, &val63, &val60, &val61, &val62, 1, 1);
  val64 = val60;
  val65 = val61;
  val66 = (long)val64 <= (long)val65;
  if ((long)val66) {
    val67 = (long)val64;
    do {
      val68 = &*((double*)val69 + 0 * 64 + (long)val67);
      val70 = *val71;
      (*val68) = (double)val70;
      val72 = (long)val67 + 1;
      val73 = (long)val72 <= (long)val65;
      val67 = (long)val72;
    } while ((long)val73);
  }
  __kmpc_for_static_fini((long)val58);
}

void kernel_fdtd_2d_parallel_region_1(long* val76, long* val105) {
  long val75;
  long val77;
  long val78;
  long val79;
  long val80;
  long val81;
  long val82;
  int val83;
  long val84;
  double[64]* val85;
  double[64]* val86;
  double[64]* val87;
  long val88;
  double[64]* val89;
  long val90;
  double* val91;
  double* val92;
  double val93;
  double* val94;
  double val95;
  double* val96;
  double val97;
  double val98;
  double val99;
  double val100;
  long val101;
  int val102;
  long val103;
  int val104;
  val75 = *val76;
  val77 = 1;
  val78 = 63;
  __kmpc_for_static_init_8((long)val75, 34, &val80, &val77, &val78, &val79, 1, 1);
  val81 = val77;
  val82 = val78;
  val83 = (long)val81 <= (long)val82;
  if ((long)val83) {
    val84 = (long)val81;
    do {
      val85 = &*((double*)ey + 0 * 4096 + (long)val84 * 64);
      val86 = &*((double*)ey + 0 * 4096 + (long)val84 * 64);
      val87 = &*((double*)hz + 0 * 4096 + (long)val84 * 64);
      val88 = (long)val84 - 1;
      val89 = &*((double*)hz + 0 * 4096 + (long)val88 * 64);
      val90 = 0;
      do {
        val91 = &*((double*)val85 + 0 * 64 + (long)val90);
        val92 = &*((double*)val86 + 0 * 64 + (long)val90);
        val93 = *val92;
        val94 = &*((double*)val87 + 0 * 64 + (long)val90);
        val95 = *val94;
        val96 = &*((double*)val89 + 0 * 64 + (long)val90);
        val97 = *val96;
        val98 = (double)val95 - (double)val97;
        val99 = 0.5 * (double)val98;
        val100 = (double)val93 - (double)val99;
        (*val91) = (double)val100;
        val101 = (long)val90 + 1;
        val102 = (long)val101 < 64;
        val90 = (long)val101;
      } while ((long)val102);
      val103 = (long)val84 + 1;
      val104 = (long)val103 <= (long)val82;
      val84 = (long)val103;
    } while ((long)val104);
  }
  __kmpc_for_static_fini((long)val75);
}

void kernel_fdtd_2d_parallel_region_2(long* val107, long* val136) {
  long val106;
  long val108;
  long val109;
  long val110;
  long val111;
  long val112;
  long val113;
  int val114;
  long val115;
  double[64]* val116;
  double[64]* val117;
  double[64]* val118;
  double[64]* val119;
  long val120;
  double* val121;
  double* val122;
  double val123;
  double* val124;
  double val125;
  long val126;
  double* val127;
  double val128;
  double val129;
  double val130;
  double val131;
  long val132;
  int val133;
  long val134;
  int val135;
  val106 = *val107;
  val108 = 0;
  val109 = 63;
  __kmpc_for_static_init_8((long)val106, 34, &val111, &val108, &val109, &val110, 1, 1);
  val112 = val108;
  val113 = val109;
  val114 = (long)val112 <= (long)val113;
  if ((long)val114) {
    val115 = (long)val112;
    do {
      val116 = &*((double*)ex + 0 * 4096 + (long)val115 * 64);
      val117 = &*((double*)ex + 0 * 4096 + (long)val115 * 64);
      val118 = &*((double*)hz + 0 * 4096 + (long)val115 * 64);
      val119 = &*((double*)hz + 0 * 4096 + (long)val115 * 64);
      val120 = 1;
      do {
        val121 = &*((double*)val116 + 0 * 64 + (long)val120);
        val122 = &*((double*)val117 + 0 * 64 + (long)val120);
        val123 = *val122;
        val124 = &*((double*)val118 + 0 * 64 + (long)val120);
        val125 = *val124;
        val126 = (long)val120 - 1;
        val127 = &*((double*)val119 + 0 * 64 + (long)val126);
        val128 = *val127;
        val129 = (double)val125 - (double)val128;
        val130 = 0.5 * (double)val129;
        val131 = (double)val123 - (double)val130;
        (*val121) = (double)val131;
        val132 = (long)val120 + 1;
        val133 = (long)val132 < 64;
        val120 = (long)val132;
      } while ((long)val133);
      val134 = (long)val115 + 1;
      val135 = (long)val134 <= (long)val113;
      val115 = (long)val134;
    } while ((long)val135);
  }
  __kmpc_for_static_fini((long)val106);
}

void kernel_fdtd_2d_parallel_region_3(long* val138, long* val176) {
  long val137;
  long val139;
  long val140;
  long val141;
  long val142;
  long val143;
  long val144;
  int val145;
  long val146;
  double[64]* val147;
  double[64]* val148;
  double[64]* val149;
  double[64]* val150;
  long val151;
  double[64]* val152;
  double[64]* val153;
  long val154;
  double* val155;
  double* val156;
  double val157;
  long val158;
  double* val159;
  double val160;
  double* val161;
  double val162;
  double val163;
  double* val164;
  double val165;
  double val166;
  double* val167;
  double val168;
  double val169;
  double val170;
  double val171;
  long val172;
  int val173;
  long val174;
  int val175;
  val137 = *val138;
  val139 = 0;
  val140 = 62;
  __kmpc_for_static_init_8((long)val137, 34, &val142, &val139, &val140, &val141, 1, 1);
  val143 = val139;
  val144 = val140;
  val145 = (long)val143 <= (long)val144;
  if ((long)val145) {
    val146 = (long)val143;
    do {
      val147 = &*((double*)hz + 0 * 4096 + (long)val146 * 64);
      val148 = &*((double*)hz + 0 * 4096 + (long)val146 * 64);
      val149 = &*((double*)ex + 0 * 4096 + (long)val146 * 64);
      val150 = &*((double*)ex + 0 * 4096 + (long)val146 * 64);
      val151 = (long)val146 + 1;
      val152 = &*((double*)ey + 0 * 4096 + (long)val151 * 64);
      val153 = &*((double*)ey + 0 * 4096 + (long)val146 * 64);
      val154 = 0;
      do {
        val155 = &*((double*)val147 + 0 * 64 + (long)val154);
        val156 = &*((double*)val148 + 0 * 64 + (long)val154);
        val157 = *val156;
        val158 = (long)val154 + 1;
        val159 = &*((double*)val149 + 0 * 64 + (long)val158);
        val160 = *val159;
        val161 = &*((double*)val150 + 0 * 64 + (long)val154);
        val162 = *val161;
        val163 = (double)val160 - (double)val162;
        val164 = &*((double*)val152 + 0 * 64 + (long)val154);
        val165 = *val164;
        val166 = (double)val163 + (double)val165;
        val167 = &*((double*)val153 + 0 * 64 + (long)val154);
        val168 = *val167;
        val169 = (double)val166 - (double)val168;
        val170 = 0.7 * (double)val169;
        val171 = (double)val157 - (double)val170;
        (*val155) = (double)val171;
        val172 = (long)val154 + 1;
        val173 = (long)val172 < 63;
        val154 = (long)val172;
      } while ((long)val173);
      val174 = (long)val146 + 1;
      val175 = (long)val174 <= (long)val144;
      val146 = (long)val174;
    } while ((long)val175);
  }
  __kmpc_for_static_fini((long)val137);
}
