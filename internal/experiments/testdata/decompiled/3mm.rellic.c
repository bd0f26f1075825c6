double A[36][36];
double B[36][36];
double C[36][36];
double D[36][36];
double E[36][36];
double F[36][36];
double G[36][36];

void init() {
  __kmpc_fork_call(0, &init_parallel_region);
}

void kernel_3mm() {
  __kmpc_fork_call(0, &kernel_3mm_parallel_region);
  __kmpc_fork_call(0, &kernel_3mm_parallel_region_1);
  __kmpc_fork_call(0, &kernel_3mm_parallel_region_2);
}

void init_parallel_region(long* val2, long* val39) {
  long val1;
  long val3;
  long val4;
  long val5;
  long val6;
  long val7;
  long val8;
  int val9;
  long val10;
  double[36]* val11;
  double[36]* val12;
  double[36]* val13;
  long val14;
  double[36]* val15;
  long val16;
  double* val17;
  long val18;
  long val19;
  long val20;
  double val21;
  double* val22;
  long val23;
  long val24;
  double val25;
  double* val26;
  long val27;
  long val28;
  double val29;
  double* val30;
  long val31;
  long val32;
  long val33;
  double val34;
  long val35;
  int val36;
  long val37;
  int val38;
  val1 = *val2;
  val3 = 0;
  val4 = 35;
  __kmpc_for_static_init_8((long)val1, 34, &val6, &val3, &val4, &val5, 1, 1);
  val7 = val3;
  val8 = val4;
  val9 = (long)val7 <= (long)val8;
  if ((long)val9) {
    val10 = (long)val7;
    do {
      val11 = &*((double*)A + 0 * 1296 + (long)val10 * 36);
      val12 = &*((double*)B + 0 * 1296 + (long)val10 * 36);
      val13 = &*((double*)C + 0 * 1296 + (long)val10 * 36);
      val14 = 2 * (long)val10;
      val15 = &*((double*)D + 0 * 1296 + (long)val10 * 36);
      val16 = 0;
      do {
        val17 = &*((double*)val11 + 0 * 36 + (long)val16);
        val18 = (long)val10 * (long)val16;
        val19 = (long)val18 + 3;
        val20 = (long)val19 % 11;
        val21 = (double)(long)val20;
        (*val17) = (double)val21;
        val22 = &*((double*)val12 + 0 * 36 + (long)val16);
        val23 = (long)val10 + (long)val16;
        val24 = (long)val23 % 7;
        val25 = (double)(long)val24;
        (*val22) = (double)val25;
        val26 = &*((double*)val13 + 0 * 36 + (long)val16);
        val27 = (long)val14 + (long)val16;
        val28 = (long)val27 % 5;
        val29 = (double)(long)val28;
        (*val26) = (double)val29;
        val30 = &*((double*)val15 + 0 * 36 + (long)val16);
        val31 = 3 * (long)val16;
        val32 = (long)val10 + (long)val31;
        val33 = (long)val32 % 9;
        val34 = (double)(long)val33;
        (*val30) = (double)val34;
        val35 = (long)val16 + 1;
        val36 = (long)val35 < 36;
        val16 = (long)val35;
      } while ((long)val36);
      val37 = (long)val10 + 1;
      val38 = (long)val37 <= (long)val8;
      val10 = (long)val37;
    } while ((long)val38);
  }
  __kmpc_for_static_fini((long)val1);
}

void kernel_3mm_parallel_region(long* val41, long* val73) {
  long val40;
  long val42;
  long val43;
  long val44;
  long val45;
  long val46;
  long val47;
  int val48;
  long val49;
  double[36]* val50;
  double[36]* val51;
  double[36]* val52;
  double[36]* val53;
  long val54;
  double* val55;
  double* val56;
  double* val57;
  long val58;
  double val59;
  double* val60;
  double val61;
  double[36]* val62;
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
  val40 = *val41;
  val42 = 0;
  val43 = 35;
  __kmpc_for_static_init_8((long)val40, 34, &val45, &val42, &val43, &val44, 1, 1);
  val46 = val42;
  val47 = val43;
  val48 = (long)val46 <= (long)val47;
  if ((long)val48) {
    val49 = (long)val46;
    do {
      val50 = &*((double*)E + 0 * 1296 + (long)val49 * 36);
      val51 = &*((double*)E + 0 * 1296 + (long)val49 * 36);
      val52 = &*((double*)E + 0 * 1296 + (long)val49 * 36);
      val53 = &*((double*)A + 0 * 1296 + (long)val49 * 36);
      val54 = 0;
      do {
        val55 = &*((double*)val50 + 0 * 36 + (long)val54);
        (*val55) = 0.0;
        val56 = &*((double*)val51 + 0 * 36 + (long)val54);
        val57 = &*((double*)val52 + 0 * 36 + (long)val54);
        val58 = 0;
        do {
          val59 = *val57;
          val60 = &*((double*)val53 + 0 * 36 + (long)val58);
          val61 = *val60;
          val62 = &*((double*)B + 0 * 1296 + (long)val58 * 36);
          val63 = &*((double*)val62 + 0 * 36 + (long)val54);
          val64 = *val63;
          val65 = (double)val61 * (double)val64;
          val66 = (double)val59 + (double)val65;
          (*val56) = (double)val66;
          val67 = (long)val58 + 1;
          val68 = (long)val67 < 36;
          val58 = (long)val67;
        } while ((long)val68);
        val69 = (long)val54 + 1;
        val70 = (long)val69 < 36;
        val54 = (long)val69;
      } while ((long)val70);
      val71 = (long)val49 + 1;
      val72 = (long)val71 <= (long)val47;
      val49 = (long)val71;
    } while ((long)val72);
  }
  __kmpc_for_static_fini((long)val40);
}

void kernel_3mm_parallel_region_1(long* val75, long* val107) {
  long val74;
  long val76;
  long val77;
  long val78;
  long val79;
  long val80;
  long val81;
  int val82;
  long val83;
  double[36]* val84;
  double[36]* val85;
  double[36]* val86;
  double[36]* val87;
  long val88;
  double* val89;
  double* val90;
  double* val91;
  long val92;
  double val93;
  double* val94;
  double val95;
  double[36]* val96;
  double* val97;
  double val98;
  double val99;
  double val100;
  long val101;
  int val102;
  long val103;
  int val104;
  long val105;
  int val106;
  val74 = *val75;
  val76 = 0;
  val77 = 35;
  __kmpc_for_static_init_8((long)val74, 34, &val79, &val76, &val77, &val78, 1, 1);
  val80 = val76;
  val81 = val77;
  val82 = (long)val80 <= (long)val81;
  if ((long)val82) {
    val83 = (long)val80;
    do {
      val84 = &*((double*)F + 0 * 1296 + (long)val83 * 36);
      val85 = &*((double*)F + 0 * 1296 + (long)val83 * 36);
      val86 = &*((double*)F + 0 * 1296 + (long)val83 * 36);
      val87 = &*((double*)C + 0 * 1296 + (long)val83 * 36);
      val88 = 0;
      do {
        val89 = &*((double*)val84 + 0 * 36 + (long)val88);
        (*val89) = 0.0;
        val90 = &*((double*)val85 + 0 * 36 + (long)val88);
        val91 = &*((double*)val86 + 0 * 36 + (long)val88);
        val92 = 0;
        do {
          val93 = *val91;
          val94 = &*((double*)val87 + 0 * 36 + (long)val92);
          val95 = *val94;
          val96 = &*((double*)D + 0 * 1296 + (long)val92 * 36);
          val97 = &*((double*)val96 + 0 * 36 + (long)val88);
          val98 = *val97;
          val99 = (double)val95 * (double)val98;
          val100 = (double)val93 + (double)val99;
          (*val90) = (double)val100;
          val101 = (long)val92 + 1;
          val102 = (long)val101 < 36;
          val92 = (long)val101;
        } while ((long)val102);
        val103 = (long)val88 + 1;
        val104 = (long)val103 < 36;
        val88 = (long)val103;
      } while ((long)val104);
      val105 = (long)val83 + 1;
      val106 = (long)val105 <= (long)val81;
      val83 = (long)val105;
    } while ((long)val106);
  }
  __kmpc_for_static_fini((long)val74);
}

void kernel_3mm_parallel_region_2(long* val109, long* val141) {
  long val108;
  long val110;
  long val111;
  long val112;
  long val113;
  long val114;
  long val115;
  int val116;
  long val117;
  double[36]* val118;
  double[36]* val119;
  double[36]* val120;
  double[36]* val121;
  long val122;
  double* val123;
  double* val124;
  double* val125;
  long val126;
  double val127;
  double* val128;
  double val129;
  double[36]* val130;
  double* val131;
  double val132;
  double val133;
  double val134;
  long val135;
  int val136;
  long val137;
  int val138;
  long val139;
  int val140;
  val108 = *val109;
  val110 = 0;
  val111 = 35;
  __kmpc_for_static_init_8((long)val108, 34, &val113, &val110, &val111, &val112, 1, 1);
  val114 = val110;
  val115 = val111;
  val116 = (long)val114 <= (long)val115;
  if ((long)val116) {
    val117 = (long)val114;
    do {
      val118 = &*((double*)G + 0 * 1296 + (long)val117 * 36);
      val119 = &*((double*)G + 0 * 1296 + (long)val117 * 36);
      val120 = &*((double*)G + 0 * 1296 + (long)val117 * 36);
      val121 = &*((double*)E + 0 * 1296 + (long)val117 * 36);
      val122 = 0;
      do {
        val123 = &*((double*)val118 + 0 * 36 + (long)val122);
        (*val123) = 0.0;
        val124 = &*((double*)val119 + 0 * 36 + (long)val122);
        val125 = &*((double*)val120 + 0 * 36 + (long)val122);
        val126 = 0;
        do {
          val127 = *val125;
          val128 = &*((double*)val121 + 0 * 36 + (long)val126);
          val129 = *val128;
          val130 = &*((double*)F + 0 * 1296 + (long)val126 * 36);
          val131 = &*((double*)val130 + 0 * 36 + (long)val122);
          val132 = *val131;
          val133 = (double)val129 * (double)val132;
          val134 = (double)val127 + (double)val133;
          (*val124) = (double)val134;
          val135 = (long)val126 + 1;
          val136 = (long)val135 < 36;
          val126 = (long)val135;
        } while ((long)val136);
        val137 = (long)val122 + 1;
        val138 = (long)val137 < 36;
        val122 = (long)val137;
      } while ((long)val138);
      val139 = (long)val117 + 1;
      val140 = (long)val139 <= (long)val115;
      val117 = (long)val139;
    } while ((long)val140);
  }
  __kmpc_for_static_fini((long)val108);
}
