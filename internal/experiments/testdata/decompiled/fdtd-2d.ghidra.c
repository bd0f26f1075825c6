double ex[64][64];
double ey[64][64];
double hz[64][64];
double fict[8];

void init() {
  __kmpc_fork_call(0, &init_parallel_region);
  __kmpc_fork_call(0, &init_parallel_region_1);
}

void kernel_fdtd_2d() {
  double[64]* uVar1;
  long uVar2;
  double* uVar3;
  long uVar4;
  int uVar5;
  uVar1 = &ey[0];
  uVar2 = 0;
  do {
    uVar3 = &fict[(long)uVar2];
    __kmpc_fork_call(2, &kernel_fdtd_2d_parallel_region, uVar1, uVar3);
    __kmpc_fork_call(0, &kernel_fdtd_2d_parallel_region_1);
    __kmpc_fork_call(0, &kernel_fdtd_2d_parallel_region_2);
    __kmpc_fork_call(0, &kernel_fdtd_2d_parallel_region_3);
    uVar4 = (long)uVar2 + 1;
    uVar5 = (long)uVar4 < 8;
    uVar2 = (long)uVar4;
  } while ((long)uVar5);
}

void init_parallel_region(long* param_1, long* param_2) {
  long uVar6;
  long local_18;
  long local_20;
  long local_28;
  long local_30;
  long uVar7;
  long uVar8;
  int uVar9;
  long uVar10;
  double* uVar11;
  double dVar12;
  long uVar13;
  int uVar14;
  uVar6 = *param_1;
  local_18 = 0;
  local_20 = 7;
  __kmpc_for_static_init_8((long)uVar6, 34, &local_30, &local_18, &local_20, &local_28, 1, 1);
  uVar7 = local_18;
  uVar8 = local_20;
  uVar9 = (long)uVar7 <= (long)uVar8;
  if ((long)uVar9) {
    uVar10 = (long)uVar7;
    do {
      uVar11 = &fict[(long)uVar10];
      dVar12 = (double)(long)uVar10;
      (*uVar11) = (double)dVar12;
      uVar13 = (long)uVar10 + 1;
      uVar14 = (long)uVar13 <= (long)uVar8;
      uVar10 = (long)uVar13;
    } while ((long)uVar14);
  }
  __kmpc_for_static_fini((long)uVar6);
}

void init_parallel_region_1(long* param_3, long* param_4) {
  long uVar15;
  long local_38;
  long local_40;
  long local_48;
  long local_50;
  long uVar16;
  long uVar17;
  int uVar18;
  long uVar19;
  double[64]* uVar20;
  double[64]* uVar21;
  double[64]* uVar22;
  long uVar23;
  double* uVar24;
  long uVar25;
  long uVar26;
  long uVar27;
  double dVar28;
  double dVar29;
  double* uVar30;
  long uVar31;
  long uVar32;
  long uVar33;
  double dVar34;
  double dVar35;
  double* uVar36;
  long uVar37;
  long uVar38;
  long uVar39;
  double dVar40;
  double dVar41;
  long uVar42;
  int uVar43;
  long uVar44;
  int uVar45;
  uVar15 = *param_3;
  local_38 = 0;
  local_40 = 63;
  __kmpc_for_static_init_8((long)uVar15, 34, &local_50, &local_38, &local_40, &local_48, 1, 1);
  uVar16 = local_38;
  uVar17 = local_40;
  uVar18 = (long)uVar16 <= (long)uVar17;
  if ((long)uVar18) {
    uVar19 = (long)uVar16;
    do {
      uVar20 = &ex[(long)uVar19];
      uVar21 = &ey[(long)uVar19];
      uVar22 = &hz[(long)uVar19];
      uVar23 = 0;
      do {
        uVar24 = &uVar20[(long)uVar23];
        uVar25 = (long)uVar23 + 1;
        uVar26 = (long)uVar19 * (long)uVar25;
        uVar27 = (long)uVar26 % 7;
        dVar28 = (double)(long)uVar27;
        dVar29 = (double)dVar28 * 0.3;
        (*uVar24) = (double)dVar29;
        uVar30 = &uVar21[(long)uVar23];
        uVar31 = (long)uVar23 + 2;
        uVar32 = (long)uVar19 * (long)uVar31;
        uVar33 = (long)uVar32 % 5;
        dVar34 = (double)(long)uVar33;
        dVar35 = (double)dVar34 * 0.6;
        (*uVar30) = (double)dVar35;
        uVar36 = &uVar22[(long)uVar23];
        uVar37 = (long)uVar23 + 3;
        uVar38 = (long)uVar19 * (long)uVar37;
        uVar39 = (long)uVar38 % 9;
        dVar40 = (double)(long)uVar39;
        dVar41 = (double)dVar40 * 0.9;
        (*uVar36) = (double)dVar41;
        uVar42 = (long)uVar23 + 1;
        uVar43 = (long)uVar42 < 64;
        uVar23 = (long)uVar42;
      } while ((long)uVar43);
      uVar44 = (long)uVar19 + 1;
      uVar45 = (long)uVar44 <= (long)uVar17;
      uVar19 = (long)uVar44;
    } while ((long)uVar45);
  }
  __kmpc_for_static_fini((long)uVar15);
}

void kernel_fdtd_2d_parallel_region(long* param_5, long* param_8, double[64]* param_6, double* param_7) {
  long uVar46;
  long local_58;
  long local_60;
  long local_68;
  long local_70;
  long uVar47;
  long uVar48;
  int uVar49;
  long uVar50;
  double* uVar51;
  double dVar52;
  long uVar53;
  int uVar54;
  uVar46 = *param_5;
  local_58 = 0;
  local_60 = 63;
  __kmpc_for_static_init_8((long)uVar46, 34, &local_70, &local_58, &local_60, &local_68, 1, 1);
  uVar47 = local_58;
  uVar48 = local_60;
  uVar49 = (long)uVar47 <= (long)uVar48;
  if ((long)uVar49) {
    uVar50 = (long)uVar47;
    do {
      uVar51 = &param_6[(long)uVar50];
      dVar52 = *param_7;
      (*uVar51) = (double)dVar52;
      uVar53 = (long)uVar50 + 1;
      uVar54 = (long)uVar53 <= (long)uVar48;
      uVar50 = (long)uVar53;
    } while ((long)uVar54);
  }
  __kmpc_for_static_fini((long)uVar46);
}

void kernel_fdtd_2d_parallel_region_1(long* param_9, long* param_10) {
  long uVar55;
  long local_78;
  long local_80;
  long local_88;
  long local_90;
  long uVar56;
  long uVar57;
  int uVar58;
  long uVar59;
  double[64]* uVar60;
  double[64]* uVar61;
  double[64]* uVar62;
  long uVar63;
  double[64]* uVar64;
  long uVar65;
  double* uVar66;
  double* uVar67;
  double dVar68;
  double* uVar69;
  double dVar70;
  double* uVar71;
  double dVar72;
  double dVar73;
  double dVar74;
  double dVar75;
  long uVar76;
  int uVar77;
  long uVar78;
  int uVar79;
  uVar55 = *param_9;
  local_78 = 1;
  local_80 = 63;
  __kmpc_for_static_init_8((long)uVar55, 34, &local_90, &local_78, &local_80, &local_88, 1, 1);
  uVar56 = local_78;
  uVar57 = local_80;
  uVar58 = (long)uVar56 <= (long)uVar57;
  if ((long)uVar58) {
    uVar59 = (long)uVar56;
    do {
      uVar60 = &ey[(long)uVar59];
      uVar61 = &ey[(long)uVar59];
      uVar62 = &hz[(long)uVar59];
      uVar63 = (long)uVar59 - 1;
      uVar64 = &hz[(long)uVar63];
      uVar65 = 0;
      do {
        uVar66 = &uVar60[(long)uVar65];
        uVar67 = &uVar61[(long)uVar65];
        dVar68 = *uVar67;
        uVar69 = &uVar62[(long)uVar65];
        dVar70 = *uVar69;
        uVar71 = &uVar64[(long)uVar65];
        dVar72 = *uVar71;
        dVar73 = (double)dVar70 - (double)dVar72;
        dVar74 = 0.5 * (double)dVar73;
        dVar75 = (double)dVar68 - (double)dVar74;
        (*uVar66) = (double)dVar75;
        uVar76 = (long)uVar65 + 1;
        uVar77 = (long)uVar76 < 64;
        uVar65 = (long)uVar76;
      } while ((long)uVar77);
      uVar78 = (long)uVar59 + 1;
      uVar79 = (long)uVar78 <= (long)uVar57;
      uVar59 = (long)uVar78;
    } while ((long)uVar79);
  }
  __kmpc_for_static_fini((long)uVar55);
}

void kernel_fdtd_2d_parallel_region_2(long* param_11, long* param_12) {
  long uVar80;
  long local_98;
  long local_a0;
  long local_a8;
  long local_b0;
  long uVar81;
  long uVar82;
  int uVar83;
  long uVar84;
  double[64]* uVar85;
  double[64]* uVar86;
  double[64]* uVar87;
  double[64]* uVar88;
  long uVar89;
  double* uVar90;
  double* uVar91;
  double dVar92;
  double* uVar93;
  double dVar94;
  long uVar95;
  double* uVar96;
  double dVar97;
  double dVar98;
  double dVar99;
  double dVar100;
  long uVar101;
  int uVar102;
  long uVar103;
  int uVar104;
  uVar80 = *param_11;
  local_98 = 0;
  local_a0 = 63;
  __kmpc_for_static_init_8((long)uVar80, 34, &local_b0, &local_98, &local_a0, &local_a8, 1, 1);
  uVar81 = local_98;
  uVar82 = local_a0;
  uVar83 = (long)uVar81 <= (long)uVar82;
  if ((long)uVar83) {
    uVar84 = (long)uVar81;
    do {
      uVar85 = &ex[(long)uVar84];
      uVar86 = &ex[(long)uVar84];
      uVar87 = &hz[(long)uVar84];
      uVar88 = &hz[(long)uVar84];
      uVar89 = 1;
      do {
        uVar90 = &uVar85[(long)uVar89];
        uVar91 = &uVar86[(long)uVar89];
        dVar92 = *uVar91;
        uVar93 = &uVar87[(long)uVar89];
        dVar94 = *uVar93;
        uVar95 = (long)uVar89 - 1;
        uVar96 = &uVar88[(long)uVar95];
        dVar97 = *uVar96;
        dVar98 = (double)dVar94 - (double)dVar97;
        dVar99 = 0.5 * (double)dVar98;
        dVar100 = (double)dVar92 - (double)dVar99;
        (*uVar90) = (double)dVar100;
        uVar101 = (long)uVar89 + 1;
        uVar102 = (long)uVar101 < 64;
        uVar89 = (long)uVar101;
      } while ((long)uVar102);
      uVar103 = (long)uVar84 + 1;
      uVar104 = (long)uVar103 <= (long)uVar82;
      uVar84 = (long)uVar103;
    } while ((long)uVar104);
  }
  __kmpc_for_static_fini((long)uVar80);
}

void kernel_fdtd_2d_parallel_region_3(long* param_13, long* param_14) {
  long uVar105;
  long local_b8;
  long local_c0;
  long local_c8;
  long local_d0;
  long uVar106;
  long uVar107;
  int uVar108;
  long uVar109;
  double[64]* uVar110;
  double[64]* uVar111;
  double[64]* uVar112;
  double[64]* uVar113;
  long uVar114;
  double[64]* uVar115;
  double[64]* uVar116;
  long uVar117;
  double* uVar118;
  double* uVar119;
  double dVar120;
  long uVar121;
  double* uVar122;
  double dVar123;
  double* uVar124;
  double dVar125;
  double dVar126;
  double* uVar127;
  double dVar128;
  double dVar129;
  double* uVar130;
  double dVar131;
  double dVar132;
  double dVar133;
  double dVar134;
  long uVar135;
  int uVar136;
  long uVar137;
  int uVar138;
  uVar105 = *param_13;
  local_b8 = 0;
  local_c0 = 62;
  __kmpc_for_static_init_8((long)uVar105, 34, &local_d0, &local_b8, &local_c0, &local_c8, 1, 1);
  uVar106 = local_b8;
  uVar107 = local_c0;
  uVar108 = (long)uVar106 <= (long)uVar107;
  if ((long)uVar108) {
    uVar109 = (long)uVar106;
    do {
      uVar110 = &hz[(long)uVar109];
      uVar111 = &hz[(long)uVar109];
      uVar112 = &ex[(long)uVar109];
      uVar113 = &ex[(long)uVar109];
      uVar114 = (long)uVar109 + 1;
      uVar115 = &ey[(long)uVar114];
      uVar116 = &ey[(long)uVar109];
      uVar117 = 0;
      do {
        uVar118 = &uVar110[(long)uVar117];
        uVar119 = &uVar111[(long)uVar117];
        dVar120 = *uVar119;
        uVar121 = (long)uVar117 + 1;
        uVar122 = &uVar112[(long)uVar121];
        dVar123 = *uVar122;
        uVar124 = &uVar113[(long)uVar117];
        dVar125 = *uVar124;
        dVar126 = (double)dVar123 - (double)dVar125;
        uVar127 = &uVar115[(long)uVar117];
        dVar128 = *uVar127;
        dVar129 = (double)dVar126 + (double)dVar128;
        uVar130 = &uVar116[(long)uVar117];
        dVar131 = *uVar130;
        dVar132 = (double)dVar129 - (double)dVar131;
        dVar133 = 0.7 * (double)dVar132;
        dVar134 = (double)dVar120 - (double)dVar133;
        (*uVar118) = (double)dVar134;
        uVar135 = (long)uVar117 + 1;
        uVar136 = (long)uVar135 < 63;
        uVar117 = (long)uVar135;
      } while ((long)uVar136);
      uVar137 = (long)uVar109 + 1;
      uVar138 = (long)uVar137 <= (long)uVar107;
      uVar109 = (long)uVar137;
    } while ((long)uVar138);
  }
  __kmpc_for_static_fini((long)uVar105);
}
