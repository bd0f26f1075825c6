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

void init_parallel_region(long* param_1, long* param_2) {
  long uVar1;
  long local_18;
  long local_20;
  long local_28;
  long local_30;
  long uVar2;
  long uVar3;
  int uVar4;
  long uVar5;
  double* uVar6;
  long uVar7;
  double dVar8;
  double* uVar9;
  long uVar10;
  long uVar11;
  double dVar12;
  double* uVar13;
  long uVar14;
  long uVar15;
  double dVar16;
  double* uVar17;
  long uVar18;
  long uVar19;
  double dVar20;
  double* uVar21;
  long uVar22;
  double dVar23;
  double dVar24;
  double* uVar25;
  long uVar26;
  double dVar27;
  double dVar28;
  double* uVar29;
  double* uVar30;
  double[200]* uVar31;
  long uVar32;
  double* uVar33;
  long uVar34;
  long uVar35;
  long uVar36;
  double dVar37;
  long uVar38;
  int uVar39;
  long uVar40;
  int uVar41;
  uVar1 = *param_1;
  local_18 = 0;
  local_20 = 199;
  __kmpc_for_static_init_8((long)uVar1, 34, &local_30, &local_18, &local_20, &local_28, 1, 1);
  uVar2 = local_18;
  uVar3 = local_20;
  uVar4 = (long)uVar2 <= (long)uVar3;
  if ((long)uVar4) {
    uVar5 = (long)uVar2;
    do {
      uVar6 = &u1[(long)uVar5];
      uVar7 = (long)uVar5 % 7;
      dVar8 = (double)(long)uVar7;
      (*uVar6) = (double)dVar8;
      uVar9 = &u2[(long)uVar5];
      uVar10 = (long)uVar5 + 1;
      uVar11 = (long)uVar10 % 5;
      dVar12 = (double)(long)uVar11;
      (*uVar9) = (double)dVar12;
      uVar13 = &v1[(long)uVar5];
      uVar14 = (long)uVar5 + 2;
      uVar15 = (long)uVar14 % 9;
      dVar16 = (double)(long)uVar15;
      (*uVar13) = (double)dVar16;
      uVar17 = &v2[(long)uVar5];
      uVar18 = (long)uVar5 + 3;
      uVar19 = (long)uVar18 % 3;
      dVar20 = (double)(long)uVar19;
      (*uVar17) = (double)dVar20;
      uVar21 = &y[(long)uVar5];
      uVar22 = (long)uVar5 % 11;
      dVar23 = (double)(long)uVar22;
      dVar24 = (double)dVar23 * 0.5;
      (*uVar21) = (double)dVar24;
      uVar25 = &z[(long)uVar5];
      uVar26 = (long)uVar5 % 13;
      dVar27 = (double)(long)uVar26;
      dVar28 = (double)dVar27 * 0.25;
      (*uVar25) = (double)dVar28;
      uVar29 = &x[(long)uVar5];
      (*uVar29) = 0.0;
      uVar30 = &w[(long)uVar5];
      (*uVar30) = 0.0;
      uVar31 = &A[(long)uVar5];
      uVar32 = 0;
      do {
        uVar33 = &uVar31[(long)uVar32];
        uVar34 = (long)uVar5 * (long)uVar32;
        uVar35 = (long)uVar34 + 1;
        uVar36 = (long)uVar35 % 7;
        dVar37 = (double)(long)uVar36;
        (*uVar33) = (double)dVar37;
        uVar38 = (long)uVar32 + 1;
        uVar39 = (long)uVar38 < 200;
        uVar32 = (long)uVar38;
      } while ((long)uVar39);
      uVar40 = (long)uVar5 + 1;
      uVar41 = (long)uVar40 <= (long)uVar3;
      uVar5 = (long)uVar40;
    } while ((long)uVar41);
  }
  __kmpc_for_static_fini((long)uVar1);
}

void kernel_gemver_parallel_region(long* param_3, long* param_4) {
  long uVar42;
  long local_38;
  long local_40;
  long local_48;
  long local_50;
  long uVar43;
  long uVar44;
  int uVar45;
  long uVar46;
  double[200]* uVar47;
  double[200]* uVar48;
  double* uVar49;
  double* uVar50;
  long uVar51;
  double* uVar52;
  double* uVar53;
  double dVar54;
  double dVar55;
  double* uVar56;
  double dVar57;
  double dVar58;
  double dVar59;
  double dVar60;
  double* uVar61;
  double dVar62;
  double dVar63;
  double dVar64;
  long uVar65;
  int uVar66;
  long uVar67;
  int uVar68;
  uVar42 = *param_3;
  local_38 = 0;
  local_40 = 199;
  __kmpc_for_static_init_8((long)uVar42, 34, &local_50, &local_38, &local_40, &local_48, 1, 1);
  uVar43 = local_38;
  uVar44 = local_40;
  uVar45 = (long)uVar43 <= (long)uVar44;
  if ((long)uVar45) {
    uVar46 = (long)uVar43;
    do {
      uVar47 = &A[(long)uVar46];
      uVar48 = &A[(long)uVar46];
      uVar49 = &u1[(long)uVar46];
      uVar50 = &u2[(long)uVar46];
      uVar51 = 0;
      do {
        uVar52 = &uVar47[(long)uVar51];
        uVar53 = &uVar48[(long)uVar51];
        dVar54 = *uVar53;
        dVar55 = *uVar49;
        uVar56 = &v1[(long)uVar51];
        dVar57 = *uVar56;
        dVar58 = (double)dVar55 * (double)dVar57;
        dVar59 = (double)dVar54 + (double)dVar58;
        dVar60 = *uVar50;
        uVar61 = &v2[(long)uVar51];
        dVar62 = *uVar61;
        dVar63 = (double)dVar60 * (double)dVar62;
        dVar64 = (double)dVar59 + (double)dVar63;
        (*uVar52) = (double)dVar64;
        uVar65 = (long)uVar51 + 1;
        uVar66 = (long)uVar65 < 200;
        uVar51 = (long)uVar65;
      } while ((long)uVar66);
      uVar67 = (long)uVar46 + 1;
      uVar68 = (long)uVar67 <= (long)uVar44;
      uVar46 = (long)uVar67;
    } while ((long)uVar68);
  }
  __kmpc_for_static_fini((long)uVar42);
}

void kernel_gemver_parallel_region_1(long* param_5, long* param_6) {
  long uVar69;
  long local_58;
  long local_60;
  long local_68;
  long local_70;
  long uVar70;
  long uVar71;
  int uVar72;
  long uVar73;
  double* uVar74;
  double* uVar75;
  long uVar76;
  double dVar77;
  double[200]* uVar78;
  double* uVar79;
  double dVar80;
  double dVar81;
  double* uVar82;
  double dVar83;
  double dVar84;
  double dVar85;
  long uVar86;
  int uVar87;
  long uVar88;
  int uVar89;
  uVar69 = *param_5;
  local_58 = 0;
  local_60 = 199;
  __kmpc_for_static_init_8((long)uVar69, 34, &local_70, &local_58, &local_60, &local_68, 1, 1);
  uVar70 = local_58;
  uVar71 = local_60;
  uVar72 = (long)uVar70 <= (long)uVar71;
  if ((long)uVar72) {
    uVar73 = (long)uVar70;
    do {
      uVar74 = &x[(long)uVar73];
      uVar75 = &x[(long)uVar73];
      uVar76 = 0;
      do {
        dVar77 = *uVar75;
        uVar78 = &A[(long)uVar76];
        uVar79 = &uVar78[(long)uVar73];
        dVar80 = *uVar79;
        dVar81 = 0.75 * (double)dVar80;
        uVar82 = &y[(long)uVar76];
        dVar83 = *uVar82;
        dVar84 = (double)dVar81 * (double)dVar83;
        dVar85 = (double)dVar77 + (double)dVar84;
        (*uVar74) = (double)dVar85;
        uVar86 = (long)uVar76 + 1;
        uVar87 = (long)uVar86 < 200;
        uVar76 = (long)uVar86;
      } while ((long)uVar87);
      uVar88 = (long)uVar73 + 1;
      uVar89 = (long)uVar88 <= (long)uVar71;
      uVar73 = (long)uVar88;
    } while ((long)uVar89);
  }
  __kmpc_for_static_fini((long)uVar69);
}

void kernel_gemver_parallel_region_2(long* param_7, long* param_8) {
  long uVar90;
  long local_78;
  long local_80;
  long local_88;
  long local_90;
  long uVar91;
  long uVar92;
  int uVar93;
  long uVar94;
  double* uVar95;
  double* uVar96;
  double dVar97;
  double* uVar98;
  double dVar99;
  double dVar100;
  long uVar101;
  int uVar102;
  uVar90 = *param_7;
  local_78 = 0;
  local_80 = 199;
  __kmpc_for_static_init_8((long)uVar90, 34, &local_90, &local_78, &local_80, &local_88, 1, 1);
  uVar91 = local_78;
  uVar92 = local_80;
  uVar93 = (long)uVar91 <= (long)uVar92;
  if ((long)uVar93) {
    uVar94 = (long)uVar91;
    do {
      uVar95 = &x[(long)uVar94];
      uVar96 = &x[(long)uVar94];
      dVar97 = *uVar96;
      uVar98 = &z[(long)uVar94];
      dVar99 = *uVar98;
      dVar100 = (double)dVar97 + (double)dVar99;
      (*uVar95) = (double)dVar100;
      uVar101 = (long)uVar94 + 1;
      uVar102 = (long)uVar101 <= (long)uVar92;
      uVar94 = (long)uVar101;
    } while ((long)uVar102);
  }
  __kmpc_for_static_fini((long)uVar90);
}

void kernel_gemver_parallel_region_3(long* param_9, long* param_10) {
  long uVar103;
  long local_98;
  long local_a0;
  long local_a8;
  long local_b0;
  long uVar104;
  long uVar105;
  int uVar106;
  long uVar107;
  double* uVar108;
  double* uVar109;
  double[200]* uVar110;
  long uVar111;
  double dVar112;
  double* uVar113;
  double dVar114;
  double dVar115;
  double* uVar116;
  double dVar117;
  double dVar118;
  double dVar119;
  long uVar120;
  int uVar121;
  long uVar122;
  int uVar123;
  uVar103 = *param_9;
  local_98 = 0;
  local_a0 = 199;
  __kmpc_for_static_init_8((long)uVar103, 34, &local_b0, &local_98, &local_a0, &local_a8, 1, 1);
  uVar104 = local_98;
  uVar105 = local_a0;
  uVar106 = (long)uVar104 <= (long)uVar105;
  if ((long)uVar106) {
    uVar107 = (long)uVar104;
    do {
      uVar108 = &w[(long)uVar107];
      uVar109 = &w[(long)uVar107];
      uVar110 = &A[(long)uVar107];
      uVar111 = 0;
      do {
        dVar112 = *uVar109;
        uVar113 = &uVar110[(long)uVar111];
        dVar114 = *uVar113;
        dVar115 = 1.25 * (double)dVar114;
        uVar116 = &x[(long)uVar111];
        dVar117 = *uVar116;
        dVar118 = (double)dVar115 * (double)dVar117;
        dVar119 = (double)dVar112 + (double)dVar118;
        (*uVar108) = (double)dVar119;
        uVar120 = (long)uVar111 + 1;
        uVar121 = (long)uVar120 < 200;
        uVar111 = (long)uVar120;
      } while ((long)uVar121);
      uVar122 = (long)uVar107 + 1;
      uVar123 = (long)uVar122 <= (long)uVar105;
      uVar107 = (long)uVar122;
    } while ((long)uVar123);
  }
  __kmpc_for_static_fini((long)uVar103);
}
