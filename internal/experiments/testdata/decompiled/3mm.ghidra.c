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
  double[36]* uVar6;
  double[36]* uVar7;
  double[36]* uVar8;
  long uVar9;
  double[36]* uVar10;
  long uVar11;
  double* uVar12;
  long uVar13;
  long uVar14;
  long uVar15;
  double dVar16;
  double* uVar17;
  long uVar18;
  long uVar19;
  double dVar20;
  double* uVar21;
  long uVar22;
  long uVar23;
  double dVar24;
  double* uVar25;
  long uVar26;
  long uVar27;
  long uVar28;
  double dVar29;
  long uVar30;
  int uVar31;
  long uVar32;
  int uVar33;
  uVar1 = *param_1;
  local_18 = 0;
  local_20 = 35;
  __kmpc_for_static_init_8((long)uVar1, 34, &local_30, &local_18, &local_20, &local_28, 1, 1);
  uVar2 = local_18;
  uVar3 = local_20;
  uVar4 = (long)uVar2 <= (long)uVar3;
  if ((long)uVar4) {
    uVar5 = (long)uVar2;
    do {
      uVar6 = &A[(long)uVar5];
      uVar7 = &B[(long)uVar5];
      uVar8 = &C[(long)uVar5];
      uVar9 = 2 * (long)uVar5;
      uVar10 = &D[(long)uVar5];
      uVar11 = 0;
      do {
        uVar12 = &uVar6[(long)uVar11];
        uVar13 = (long)uVar5 * (long)uVar11;
        uVar14 = (long)uVar13 + 3;
        uVar15 = (long)uVar14 % 11;
        dVar16 = (double)(long)uVar15;
        (*uVar12) = (double)dVar16;
        uVar17 = &uVar7[(long)uVar11];
        uVar18 = (long)uVar5 + (long)uVar11;
        uVar19 = (long)uVar18 % 7;
        dVar20 = (double)(long)uVar19;
        (*uVar17) = (double)dVar20;
        uVar21 = &uVar8[(long)uVar11];
        uVar22 = (long)uVar9 + (long)uVar11;
        uVar23 = (long)uVar22 % 5;
        dVar24 = (double)(long)uVar23;
        (*uVar21) = (double)dVar24;
        uVar25 = &uVar10[(long)uVar11];
        uVar26 = 3 * (long)uVar11;
        uVar27 = (long)uVar5 + (long)uVar26;
        uVar28 = (long)uVar27 % 9;
        dVar29 = (double)(long)uVar28;
        (*uVar25) = (double)dVar29;
        uVar30 = (long)uVar11 + 1;
        uVar31 = (long)uVar30 < 36;
        uVar11 = (long)uVar30;
      } while ((long)uVar31);
      uVar32 = (long)uVar5 + 1;
      uVar33 = (long)uVar32 <= (long)uVar3;
      uVar5 = (long)uVar32;
    } while ((long)uVar33);
  }
  __kmpc_for_static_fini((long)uVar1);
}

void kernel_3mm_parallel_region(long* param_3, long* param_4) {
  long uVar34;
  long local_38;
  long local_40;
  long local_48;
  long local_50;
  long uVar35;
  long uVar36;
  int uVar37;
  long uVar38;
  double[36]* uVar39;
  double[36]* uVar40;
  double[36]* uVar41;
  double[36]* uVar42;
  long uVar43;
  double* uVar44;
  double* uVar45;
  double* uVar46;
  long uVar47;
  double dVar48;
  double* uVar49;
  double dVar50;
  double[36]* uVar51;
  double* uVar52;
  double dVar53;
  double dVar54;
  double dVar55;
  long uVar56;
  int uVar57;
  long uVar58;
  int uVar59;
  long uVar60;
  int uVar61;
  uVar34 = *param_3;
  local_38 = 0;
  local_40 = 35;
  __kmpc_for_static_init_8((long)uVar34, 34, &local_50, &local_38, &local_40, &local_48, 1, 1);
  uVar35 = local_38;
  uVar36 = local_40;
  uVar37 = (long)uVar35 <= (long)uVar36;
  if ((long)uVar37) {
    uVar38 = (long)uVar35;
    do {
      uVar39 = &E[(long)uVar38];
      uVar40 = &E[(long)uVar38];
      uVar41 = &E[(long)uVar38];
      uVar42 = &A[(long)uVar38];
      uVar43 = 0;
      do {
        uVar44 = &uVar39[(long)uVar43];
        (*uVar44) = 0.0;
        uVar45 = &uVar40[(long)uVar43];
        uVar46 = &uVar41[(long)uVar43];
        uVar47 = 0;
        do {
          dVar48 = *uVar46;
          uVar49 = &uVar42[(long)uVar47];
          dVar50 = *uVar49;
          uVar51 = &B[(long)uVar47];
          uVar52 = &uVar51[(long)uVar43];
          dVar53 = *uVar52;
          dVar54 = (double)dVar50 * (double)dVar53;
          dVar55 = (double)dVar48 + (double)dVar54;
          (*uVar45) = (double)dVar55;
          uVar56 = (long)uVar47 + 1;
          uVar57 = (long)uVar56 < 36;
          uVar47 = (long)uVar56;
        } while ((long)uVar57);
        uVar58 = (long)uVar43 + 1;
        uVar59 = (long)uVar58 < 36;
        uVar43 = (long)uVar58;
      } while ((long)uVar59);
      uVar60 = (long)uVar38 + 1;
      uVar61 = (long)uVar60 <= (long)uVar36;
      uVar38 = (long)uVar60;
    } while ((long)uVar61);
  }
  __kmpc_for_static_fini((long)uVar34);
}

void kernel_3mm_parallel_region_1(long* param_5, long* param_6) {
  long uVar62;
  long local_58;
  long local_60;
  long local_68;
  long local_70;
  long uVar63;
  long uVar64;
  int uVar65;
  long uVar66;
  double[36]* uVar67;
  double[36]* uVar68;
  double[36]* uVar69;
  double[36]* uVar70;
  long uVar71;
  double* uVar72;
  double* uVar73;
  double* uVar74;
  long uVar75;
  double dVar76;
  double* uVar77;
  double dVar78;
  double[36]* uVar79;
  double* uVar80;
  double dVar81;
  double dVar82;
  double dVar83;
  long uVar84;
  int uVar85;
  long uVar86;
  int uVar87;
  long uVar88;
  int uVar89;
  uVar62 = *param_5;
  local_58 = 0;
  local_60 = 35;
  __kmpc_for_static_init_8((long)uVar62, 34, &local_70, &local_58, &local_60, &local_68, 1, 1);
  uVar63 = local_58;
  uVar64 = local_60;
  uVar65 = (long)uVar63 <= (long)uVar64;
  if ((long)uVar65) {
    uVar66 = (long)uVar63;
    do {
      uVar67 = &F[(long)uVar66];
      uVar68 = &F[(long)uVar66];
      uVar69 = &F[(long)uVar66];
      uVar70 = &C[(long)uVar66];
      uVar71 = 0;
      do {
        uVar72 = &uVar67[(long)uVar71];
        (*uVar72) = 0.0;
        uVar73 = &uVar68[(long)uVar71];
        uVar74 = &uVar69[(long)uVar71];
        uVar75 = 0;
        do {
          dVar76 = *uVar74;
          uVar77 = &uVar70[(long)uVar75];
          dVar78 = *uVar77;
          uVar79 = &D[(long)uVar75];
          uVar80 = &uVar79[(long)uVar71];
          dVar81 = *uVar80;
          dVar82 = (double)dVar78 * (double)dVar81;
          dVar83 = (double)dVar76 + (double)dVar82;
          (*uVar73) = (double)dVar83;
          uVar84 = (long)uVar75 + 1;
          uVar85 = (long)uVar84 < 36;
          uVar75 = (long)uVar84;
        } while ((long)uVar85);
        uVar86 = (long)uVar71 + 1;
        uVar87 = (long)uVar86 < 36;
        uVar71 = (long)uVar86;
      } while ((long)uVar87);
      uVar88 = (long)uVar66 + 1;
      uVar89 = (long)uVar88 <= (long)uVar64;
      uVar66 = (long)uVar88;
    } while ((long)uVar89);
  }
  __kmpc_for_static_fini((long)uVar62);
}

void kernel_3mm_parallel_region_2(long* param_7, long* param_8) {
  long uVar90;
  long local_78;
  long local_80;
  long local_88;
  long local_90;
  long uVar91;
  long uVar92;
  int uVar93;
  long uVar94;
  double[36]* uVar95;
  double[36]* uVar96;
  double[36]* uVar97;
  double[36]* uVar98;
  long uVar99;
  double* uVar100;
  double* uVar101;
  double* uVar102;
  long uVar103;
  double dVar104;
  double* uVar105;
  double dVar106;
  double[36]* uVar107;
  double* uVar108;
  double dVar109;
  double dVar110;
  double dVar111;
  long uVar112;
  int uVar113;
  long uVar114;
  int uVar115;
  long uVar116;
  int uVar117;
  uVar90 = *param_7;
  local_78 = 0;
  local_80 = 35;
  __kmpc_for_static_init_8((long)uVar90, 34, &local_90, &local_78, &local_80, &local_88, 1, 1);
  uVar91 = local_78;
  uVar92 = local_80;
  uVar93 = (long)uVar91 <= (long)uVar92;
  if ((long)uVar93) {
    uVar94 = (long)uVar91;
    do {
      uVar95 = &G[(long)uVar94];
      uVar96 = &G[(long)uVar94];
      uVar97 = &G[(long)uVar94];
      uVar98 = &E[(long)uVar94];
      uVar99 = 0;
      do {
        uVar100 = &uVar95[(long)uVar99];
        (*uVar100) = 0.0;
        uVar101 = &uVar96[(long)uVar99];
        uVar102 = &uVar97[(long)uVar99];
        uVar103 = 0;
        do {
          dVar104 = *uVar102;
          uVar105 = &uVar98[(long)uVar103];
          dVar106 = *uVar105;
          uVar107 = &F[(long)uVar103];
          uVar108 = &uVar107[(long)uVar99];
          dVar109 = *uVar108;
          dVar110 = (double)dVar106 * (double)dVar109;
          dVar111 = (double)dVar104 + (double)dVar110;
          (*uVar101) = (double)dVar111;
          uVar112 = (long)uVar103 + 1;
          uVar113 = (long)uVar112 < 36;
          uVar103 = (long)uVar112;
        } while ((long)uVar113);
        uVar114 = (long)uVar99 + 1;
        uVar115 = (long)uVar114 < 36;
        uVar99 = (long)uVar114;
      } while ((long)uVar115);
      uVar116 = (long)uVar94 + 1;
      uVar117 = (long)uVar116 <= (long)uVar92;
      uVar94 = (long)uVar116;
    } while ((long)uVar117);
  }
  __kmpc_for_static_fini((long)uVar90);
}
