double A[90][90];
double B[90][90];

void init() {
  __kmpc_fork_call(0, &init_parallel_region);
}

void kernel_jacobi_2d() {
  long uVar1;
  long uVar2;
  int uVar3;
  uVar1 = 0;
  do {
    __kmpc_fork_call(0, &kernel_jacobi_2d_parallel_region);
    __kmpc_fork_call(0, &kernel_jacobi_2d_parallel_region_1);
    uVar2 = (long)uVar1 + 1;
    uVar3 = (long)uVar2 < 8;
    uVar1 = (long)uVar2;
  } while ((long)uVar3);
}

void init_parallel_region(long* param_1, long* param_2) {
  long uVar4;
  long local_18;
  long local_20;
  long local_28;
  long local_30;
  long uVar5;
  long uVar6;
  int uVar7;
  long uVar8;
  double[90]* uVar9;
  long uVar10;
  double[90]* uVar11;
  long uVar12;
  double* uVar13;
  long uVar14;
  long uVar15;
  long uVar16;
  double dVar17;
  double* uVar18;
  long uVar19;
  int uVar20;
  long uVar21;
  int uVar22;
  uVar4 = *param_1;
  local_18 = 0;
  local_20 = 89;
  __kmpc_for_static_init_8((long)uVar4, 34, &local_30, &local_18, &local_20, &local_28, 1, 1);
  uVar5 = local_18;
  uVar6 = local_20;
  uVar7 = (long)uVar5 <= (long)uVar6;
  if ((long)uVar7) {
    uVar8 = (long)uVar5;
    do {
      uVar9 = &A[(long)uVar8];
      uVar10 = (long)uVar8 * 31;
      uVar11 = &B[(long)uVar8];
      uVar12 = 0;
      do {
        uVar13 = &uVar9[(long)uVar12];
        uVar14 = (long)uVar12 * 17;
        uVar15 = (long)uVar10 + (long)uVar14;
        uVar16 = (long)uVar15 % 23;
        dVar17 = (double)(long)uVar16;
        (*uVar13) = (double)dVar17;
        uVar18 = &uVar11[(long)uVar12];
        (*uVar18) = 0.0;
        uVar19 = (long)uVar12 + 1;
        uVar20 = (long)uVar19 < 90;
        uVar12 = (long)uVar19;
      } while ((long)uVar20);
      uVar21 = (long)uVar8 + 1;
      uVar22 = (long)uVar21 <= (long)uVar6;
      uVar8 = (long)uVar21;
    } while ((long)uVar22);
  }
  __kmpc_for_static_fini((long)uVar4);
}

void kernel_jacobi_2d_parallel_region(long* param_3, long* param_4) {
  long uVar23;
  long local_38;
  long local_40;
  long local_48;
  long local_50;
  long uVar24;
  long uVar25;
  int uVar26;
  long uVar27;
  double[90]* uVar28;
  double[90]* uVar29;
  double[90]* uVar30;
  double[90]* uVar31;
  long uVar32;
  double[90]* uVar33;
  long uVar34;
  double[90]* uVar35;
  long uVar36;
  double* uVar37;
  double* uVar38;
  double dVar39;
  long uVar40;
  double* uVar41;
  double dVar42;
  double dVar43;
  long uVar44;
  double* uVar45;
  double dVar46;
  double dVar47;
  double* uVar48;
  double dVar49;
  double dVar50;
  double* uVar51;
  double dVar52;
  double dVar53;
  double dVar54;
  long uVar55;
  int uVar56;
  long uVar57;
  int uVar58;
  uVar23 = *param_3;
  local_38 = 1;
  local_40 = 88;
  __kmpc_for_static_init_8((long)uVar23, 34, &local_50, &local_38, &local_40, &local_48, 1, 1);
  uVar24 = local_38;
  uVar25 = local_40;
  uVar26 = (long)uVar24 <= (long)uVar25;
  if ((long)uVar26) {
    uVar27 = (long)uVar24;
    do {
      uVar28 = &B[(long)uVar27];
      uVar29 = &A[(long)uVar27];
      uVar30 = &A[(long)uVar27];
      uVar31 = &A[(long)uVar27];
      uVar32 = (long)uVar27 + 1;
      uVar33 = &A[(long)uVar32];
      uVar34 = (long)uVar27 - 1;
      uVar35 = &A[(long)uVar34];
      uVar36 = 1;
      do {
        uVar37 = &uVar28[(long)uVar36];
        uVar38 = &uVar29[(long)uVar36];
        dVar39 = *uVar38;
        uVar40 = (long)uVar36 - 1;
        uVar41 = &uVar30[(long)uVar40];
        dVar42 = *uVar41;
        dVar43 = (double)dVar39 + (double)dVar42;
        uVar44 = (long)uVar36 + 1;
        uVar45 = &uVar31[(long)uVar44];
        dVar46 = *uVar45;
        dVar47 = (double)dVar43 + (double)dVar46;
        uVar48 = &uVar33[(long)uVar36];
        dVar49 = *uVar48;
        dVar50 = (double)dVar47 + (double)dVar49;
        uVar51 = &uVar35[(long)uVar36];
        dVar52 = *uVar51;
        dVar53 = (double)dVar50 + (double)dVar52;
        dVar54 = 0.2 * (double)dVar53;
        (*uVar37) = (double)dVar54;
        uVar55 = (long)uVar36 + 1;
        uVar56 = (long)uVar55 < 89;
        uVar36 = (long)uVar55;
      } while ((long)uVar56);
      uVar57 = (long)uVar27 + 1;
      uVar58 = (long)uVar57 <= (long)uVar25;
      uVar27 = (long)uVar57;
    } while ((long)uVar58);
  }
  __kmpc_for_static_fini((long)uVar23);
}

void kernel_jacobi_2d_parallel_region_1(long* param_5, long* param_6) {
  long uVar59;
  long local_58;
  long local_60;
  long local_68;
  long local_70;
  long uVar60;
  long uVar61;
  int uVar62;
  long uVar63;
  double[90]* uVar64;
  double[90]* uVar65;
  long uVar66;
  double* uVar67;
  double* uVar68;
  double dVar69;
  long uVar70;
  int uVar71;
  long uVar72;
  int uVar73;
  uVar59 = *param_5;
  local_58 = 1;
  local_60 = 88;
  __kmpc_for_static_init_8((long)uVar59, 34, &local_70, &local_58, &local_60, &local_68, 1, 1);
  uVar60 = local_58;
  uVar61 = local_60;
  uVar62 = (long)uVar60 <= (long)uVar61;
  if ((long)uVar62) {
    uVar63 = (long)uVar60;
    do {
      uVar64 = &A[(long)uVar63];
      uVar65 = &B[(long)uVar63];
      uVar66 = 1;
      do {
        uVar67 = &uVar64[(long)uVar66];
        uVar68 = &uVar65[(long)uVar66];
        dVar69 = *uVar68;
        (*uVar67) = (double)dVar69;
        uVar70 = (long)uVar66 + 1;
        uVar71 = (long)uVar70 < 89;
        uVar66 = (long)uVar70;
      } while ((long)uVar71);
      uVar72 = (long)uVar63 + 1;
      uVar73 = (long)uVar72 <= (long)uVar61;
      uVar63 = (long)uVar72;
    } while ((long)uVar73);
  }
  __kmpc_for_static_fini((long)uVar59);
}
