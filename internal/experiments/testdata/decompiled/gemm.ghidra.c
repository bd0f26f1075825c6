double A[48][48];
double B[48][48];
double C[48][48];

void init() {
  __kmpc_fork_call(0, &init_parallel_region);
}

void kernel_gemm() {
  __kmpc_fork_call(0, &kernel_gemm_parallel_region);
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
  double[48]* uVar6;
  double[48]* uVar7;
  double[48]* uVar8;
  long uVar9;
  double* uVar10;
  long uVar11;
  long uVar12;
  long uVar13;
  double dVar14;
  double* uVar15;
  long uVar16;
  long uVar17;
  long uVar18;
  double dVar19;
  double* uVar20;
  long uVar21;
  long uVar22;
  double dVar23;
  long uVar24;
  int uVar25;
  long uVar26;
  int uVar27;
  uVar1 = *param_1;
  local_18 = 0;
  local_20 = 47;
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
      uVar9 = 0;
      do {
        uVar10 = &uVar6[(long)uVar9];
        uVar11 = (long)uVar5 * (long)uVar9;
        uVar12 = (long)uVar11 + 1;
        uVar13 = (long)uVar12 % 7;
        dVar14 = (double)(long)uVar13;
        (*uVar10) = (double)dVar14;
        uVar15 = &uVar7[(long)uVar9];
        uVar16 = (long)uVar9 * 2;
        uVar17 = (long)uVar5 + (long)uVar16;
        uVar18 = (long)uVar17 % 5;
        dVar19 = (double)(long)uVar18;
        (*uVar15) = (double)dVar19;
        uVar20 = &uVar8[(long)uVar9];
        uVar21 = (long)uVar5 - (long)uVar9;
        uVar22 = (long)uVar21 % 3;
        dVar23 = (double)(long)uVar22;
        (*uVar20) = (double)dVar23;
        uVar24 = (long)uVar9 + 1;
        uVar25 = (long)uVar24 < 48;
        uVar9 = (long)uVar24;
      } while ((long)uVar25);
      uVar26 = (long)uVar5 + 1;
      uVar27 = (long)uVar26 <= (long)uVar3;
      uVar5 = (long)uVar26;
    } while ((long)uVar27);
  }
  __kmpc_for_static_fini((long)uVar1);
}

void kernel_gemm_parallel_region(long* param_3, long* param_4) {
  long uVar28;
  long local_38;
  long local_40;
  long local_48;
  long local_50;
  long uVar29;
  long uVar30;
  int uVar31;
  long uVar32;
  double[48]* uVar33;
  double[48]* uVar34;
  double[48]* uVar35;
  double[48]* uVar36;
  double[48]* uVar37;
  long uVar38;
  double* uVar39;
  double* uVar40;
  double dVar41;
  double dVar42;
  double* uVar43;
  double* uVar44;
  long uVar45;
  double dVar46;
  double* uVar47;
  double dVar48;
  double dVar49;
  double[48]* uVar50;
  double* uVar51;
  double dVar52;
  double dVar53;
  double dVar54;
  long uVar55;
  int uVar56;
  long uVar57;
  int uVar58;
  long uVar59;
  int uVar60;
  uVar28 = *param_3;
  local_38 = 0;
  local_40 = 47;
  __kmpc_for_static_init_8((long)uVar28, 34, &local_50, &local_38, &local_40, &local_48, 1, 1);
  uVar29 = local_38;
  uVar30 = local_40;
  uVar31 = (long)uVar29 <= (long)uVar30;
  if ((long)uVar31) {
    uVar32 = (long)uVar29;
    do {
      uVar33 = &C[(long)uVar32];
      uVar34 = &C[(long)uVar32];
      uVar35 = &C[(long)uVar32];
      uVar36 = &C[(long)uVar32];
      uVar37 = &A[(long)uVar32];
      uVar38 = 0;
      do {
        uVar39 = &uVar33[(long)uVar38];
        uVar40 = &uVar34[(long)uVar38];
        dVar41 = *uVar40;
        dVar42 = (double)dVar41 * 0.5;
        (*uVar39) = (double)dVar42;
        uVar43 = &uVar35[(long)uVar38];
        uVar44 = &uVar36[(long)uVar38];
        uVar45 = 0;
        do {
          dVar46 = *uVar44;
          uVar47 = &uVar37[(long)uVar45];
          dVar48 = *uVar47;
          dVar49 = 1.5 * (double)dVar48;
          uVar50 = &B[(long)uVar45];
          uVar51 = &uVar50[(long)uVar38];
          dVar52 = *uVar51;
          dVar53 = (double)dVar49 * (double)dVar52;
          dVar54 = (double)dVar46 + (double)dVar53;
          (*uVar43) = (double)dVar54;
          uVar55 = (long)uVar45 + 1;
          uVar56 = (long)uVar55 < 48;
          uVar45 = (long)uVar55;
        } while ((long)uVar56);
        uVar57 = (long)uVar38 + 1;
        uVar58 = (long)uVar57 < 48;
        uVar38 = (long)uVar57;
      } while ((long)uVar58);
      uVar59 = (long)uVar32 + 1;
      uVar60 = (long)uVar59 <= (long)uVar30;
      uVar32 = (long)uVar59;
    } while ((long)uVar60);
  }
  __kmpc_for_static_fini((long)uVar28);
}
