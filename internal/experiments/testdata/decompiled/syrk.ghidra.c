double A[48][48];
double C[48][48];

void init() {
  __kmpc_fork_call(0, &init_parallel_region);
}

void kernel_syrk() {
  __kmpc_fork_call(0, &kernel_syrk_parallel_region);
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
  long uVar8;
  double* uVar9;
  long uVar10;
  long uVar11;
  long uVar12;
  double dVar13;
  double* uVar14;
  long uVar15;
  long uVar16;
  double dVar17;
  long uVar18;
  int uVar19;
  long uVar20;
  int uVar21;
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
      uVar7 = &C[(long)uVar5];
      uVar8 = 0;
      do {
        uVar9 = &uVar6[(long)uVar8];
        uVar10 = (long)uVar5 * (long)uVar8;
        uVar11 = (long)uVar10 + 2;
        uVar12 = (long)uVar11 % 13;
        dVar13 = (double)(long)uVar12;
        (*uVar9) = (double)dVar13;
        uVar14 = &uVar7[(long)uVar8];
        uVar15 = (long)uVar5 + (long)uVar8;
        uVar16 = (long)uVar15 % 7;
        dVar17 = (double)(long)uVar16;
        (*uVar14) = (double)dVar17;
        uVar18 = (long)uVar8 + 1;
        uVar19 = (long)uVar18 < 48;
        uVar8 = (long)uVar18;
      } while ((long)uVar19);
      uVar20 = (long)uVar5 + 1;
      uVar21 = (long)uVar20 <= (long)uVar3;
      uVar5 = (long)uVar20;
    } while ((long)uVar21);
  }
  __kmpc_for_static_fini((long)uVar1);
}

void kernel_syrk_parallel_region(long* param_3, long* param_4) {
  long uVar22;
  long local_38;
  long local_40;
  long local_48;
  long local_50;
  long uVar23;
  long uVar24;
  int uVar25;
  long uVar26;
  double[48]* uVar27;
  double[48]* uVar28;
  double[48]* uVar29;
  double[48]* uVar30;
  double[48]* uVar31;
  long uVar32;
  double* uVar33;
  double* uVar34;
  double dVar35;
  double dVar36;
  double* uVar37;
  double* uVar38;
  double[48]* uVar39;
  long uVar40;
  double dVar41;
  double* uVar42;
  double dVar43;
  double dVar44;
  double* uVar45;
  double dVar46;
  double dVar47;
  double dVar48;
  long uVar49;
  int uVar50;
  long uVar51;
  int uVar52;
  long uVar53;
  int uVar54;
  uVar22 = *param_3;
  local_38 = 0;
  local_40 = 47;
  __kmpc_for_static_init_8((long)uVar22, 34, &local_50, &local_38, &local_40, &local_48, 1, 1);
  uVar23 = local_38;
  uVar24 = local_40;
  uVar25 = (long)uVar23 <= (long)uVar24;
  if ((long)uVar25) {
    uVar26 = (long)uVar23;
    do {
      uVar27 = &C[(long)uVar26];
      uVar28 = &C[(long)uVar26];
      uVar29 = &C[(long)uVar26];
      uVar30 = &C[(long)uVar26];
      uVar31 = &A[(long)uVar26];
      uVar32 = 0;
      do {
        uVar33 = &uVar27[(long)uVar32];
        uVar34 = &uVar28[(long)uVar32];
        dVar35 = *uVar34;
        dVar36 = (double)dVar35 * 0.3;
        (*uVar33) = (double)dVar36;
        uVar37 = &uVar29[(long)uVar32];
        uVar38 = &uVar30[(long)uVar32];
        uVar39 = &A[(long)uVar32];
        uVar40 = 0;
        do {
          dVar41 = *uVar38;
          uVar42 = &uVar31[(long)uVar40];
          dVar43 = *uVar42;
          dVar44 = 1.1 * (double)dVar43;
          uVar45 = &uVar39[(long)uVar40];
          dVar46 = *uVar45;
          dVar47 = (double)dVar44 * (double)dVar46;
          dVar48 = (double)dVar41 + (double)dVar47;
          (*uVar37) = (double)dVar48;
          uVar49 = (long)uVar40 + 1;
          uVar50 = (long)uVar49 < 48;
          uVar40 = (long)uVar49;
        } while ((long)uVar50);
        uVar51 = (long)uVar32 + 1;
        uVar52 = (long)uVar51 < 48;
        uVar32 = (long)uVar51;
      } while ((long)uVar52);
      uVar53 = (long)uVar26 + 1;
      uVar54 = (long)uVar53 <= (long)uVar24;
      uVar26 = (long)uVar53;
    } while ((long)uVar54);
  }
  __kmpc_for_static_fini((long)uVar22);
}
