double A[44][44];
double B[44][44];
double C[44][44];

void init() {
  __kmpc_fork_call(0, &init_parallel_region);
}

void kernel_syr2k() {
  __kmpc_fork_call(0, &kernel_syr2k_parallel_region);
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
  double[44]* uVar6;
  double[44]* uVar7;
  double[44]* uVar8;
  long uVar9;
  long uVar10;
  double* uVar11;
  long uVar12;
  long uVar13;
  long uVar14;
  double dVar15;
  double* uVar16;
  long uVar17;
  long uVar18;
  long uVar19;
  double dVar20;
  double* uVar21;
  long uVar22;
  long uVar23;
  double dVar24;
  long uVar25;
  int uVar26;
  long uVar27;
  int uVar28;
  uVar1 = *param_1;
  local_18 = 0;
  local_20 = 43;
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
      uVar9 = 3 * (long)uVar5;
      uVar10 = 0;
      do {
        uVar11 = &uVar6[(long)uVar10];
        uVar12 = (long)uVar5 * (long)uVar10;
        uVar13 = (long)uVar12 + 1;
        uVar14 = (long)uVar13 % 9;
        dVar15 = (double)(long)uVar14;
        (*uVar11) = (double)dVar15;
        uVar16 = &uVar7[(long)uVar10];
        uVar17 = 2 * (long)uVar10;
        uVar18 = (long)uVar5 + (long)uVar17;
        uVar19 = (long)uVar18 % 7;
        dVar20 = (double)(long)uVar19;
        (*uVar16) = (double)dVar20;
        uVar21 = &uVar8[(long)uVar10];
        uVar22 = (long)uVar9 + (long)uVar10;
        uVar23 = (long)uVar22 % 5;
        dVar24 = (double)(long)uVar23;
        (*uVar21) = (double)dVar24;
        uVar25 = (long)uVar10 + 1;
        uVar26 = (long)uVar25 < 44;
        uVar10 = (long)uVar25;
      } while ((long)uVar26);
      uVar27 = (long)uVar5 + 1;
      uVar28 = (long)uVar27 <= (long)uVar3;
      uVar5 = (long)uVar27;
    } while ((long)uVar28);
  }
  __kmpc_for_static_fini((long)uVar1);
}

void kernel_syr2k_parallel_region(long* param_3, long* param_4) {
  long uVar29;
  long local_38;
  long local_40;
  long local_48;
  long local_50;
  long uVar30;
  long uVar31;
  int uVar32;
  long uVar33;
  double[44]* uVar34;
  double[44]* uVar35;
  double[44]* uVar36;
  double[44]* uVar37;
  double[44]* uVar38;
  double[44]* uVar39;
  long uVar40;
  double* uVar41;
  double* uVar42;
  double dVar43;
  double dVar44;
  double* uVar45;
  double* uVar46;
  double[44]* uVar47;
  double[44]* uVar48;
  long uVar49;
  double dVar50;
  double* uVar51;
  double dVar52;
  double* uVar53;
  double dVar54;
  double dVar55;
  double dVar56;
  double* uVar57;
  double dVar58;
  double* uVar59;
  double dVar60;
  double dVar61;
  double dVar62;
  long uVar63;
  int uVar64;
  long uVar65;
  int uVar66;
  long uVar67;
  int uVar68;
  uVar29 = *param_3;
  local_38 = 0;
  local_40 = 43;
  __kmpc_for_static_init_8((long)uVar29, 34, &local_50, &local_38, &local_40, &local_48, 1, 1);
  uVar30 = local_38;
  uVar31 = local_40;
  uVar32 = (long)uVar30 <= (long)uVar31;
  if ((long)uVar32) {
    uVar33 = (long)uVar30;
    do {
      uVar34 = &C[(long)uVar33];
      uVar35 = &C[(long)uVar33];
      uVar36 = &C[(long)uVar33];
      uVar37 = &C[(long)uVar33];
      uVar38 = &A[(long)uVar33];
      uVar39 = &B[(long)uVar33];
      uVar40 = 0;
      do {
        uVar41 = &uVar34[(long)uVar40];
        uVar42 = &uVar35[(long)uVar40];
        dVar43 = *uVar42;
        dVar44 = (double)dVar43 * 0.4;
        (*uVar41) = (double)dVar44;
        uVar45 = &uVar36[(long)uVar40];
        uVar46 = &uVar37[(long)uVar40];
        uVar47 = &B[(long)uVar40];
        uVar48 = &A[(long)uVar40];
        uVar49 = 0;
        do {
          dVar50 = *uVar46;
          uVar51 = &uVar38[(long)uVar49];
          dVar52 = *uVar51;
          uVar53 = &uVar47[(long)uVar49];
          dVar54 = *uVar53;
          dVar55 = (double)dVar52 * (double)dVar54;
          dVar56 = (double)dVar50 + (double)dVar55;
          uVar57 = &uVar39[(long)uVar49];
          dVar58 = *uVar57;
          uVar59 = &uVar48[(long)uVar49];
          dVar60 = *uVar59;
          dVar61 = (double)dVar58 * (double)dVar60;
          dVar62 = (double)dVar56 + (double)dVar61;
          (*uVar45) = (double)dVar62;
          uVar63 = (long)uVar49 + 1;
          uVar64 = (long)uVar63 < 44;
          uVar49 = (long)uVar63;
        } while ((long)uVar64);
        uVar65 = (long)uVar40 + 1;
        uVar66 = (long)uVar65 < 44;
        uVar40 = (long)uVar65;
      } while ((long)uVar66);
      uVar67 = (long)uVar33 + 1;
      uVar68 = (long)uVar67 <= (long)uVar31;
      uVar33 = (long)uVar67;
    } while ((long)uVar68);
  }
  __kmpc_for_static_fini((long)uVar29);
}
