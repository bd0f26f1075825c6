double A[220][220];
double x[220];
double y[220];
double tmp[220];

void init() {
  __kmpc_fork_call(0, &init_parallel_region);
}

void kernel_atax() {
  long uVar1;
  double[220]* uVar2;
  double* uVar3;
  long uVar4;
  int uVar5;
  __kmpc_fork_call(0, &kernel_atax_parallel_region);
  uVar1 = 0;
  do {
    uVar2 = &A[(long)uVar1];
    uVar3 = &tmp[(long)uVar1];
    __kmpc_fork_call(2, &kernel_atax_parallel_region_1, uVar3, uVar2);
    uVar4 = (long)uVar1 + 1;
    uVar5 = (long)uVar4 < 220;
    uVar1 = (long)uVar4;
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
  long uVar12;
  double dVar13;
  double dVar14;
  double* uVar15;
  double* uVar16;
  double[220]* uVar17;
  long uVar18;
  double* uVar19;
  long uVar20;
  long uVar21;
  long uVar22;
  double dVar23;
  long uVar24;
  int uVar25;
  long uVar26;
  int uVar27;
  uVar6 = *param_1;
  local_18 = 0;
  local_20 = 219;
  __kmpc_for_static_init_8((long)uVar6, 34, &local_30, &local_18, &local_20, &local_28, 1, 1);
  uVar7 = local_18;
  uVar8 = local_20;
  uVar9 = (long)uVar7 <= (long)uVar8;
  if ((long)uVar9) {
    uVar10 = (long)uVar7;
    do {
      uVar11 = &x[(long)uVar10];
      uVar12 = (long)uVar10 % 11;
      dVar13 = (double)(long)uVar12;
      dVar14 = 1.0 + (double)dVar13;
      (*uVar11) = (double)dVar14;
      uVar15 = &y[(long)uVar10];
      (*uVar15) = 0.0;
      uVar16 = &tmp[(long)uVar10];
      (*uVar16) = 0.0;
      uVar17 = &A[(long)uVar10];
      uVar18 = 0;
      do {
        uVar19 = &uVar17[(long)uVar18];
        uVar20 = (long)uVar18 * 3;
        uVar21 = (long)uVar10 + (long)uVar20;
        uVar22 = (long)uVar21 % 13;
        dVar23 = (double)(long)uVar22;
        (*uVar19) = (double)dVar23;
        uVar24 = (long)uVar18 + 1;
        uVar25 = (long)uVar24 < 220;
        uVar18 = (long)uVar24;
      } while ((long)uVar25);
      uVar26 = (long)uVar10 + 1;
      uVar27 = (long)uVar26 <= (long)uVar8;
      uVar10 = (long)uVar26;
    } while ((long)uVar27);
  }
  __kmpc_for_static_fini((long)uVar6);
}

void kernel_atax_parallel_region(long* param_3, long* param_4) {
  long uVar28;
  long local_38;
  long local_40;
  long local_48;
  long local_50;
  long uVar29;
  long uVar30;
  int uVar31;
  long uVar32;
  double* uVar33;
  double* uVar34;
  double* uVar35;
  double[220]* uVar36;
  long uVar37;
  double dVar38;
  double* uVar39;
  double dVar40;
  double* uVar41;
  double dVar42;
  double dVar43;
  double dVar44;
  long uVar45;
  int uVar46;
  long uVar47;
  int uVar48;
  uVar28 = *param_3;
  local_38 = 0;
  local_40 = 219;
  __kmpc_for_static_init_8((long)uVar28, 34, &local_50, &local_38, &local_40, &local_48, 1, 1);
  uVar29 = local_38;
  uVar30 = local_40;
  uVar31 = (long)uVar29 <= (long)uVar30;
  if ((long)uVar31) {
    uVar32 = (long)uVar29;
    do {
      uVar33 = &tmp[(long)uVar32];
      (*uVar33) = 0.0;
      uVar34 = &tmp[(long)uVar32];
      uVar35 = &tmp[(long)uVar32];
      uVar36 = &A[(long)uVar32];
      uVar37 = 0;
      do {
        dVar38 = *uVar35;
        uVar39 = &uVar36[(long)uVar37];
        dVar40 = *uVar39;
        uVar41 = &x[(long)uVar37];
        dVar42 = *uVar41;
        dVar43 = (double)dVar40 * (double)dVar42;
        dVar44 = (double)dVar38 + (double)dVar43;
        (*uVar34) = (double)dVar44;
        uVar45 = (long)uVar37 + 1;
        uVar46 = (long)uVar45 < 220;
        uVar37 = (long)uVar45;
      } while ((long)uVar46);
      uVar47 = (long)uVar32 + 1;
      uVar48 = (long)uVar47 <= (long)uVar30;
      uVar32 = (long)uVar47;
    } while ((long)uVar48);
  }
  __kmpc_for_static_fini((long)uVar28);
}

void kernel_atax_parallel_region_1(long* param_5, long* param_8, double* param_7, double[220]* param_6) {
  long uVar49;
  long local_58;
  long local_60;
  long local_68;
  long local_70;
  long uVar50;
  long uVar51;
  int uVar52;
  long uVar53;
  double* uVar54;
  double* uVar55;
  double dVar56;
  double* uVar57;
  double dVar58;
  double dVar59;
  double dVar60;
  double dVar61;
  long uVar62;
  int uVar63;
  uVar49 = *param_5;
  local_58 = 0;
  local_60 = 219;
  __kmpc_for_static_init_8((long)uVar49, 34, &local_70, &local_58, &local_60, &local_68, 1, 1);
  uVar50 = local_58;
  uVar51 = local_60;
  uVar52 = (long)uVar50 <= (long)uVar51;
  if ((long)uVar52) {
    uVar53 = (long)uVar50;
    do {
      uVar54 = &y[(long)uVar53];
      uVar55 = &y[(long)uVar53];
      dVar56 = *uVar55;
      uVar57 = &param_6[(long)uVar53];
      dVar58 = *uVar57;
      dVar59 = *param_7;
      dVar60 = (double)dVar58 * (double)dVar59;
      dVar61 = (double)dVar56 + (double)dVar60;
      (*uVar54) = (double)dVar61;
      uVar62 = (long)uVar53 + 1;
      uVar63 = (long)uVar62 <= (long)uVar51;
      uVar53 = (long)uVar62;
    } while ((long)uVar63);
  }
  __kmpc_for_static_fini((long)uVar49);
}
