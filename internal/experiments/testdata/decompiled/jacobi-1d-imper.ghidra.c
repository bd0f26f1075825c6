double A[4000];
double B[4000];

void init() {
  __kmpc_fork_call(0, &init_parallel_region);
}

void kernel_jacobi_1d() {
  long uVar1;
  long uVar2;
  int uVar3;
  uVar1 = 0;
  do {
    __kmpc_fork_call(0, &kernel_jacobi_1d_parallel_region);
    __kmpc_fork_call(0, &kernel_jacobi_1d_parallel_region_1);
    uVar2 = (long)uVar1 + 1;
    uVar3 = (long)uVar2 < 16;
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
  double* uVar9;
  long uVar10;
  long uVar11;
  double dVar12;
  double dVar13;
  double* uVar14;
  long uVar15;
  int uVar16;
  uVar4 = *param_1;
  local_18 = 0;
  local_20 = 3999;
  __kmpc_for_static_init_8((long)uVar4, 34, &local_30, &local_18, &local_20, &local_28, 1, 1);
  uVar5 = local_18;
  uVar6 = local_20;
  uVar7 = (long)uVar5 <= (long)uVar6;
  if ((long)uVar7) {
    uVar8 = (long)uVar5;
    do {
      uVar9 = &A[(long)uVar8];
      uVar10 = (long)uVar8 * 7;
      uVar11 = (long)uVar10 % 31;
      dVar12 = (double)(long)uVar11;
      dVar13 = (double)dVar12 * 0.5;
      (*uVar9) = (double)dVar13;
      uVar14 = &B[(long)uVar8];
      (*uVar14) = 0.0;
      uVar15 = (long)uVar8 + 1;
      uVar16 = (long)uVar15 <= (long)uVar6;
      uVar8 = (long)uVar15;
    } while ((long)uVar16);
  }
  __kmpc_for_static_fini((long)uVar4);
}

void kernel_jacobi_1d_parallel_region(long* param_3, long* param_4) {
  long uVar17;
  long local_38;
  long local_40;
  long local_48;
  long local_50;
  long uVar18;
  long uVar19;
  int uVar20;
  long uVar21;
  double* uVar22;
  long uVar23;
  double* uVar24;
  double dVar25;
  double* uVar26;
  double dVar27;
  double dVar28;
  long uVar29;
  double* uVar30;
  double dVar31;
  double dVar32;
  double dVar33;
  long uVar34;
  int uVar35;
  uVar17 = *param_3;
  local_38 = 1;
  local_40 = 3998;
  __kmpc_for_static_init_8((long)uVar17, 34, &local_50, &local_38, &local_40, &local_48, 1, 1);
  uVar18 = local_38;
  uVar19 = local_40;
  uVar20 = (long)uVar18 <= (long)uVar19;
  if ((long)uVar20) {
    uVar21 = (long)uVar18;
    do {
      uVar22 = &B[(long)uVar21];
      uVar23 = (long)uVar21 - 1;
      uVar24 = &A[(long)uVar23];
      dVar25 = *uVar24;
      uVar26 = &A[(long)uVar21];
      dVar27 = *uVar26;
      dVar28 = (double)dVar25 + (double)dVar27;
      uVar29 = (long)uVar21 + 1;
      uVar30 = &A[(long)uVar29];
      dVar31 = *uVar30;
      dVar32 = (double)dVar28 + (double)dVar31;
      dVar33 = (double)dVar32 / 3.0;
      (*uVar22) = (double)dVar33;
      uVar34 = (long)uVar21 + 1;
      uVar35 = (long)uVar34 <= (long)uVar19;
      uVar21 = (long)uVar34;
    } while ((long)uVar35);
  }
  __kmpc_for_static_fini((long)uVar17);
}

void kernel_jacobi_1d_parallel_region_1(long* param_5, long* param_6) {
  long uVar36;
  long local_58;
  long local_60;
  long local_68;
  long local_70;
  long uVar37;
  long uVar38;
  int uVar39;
  long uVar40;
  double* uVar41;
  double* uVar42;
  double dVar43;
  long uVar44;
  int uVar45;
  uVar36 = *param_5;
  local_58 = 1;
  local_60 = 3998;
  __kmpc_for_static_init_8((long)uVar36, 34, &local_70, &local_58, &local_60, &local_68, 1, 1);
  uVar37 = local_58;
  uVar38 = local_60;
  uVar39 = (long)uVar37 <= (long)uVar38;
  if ((long)uVar39) {
    uVar40 = (long)uVar37;
    do {
      uVar41 = &A[(long)uVar40];
      uVar42 = &B[(long)uVar40];
      dVar43 = *uVar42;
      (*uVar41) = (double)dVar43;
      uVar44 = (long)uVar40 + 1;
      uVar45 = (long)uVar44 <= (long)uVar38;
      uVar40 = (long)uVar44;
    } while ((long)uVar45);
  }
  __kmpc_for_static_fini((long)uVar36);
}
