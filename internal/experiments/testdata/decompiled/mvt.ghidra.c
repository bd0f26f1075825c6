double A[220][220];
double x1[220];
double x2[220];
double y1[220];
double y2[220];

void init() {
  __kmpc_fork_call(0, &init_parallel_region);
}

void kernel_mvt() {
  __kmpc_fork_call(0, &kernel_mvt_parallel_region);
  __kmpc_fork_call(0, &kernel_mvt_parallel_region_1);
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
  double dVar9;
  double* uVar10;
  long uVar11;
  double dVar12;
  double dVar13;
  double* uVar14;
  long uVar15;
  double dVar16;
  double dVar17;
  double* uVar18;
  long uVar19;
  double dVar20;
  double dVar21;
  double[220]* uVar22;
  long uVar23;
  double* uVar24;
  long uVar25;
  long uVar26;
  double dVar27;
  long uVar28;
  int uVar29;
  long uVar30;
  int uVar31;
  uVar1 = *param_1;
  local_18 = 0;
  local_20 = 219;
  __kmpc_for_static_init_8((long)uVar1, 34, &local_30, &local_18, &local_20, &local_28, 1, 1);
  uVar2 = local_18;
  uVar3 = local_20;
  uVar4 = (long)uVar2 <= (long)uVar3;
  if ((long)uVar4) {
    uVar5 = (long)uVar2;
    do {
      uVar6 = &x1[(long)uVar5];
      uVar7 = (long)uVar5 % 9;
      dVar8 = (double)(long)uVar7;
      dVar9 = (double)dVar8 * 0.5;
      (*uVar6) = (double)dVar9;
      uVar10 = &x2[(long)uVar5];
      uVar11 = (long)uVar5 % 7;
      dVar12 = (double)(long)uVar11;
      dVar13 = (double)dVar12 * 0.25;
      (*uVar10) = (double)dVar13;
      uVar14 = &y1[(long)uVar5];
      uVar15 = (long)uVar5 % 5;
      dVar16 = (double)(long)uVar15;
      dVar17 = (double)dVar16 * 1.5;
      (*uVar14) = (double)dVar17;
      uVar18 = &y2[(long)uVar5];
      uVar19 = (long)uVar5 % 3;
      dVar20 = (double)(long)uVar19;
      dVar21 = (double)dVar20 * 2.0;
      (*uVar18) = (double)dVar21;
      uVar22 = &A[(long)uVar5];
      uVar23 = 0;
      do {
        uVar24 = &uVar22[(long)uVar23];
        uVar25 = (long)uVar5 + (long)uVar23;
        uVar26 = (long)uVar25 % 11;
        dVar27 = (double)(long)uVar26;
        (*uVar24) = (double)dVar27;
        uVar28 = (long)uVar23 + 1;
        uVar29 = (long)uVar28 < 220;
        uVar23 = (long)uVar28;
      } while ((long)uVar29);
      uVar30 = (long)uVar5 + 1;
      uVar31 = (long)uVar30 <= (long)uVar3;
      uVar5 = (long)uVar30;
    } while ((long)uVar31);
  }
  __kmpc_for_static_fini((long)uVar1);
}

void kernel_mvt_parallel_region(long* param_3, long* param_4) {
  long uVar32;
  long local_38;
  long local_40;
  long local_48;
  long local_50;
  long uVar33;
  long uVar34;
  int uVar35;
  long uVar36;
  double* uVar37;
  double* uVar38;
  double[220]* uVar39;
  long uVar40;
  double dVar41;
  double* uVar42;
  double dVar43;
  double* uVar44;
  double dVar45;
  double dVar46;
  double dVar47;
  long uVar48;
  int uVar49;
  long uVar50;
  int uVar51;
  uVar32 = *param_3;
  local_38 = 0;
  local_40 = 219;
  __kmpc_for_static_init_8((long)uVar32, 34, &local_50, &local_38, &local_40, &local_48, 1, 1);
  uVar33 = local_38;
  uVar34 = local_40;
  uVar35 = (long)uVar33 <= (long)uVar34;
  if ((long)uVar35) {
    uVar36 = (long)uVar33;
    do {
      uVar37 = &x1[(long)uVar36];
      uVar38 = &x1[(long)uVar36];
      uVar39 = &A[(long)uVar36];
      uVar40 = 0;
      do {
        dVar41 = *uVar38;
        uVar42 = &uVar39[(long)uVar40];
        dVar43 = *uVar42;
        uVar44 = &y1[(long)uVar40];
        dVar45 = *uVar44;
        dVar46 = (double)dVar43 * (double)dVar45;
        dVar47 = (double)dVar41 + (double)dVar46;
        (*uVar37) = (double)dVar47;
        uVar48 = (long)uVar40 + 1;
        uVar49 = (long)uVar48 < 220;
        uVar40 = (long)uVar48;
      } while ((long)uVar49);
      uVar50 = (long)uVar36 + 1;
      uVar51 = (long)uVar50 <= (long)uVar34;
      uVar36 = (long)uVar50;
    } while ((long)uVar51);
  }
  __kmpc_for_static_fini((long)uVar32);
}

void kernel_mvt_parallel_region_1(long* param_5, long* param_6) {
  long uVar52;
  long local_58;
  long local_60;
  long local_68;
  long local_70;
  long uVar53;
  long uVar54;
  int uVar55;
  long uVar56;
  double* uVar57;
  double* uVar58;
  long uVar59;
  double dVar60;
  double[220]* uVar61;
  double* uVar62;
  double dVar63;
  double* uVar64;
  double dVar65;
  double dVar66;
  double dVar67;
  long uVar68;
  int uVar69;
  long uVar70;
  int uVar71;
  uVar52 = *param_5;
  local_58 = 0;
  local_60 = 219;
  __kmpc_for_static_init_8((long)uVar52, 34, &local_70, &local_58, &local_60, &local_68, 1, 1);
  uVar53 = local_58;
  uVar54 = local_60;
  uVar55 = (long)uVar53 <= (long)uVar54;
  if ((long)uVar55) {
    uVar56 = (long)uVar53;
    do {
      uVar57 = &x2[(long)uVar56];
      uVar58 = &x2[(long)uVar56];
      uVar59 = 0;
      do {
        dVar60 = *uVar58;
        uVar61 = &A[(long)uVar59];
        uVar62 = &uVar61[(long)uVar56];
        dVar63 = *uVar62;
        uVar64 = &y2[(long)uVar59];
        dVar65 = *uVar64;
        dVar66 = (double)dVar63 * (double)dVar65;
        dVar67 = (double)dVar60 + (double)dVar66;
        (*uVar57) = (double)dVar67;
        uVar68 = (long)uVar59 + 1;
        uVar69 = (long)uVar68 < 220;
        uVar59 = (long)uVar68;
      } while ((long)uVar69);
      uVar70 = (long)uVar56 + 1;
      uVar71 = (long)uVar70 <= (long)uVar54;
      uVar56 = (long)uVar70;
    } while ((long)uVar71);
  }
  __kmpc_for_static_fini((long)uVar52);
}
