double A[220][220];
double B[220][220];
double x[220];
double y[220];
double tmp[220];

void init() {
  __kmpc_fork_call(0, &init_parallel_region);
}

void kernel_gesummv() {
  __kmpc_fork_call(0, &kernel_gesummv_parallel_region);
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
  double[220]* uVar10;
  double[220]* uVar11;
  long uVar12;
  double* uVar13;
  long uVar14;
  long uVar15;
  long uVar16;
  double dVar17;
  double* uVar18;
  long uVar19;
  long uVar20;
  long uVar21;
  double dVar22;
  long uVar23;
  int uVar24;
  long uVar25;
  int uVar26;
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
      uVar6 = &x[(long)uVar5];
      uVar7 = (long)uVar5 % 9;
      dVar8 = (double)(long)uVar7;
      dVar9 = (double)dVar8 * 0.5;
      (*uVar6) = (double)dVar9;
      uVar10 = &A[(long)uVar5];
      uVar11 = &B[(long)uVar5];
      uVar12 = 0;
      do {
        uVar13 = &uVar10[(long)uVar12];
        uVar14 = (long)uVar5 * (long)uVar12;
        uVar15 = (long)uVar14 + 2;
        uVar16 = (long)uVar15 % 7;
        dVar17 = (double)(long)uVar16;
        (*uVar13) = (double)dVar17;
        uVar18 = &uVar11[(long)uVar12];
        uVar19 = (long)uVar12 * 2;
        uVar20 = (long)uVar5 + (long)uVar19;
        uVar21 = (long)uVar20 % 5;
        dVar22 = (double)(long)uVar21;
        (*uVar18) = (double)dVar22;
        uVar23 = (long)uVar12 + 1;
        uVar24 = (long)uVar23 < 220;
        uVar12 = (long)uVar23;
      } while ((long)uVar24);
      uVar25 = (long)uVar5 + 1;
      uVar26 = (long)uVar25 <= (long)uVar3;
      uVar5 = (long)uVar25;
    } while ((long)uVar26);
  }
  __kmpc_for_static_fini((long)uVar1);
}

void kernel_gesummv_parallel_region(long* param_3, long* param_4) {
  long uVar27;
  long local_38;
  long local_40;
  long local_48;
  long local_50;
  long uVar28;
  long uVar29;
  int uVar30;
  long uVar31;
  double* uVar32;
  double* uVar33;
  double* uVar34;
  double[220]* uVar35;
  double* uVar36;
  double* uVar37;
  double[220]* uVar38;
  double* uVar39;
  long uVar40;
  double* uVar41;
  double dVar42;
  double* uVar43;
  double dVar44;
  double dVar45;
  double dVar46;
  double dVar47;
  double* uVar48;
  double dVar49;
  double* uVar50;
  double dVar51;
  double dVar52;
  double dVar53;
  double dVar54;
  long uVar55;
  int uVar56;
  double* uVar57;
  double* uVar58;
  double dVar59;
  double dVar60;
  double* uVar61;
  double dVar62;
  double dVar63;
  double dVar64;
  long uVar65;
  int uVar66;
  uVar27 = *param_3;
  local_38 = 0;
  local_40 = 219;
  __kmpc_for_static_init_8((long)uVar27, 34, &local_50, &local_38, &local_40, &local_48, 1, 1);
  uVar28 = local_38;
  uVar29 = local_40;
  uVar30 = (long)uVar28 <= (long)uVar29;
  if ((long)uVar30) {
    uVar31 = (long)uVar28;
    do {
      uVar32 = &tmp[(long)uVar31];
      (*uVar32) = 0.0;
      uVar33 = &y[(long)uVar31];
      (*uVar33) = 0.0;
      uVar34 = &tmp[(long)uVar31];
      uVar35 = &A[(long)uVar31];
      uVar36 = &tmp[(long)uVar31];
      uVar37 = &y[(long)uVar31];
      uVar38 = &B[(long)uVar31];
      uVar39 = &y[(long)uVar31];
      uVar40 = 0;
      do {
        uVar41 = &uVar35[(long)uVar40];
        dVar42 = *uVar41;
        uVar43 = &x[(long)uVar40];
        dVar44 = *uVar43;
        dVar45 = (double)dVar42 * (double)dVar44;
        dVar46 = *uVar36;
        dVar47 = (double)dVar45 + (double)dVar46;
        (*uVar34) = (double)dVar47;
        uVar48 = &uVar38[(long)uVar40];
        dVar49 = *uVar48;
        uVar50 = &x[(long)uVar40];
        dVar51 = *uVar50;
        dVar52 = (double)dVar49 * (double)dVar51;
        dVar53 = *uVar39;
        dVar54 = (double)dVar52 + (double)dVar53;
        (*uVar37) = (double)dVar54;
        uVar55 = (long)uVar40 + 1;
        uVar56 = (long)uVar55 < 220;
        uVar40 = (long)uVar55;
      } while ((long)uVar56);
      uVar57 = &y[(long)uVar31];
      uVar58 = &tmp[(long)uVar31];
      dVar59 = *uVar58;
      dVar60 = 1.2 * (double)dVar59;
      uVar61 = &y[(long)uVar31];
      dVar62 = *uVar61;
      dVar63 = 1.5 * (double)dVar62;
      dVar64 = (double)dVar60 + (double)dVar63;
      (*uVar57) = (double)dVar64;
      uVar65 = (long)uVar31 + 1;
      uVar66 = (long)uVar65 <= (long)uVar29;
      uVar31 = (long)uVar65;
    } while ((long)uVar66);
  }
  __kmpc_for_static_fini((long)uVar27);
}
