double A[220][220];
double s[220];
double q[220];
double p[220];
double r[220];

void init() {
  __kmpc_fork_call(0, &init_parallel_region);
}

void kernel_bicg() {
  long uVar1;
  double* uVar2;
  double* uVar3;
  double[220]* uVar4;
  double* uVar5;
  double* uVar6;
  double[220]* uVar7;
  long uVar8;
  double* uVar9;
  double* uVar10;
  double dVar11;
  double dVar12;
  double* uVar13;
  double dVar14;
  double dVar15;
  double dVar16;
  double dVar17;
  double* uVar18;
  double dVar19;
  double* uVar20;
  double dVar21;
  double dVar22;
  double dVar23;
  long uVar24;
  int uVar25;
  long uVar26;
  int uVar27;
  uVar1 = 0;
  do {
    uVar2 = &q[(long)uVar1];
    (*uVar2) = 0.0;
    uVar3 = &r[(long)uVar1];
    uVar4 = &A[(long)uVar1];
    uVar5 = &q[(long)uVar1];
    uVar6 = &q[(long)uVar1];
    uVar7 = &A[(long)uVar1];
    uVar8 = 0;
    do {
      uVar9 = &s[(long)uVar8];
      uVar10 = &s[(long)uVar8];
      dVar11 = *uVar10;
      dVar12 = *uVar3;
      uVar13 = &uVar4[(long)uVar8];
      dVar14 = *uVar13;
      dVar15 = (double)dVar12 * (double)dVar14;
      dVar16 = (double)dVar11 + (double)dVar15;
      (*uVar9) = (double)dVar16;
      dVar17 = *uVar6;
      uVar18 = &uVar7[(long)uVar8];
      dVar19 = *uVar18;
      uVar20 = &p[(long)uVar8];
      dVar21 = *uVar20;
      dVar22 = (double)dVar19 * (double)dVar21;
      dVar23 = (double)dVar17 + (double)dVar22;
      (*uVar5) = (double)dVar23;
      uVar24 = (long)uVar8 + 1;
      uVar25 = (long)uVar24 < 220;
      uVar8 = (long)uVar24;
    } while ((long)uVar25);
    uVar26 = (long)uVar1 + 1;
    uVar27 = (long)uVar26 < 220;
    uVar1 = (long)uVar26;
  } while ((long)uVar27);
}

void init_parallel_region(long* param_1, long* param_2) {
  long uVar28;
  long local_18;
  long local_20;
  long local_28;
  long local_30;
  long uVar29;
  long uVar30;
  int uVar31;
  long uVar32;
  double* uVar33;
  long uVar34;
  double dVar35;
  double dVar36;
  double* uVar37;
  long uVar38;
  double dVar39;
  double dVar40;
  double* uVar41;
  double* uVar42;
  double[220]* uVar43;
  long uVar44;
  long uVar45;
  double* uVar46;
  long uVar47;
  long uVar48;
  double dVar49;
  long uVar50;
  int uVar51;
  long uVar52;
  int uVar53;
  uVar28 = *param_1;
  local_18 = 0;
  local_20 = 219;
  __kmpc_for_static_init_8((long)uVar28, 34, &local_30, &local_18, &local_20, &local_28, 1, 1);
  uVar29 = local_18;
  uVar30 = local_20;
  uVar31 = (long)uVar29 <= (long)uVar30;
  if ((long)uVar31) {
    uVar32 = (long)uVar29;
    do {
      uVar33 = &p[(long)uVar32];
      uVar34 = (long)uVar32 % 7;
      dVar35 = (double)(long)uVar34;
      dVar36 = (double)dVar35 * 0.5;
      (*uVar33) = (double)dVar36;
      uVar37 = &r[(long)uVar32];
      uVar38 = (long)uVar32 % 5;
      dVar39 = (double)(long)uVar38;
      dVar40 = (double)dVar39 * 0.25;
      (*uVar37) = (double)dVar40;
      uVar41 = &s[(long)uVar32];
      (*uVar41) = 0.0;
      uVar42 = &q[(long)uVar32];
      (*uVar42) = 0.0;
      uVar43 = &A[(long)uVar32];
      uVar44 = (long)uVar32 * 2;
      uVar45 = 0;
      do {
        uVar46 = &uVar43[(long)uVar45];
        uVar47 = (long)uVar44 + (long)uVar45;
        uVar48 = (long)uVar47 % 9;
        dVar49 = (double)(long)uVar48;
        (*uVar46) = (double)dVar49;
        uVar50 = (long)uVar45 + 1;
        uVar51 = (long)uVar50 < 220;
        uVar45 = (long)uVar50;
      } while ((long)uVar51);
      uVar52 = (long)uVar32 + 1;
      uVar53 = (long)uVar52 <= (long)uVar30;
      uVar32 = (long)uVar52;
    } while ((long)uVar53);
  }
  __kmpc_for_static_fini((long)uVar28);
}
