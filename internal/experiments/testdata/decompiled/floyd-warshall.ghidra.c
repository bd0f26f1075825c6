double path[56][56];

void init() {
  __kmpc_fork_call(0, &init_parallel_region);
}

void kernel_floyd_warshall() {
  long uVar1;
  double[56]* uVar2;
  double[56]* uVar3;
  long uVar4;
  double[56]* uVar5;
  double[56]* uVar6;
  double[56]* uVar7;
  double* uVar8;
  double[56]* uVar9;
  double[56]* uVar10;
  double* uVar11;
  long uVar12;
  double* uVar13;
  double* uVar14;
  double dVar15;
  double dVar16;
  double* uVar17;
  double dVar18;
  double dVar19;
  int uVar20;
  double* uVar21;
  double dVar22;
  double dVar23;
  double* uVar24;
  double dVar25;
  double dVar26;
  double dVar27;
  long uVar28;
  int uVar29;
  long uVar30;
  int uVar31;
  long uVar32;
  int uVar33;
  uVar1 = 0;
  do {
    uVar2 = &path[(long)uVar1];
    uVar3 = &path[(long)uVar1];
    uVar4 = 0;
    do {
      uVar5 = &path[(long)uVar4];
      uVar6 = &path[(long)uVar4];
      uVar7 = &path[(long)uVar4];
      uVar8 = &uVar7[(long)uVar1];
      uVar9 = &path[(long)uVar4];
      uVar10 = &path[(long)uVar4];
      uVar11 = &uVar10[(long)uVar1];
      uVar12 = 0;
      do {
        uVar13 = &uVar5[(long)uVar12];
        uVar14 = &uVar6[(long)uVar12];
        dVar15 = *uVar14;
        dVar16 = *uVar8;
        uVar17 = &uVar2[(long)uVar12];
        dVar18 = *uVar17;
        dVar19 = (double)dVar16 + (double)dVar18;
        uVar20 = (double)dVar15 < (double)dVar19;
        uVar21 = &uVar9[(long)uVar12];
        dVar22 = *uVar21;
        dVar23 = *uVar11;
        uVar24 = &uVar3[(long)uVar12];
        dVar25 = *uVar24;
        dVar26 = (double)dVar23 + (double)dVar25;
        dVar27 = (long)uVar20 ? (double)dVar22 : (double)dVar26;
        (*uVar13) = (double)dVar27;
        uVar28 = (long)uVar12 + 1;
        uVar29 = (long)uVar28 < 56;
        uVar12 = (long)uVar28;
      } while ((long)uVar29);
      uVar30 = (long)uVar4 + 1;
      uVar31 = (long)uVar30 < 56;
      uVar4 = (long)uVar30;
    } while ((long)uVar31);
    uVar32 = (long)uVar1 + 1;
    uVar33 = (long)uVar32 < 56;
    uVar1 = (long)uVar32;
  } while ((long)uVar33);
}

void init_parallel_region(long* param_1, long* param_2) {
  long uVar34;
  long local_18;
  long local_20;
  long local_28;
  long local_30;
  long uVar35;
  long uVar36;
  int uVar37;
  long uVar38;
  double[56]* uVar39;
  double[56]* uVar40;
  long uVar41;
  double* uVar42;
  long uVar43;
  long uVar44;
  double dVar45;
  double dVar46;
  int uVar47;
  double* uVar48;
  long uVar49;
  int uVar50;
  long uVar51;
  int uVar52;
  uVar34 = *param_1;
  local_18 = 0;
  local_20 = 55;
  __kmpc_for_static_init_8((long)uVar34, 34, &local_30, &local_18, &local_20, &local_28, 1, 1);
  uVar35 = local_18;
  uVar36 = local_20;
  uVar37 = (long)uVar35 <= (long)uVar36;
  if ((long)uVar37) {
    uVar38 = (long)uVar35;
    do {
      uVar39 = &path[(long)uVar38];
      uVar40 = &path[(long)uVar38];
      uVar41 = 0;
      do {
        uVar42 = &uVar39[(long)uVar41];
        uVar43 = (long)uVar38 * (long)uVar41;
        uVar44 = (long)uVar43 % 7;
        dVar45 = (double)(long)uVar44;
        dVar46 = (double)dVar45 + 1.0;
        (*uVar42) = (double)dVar46;
        uVar47 = (long)uVar38 == (long)uVar41;
        if ((long)uVar47) {
          uVar48 = &uVar40[(long)uVar41];
          (*uVar48) = 0.0;
        }
        uVar49 = (long)uVar41 + 1;
        uVar50 = (long)uVar49 < 56;
        uVar41 = (long)uVar49;
      } while ((long)uVar50);
      uVar51 = (long)uVar38 + 1;
      uVar52 = (long)uVar51 <= (long)uVar36;
      uVar38 = (long)uVar51;
    } while ((long)uVar52);
  }
  __kmpc_for_static_fini((long)uVar34);
}
