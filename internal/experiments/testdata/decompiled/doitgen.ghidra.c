double A[20][20][24];
double C4[24][24];
double sum[20][20][24];

void init() {
  __kmpc_fork_call(0, &init_parallel_region);
  __kmpc_fork_call(0, &init_parallel_region_1);
}

void kernel_doitgen() {
  __kmpc_fork_call(0, &kernel_doitgen_parallel_region);
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
  double[24][20]* uVar6;
  long uVar7;
  double[24]* uVar8;
  long uVar9;
  long uVar10;
  double* uVar11;
  long uVar12;
  long uVar13;
  double dVar14;
  long uVar15;
  int uVar16;
  long uVar17;
  int uVar18;
  long uVar19;
  int uVar20;
  uVar1 = *param_1;
  local_18 = 0;
  local_20 = 19;
  __kmpc_for_static_init_8((long)uVar1, 34, &local_30, &local_18, &local_20, &local_28, 1, 1);
  uVar2 = local_18;
  uVar3 = local_20;
  uVar4 = (long)uVar2 <= (long)uVar3;
  if ((long)uVar4) {
    uVar5 = (long)uVar2;
    do {
      uVar6 = &A[(long)uVar5];
      uVar7 = 0;
      do {
        uVar8 = &uVar6[(long)uVar7];
        uVar9 = (long)uVar5 * (long)uVar7;
        uVar10 = 0;
        do {
          uVar11 = &uVar8[(long)uVar10];
          uVar12 = (long)uVar9 + (long)uVar10;
          uVar13 = (long)uVar12 % 7;
          dVar14 = (double)(long)uVar13;
          (*uVar11) = (double)dVar14;
          uVar15 = (long)uVar10 + 1;
          uVar16 = (long)uVar15 < 24;
          uVar10 = (long)uVar15;
        } while ((long)uVar16);
        uVar17 = (long)uVar7 + 1;
        uVar18 = (long)uVar17 < 20;
        uVar7 = (long)uVar17;
      } while ((long)uVar18);
      uVar19 = (long)uVar5 + 1;
      uVar20 = (long)uVar19 <= (long)uVar3;
      uVar5 = (long)uVar19;
    } while ((long)uVar20);
  }
  __kmpc_for_static_fini((long)uVar1);
}

void init_parallel_region_1(long* param_3, long* param_4) {
  long uVar21;
  long local_38;
  long local_40;
  long local_48;
  long local_50;
  long uVar22;
  long uVar23;
  int uVar24;
  long uVar25;
  double[24]* uVar26;
  long uVar27;
  double* uVar28;
  long uVar29;
  long uVar30;
  double dVar31;
  long uVar32;
  int uVar33;
  long uVar34;
  int uVar35;
  uVar21 = *param_3;
  local_38 = 0;
  local_40 = 23;
  __kmpc_for_static_init_8((long)uVar21, 34, &local_50, &local_38, &local_40, &local_48, 1, 1);
  uVar22 = local_38;
  uVar23 = local_40;
  uVar24 = (long)uVar22 <= (long)uVar23;
  if ((long)uVar24) {
    uVar25 = (long)uVar22;
    do {
      uVar26 = &C4[(long)uVar25];
      uVar27 = 0;
      do {
        uVar28 = &uVar26[(long)uVar27];
        uVar29 = (long)uVar25 * (long)uVar27;
        uVar30 = (long)uVar29 % 5;
        dVar31 = (double)(long)uVar30;
        (*uVar28) = (double)dVar31;
        uVar32 = (long)uVar27 + 1;
        uVar33 = (long)uVar32 < 24;
        uVar27 = (long)uVar32;
      } while ((long)uVar33);
      uVar34 = (long)uVar25 + 1;
      uVar35 = (long)uVar34 <= (long)uVar23;
      uVar25 = (long)uVar34;
    } while ((long)uVar35);
  }
  __kmpc_for_static_fini((long)uVar21);
}

void kernel_doitgen_parallel_region(long* param_5, long* param_6) {
  long uVar36;
  long local_58;
  long local_60;
  long local_68;
  long local_70;
  long uVar37;
  long uVar38;
  int uVar39;
  long uVar40;
  double[24][20]* uVar41;
  double[24][20]* uVar42;
  double[24][20]* uVar43;
  double[24][20]* uVar44;
  double[24][20]* uVar45;
  double[24][20]* uVar46;
  long uVar47;
  double[24]* uVar48;
  double[24]* uVar49;
  double[24]* uVar50;
  double[24]* uVar51;
  long uVar52;
  double* uVar53;
  double* uVar54;
  double* uVar55;
  long uVar56;
  double dVar57;
  double* uVar58;
  double dVar59;
  double[24]* uVar60;
  double* uVar61;
  double dVar62;
  double dVar63;
  double dVar64;
  long uVar65;
  int uVar66;
  long uVar67;
  int uVar68;
  double[24]* uVar69;
  double[24]* uVar70;
  long uVar71;
  double* uVar72;
  double* uVar73;
  double dVar74;
  long uVar75;
  int uVar76;
  long uVar77;
  int uVar78;
  long uVar79;
  int uVar80;
  uVar36 = *param_5;
  local_58 = 0;
  local_60 = 19;
  __kmpc_for_static_init_8((long)uVar36, 34, &local_70, &local_58, &local_60, &local_68, 1, 1);
  uVar37 = local_58;
  uVar38 = local_60;
  uVar39 = (long)uVar37 <= (long)uVar38;
  if ((long)uVar39) {
    uVar40 = (long)uVar37;
    do {
      uVar41 = &sum[(long)uVar40];
      uVar42 = &sum[(long)uVar40];
      uVar43 = &sum[(long)uVar40];
      uVar44 = &A[(long)uVar40];
      uVar45 = &A[(long)uVar40];
      uVar46 = &sum[(long)uVar40];
      uVar47 = 0;
      do {
        uVar48 = &uVar41[(long)uVar47];
        uVar49 = &uVar42[(long)uVar47];
        uVar50 = &uVar43[(long)uVar47];
        uVar51 = &uVar44[(long)uVar47];
        uVar52 = 0;
        do {
          uVar53 = &uVar48[(long)uVar52];
          (*uVar53) = 0.0;
          uVar54 = &uVar49[(long)uVar52];
          uVar55 = &uVar50[(long)uVar52];
          uVar56 = 0;
          do {
            dVar57 = *uVar55;
            uVar58 = &uVar51[(long)uVar56];
            dVar59 = *uVar58;
            uVar60 = &C4[(long)uVar56];
            uVar61 = &uVar60[(long)uVar52];
            dVar62 = *uVar61;
            dVar63 = (double)dVar59 * (double)dVar62;
            dVar64 = (double)dVar57 + (double)dVar63;
            (*uVar54) = (double)dVar64;
            uVar65 = (long)uVar56 + 1;
            uVar66 = (long)uVar65 < 24;
            uVar56 = (long)uVar65;
          } while ((long)uVar66);
          uVar67 = (long)uVar52 + 1;
          uVar68 = (long)uVar67 < 24;
          uVar52 = (long)uVar67;
        } while ((long)uVar68);
        uVar69 = &uVar45[(long)uVar47];
        uVar70 = &uVar46[(long)uVar47];
        uVar71 = 0;
        do {
          uVar72 = &uVar69[(long)uVar71];
          uVar73 = &uVar70[(long)uVar71];
          dVar74 = *uVar73;
          (*uVar72) = (double)dVar74;
          uVar75 = (long)uVar71 + 1;
          uVar76 = (long)uVar75 < 24;
          uVar71 = (long)uVar75;
        } while ((long)uVar76);
        uVar77 = (long)uVar47 + 1;
        uVar78 = (long)uVar77 < 20;
        uVar47 = (long)uVar77;
      } while ((long)uVar78);
      uVar79 = (long)uVar40 + 1;
      uVar80 = (long)uVar79 <= (long)uVar38;
      uVar40 = (long)uVar79;
    } while ((long)uVar80);
  }
  __kmpc_for_static_fini((long)uVar36);
}
