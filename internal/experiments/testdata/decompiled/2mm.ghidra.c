double A[40][40];
double B[40][40];
double C[40][40];
double D[40][40];
double tmp[40][40];

void init() {
  __kmpc_fork_call(0, &init_parallel_region);
}

void kernel_2mm() {
  __kmpc_fork_call(0, &kernel_2mm_parallel_region);
  __kmpc_fork_call(0, &kernel_2mm_parallel_region_1);
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
  double[40]* uVar6;
  double[40]* uVar7;
  double[40]* uVar8;
  long uVar9;
  double[40]* uVar10;
  long uVar11;
  double* uVar12;
  long uVar13;
  long uVar14;
  double dVar15;
  double* uVar16;
  long uVar17;
  long uVar18;
  double dVar19;
  double* uVar20;
  long uVar21;
  long uVar22;
  double dVar23;
  double* uVar24;
  long uVar25;
  long uVar26;
  long uVar27;
  double dVar28;
  long uVar29;
  int uVar30;
  long uVar31;
  int uVar32;
  uVar1 = *param_1;
  local_18 = 0;
  local_20 = 39;
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
      uVar9 = (long)uVar5 * 2;
      uVar10 = &D[(long)uVar5];
      uVar11 = 0;
      do {
        uVar12 = &uVar6[(long)uVar11];
        uVar13 = (long)uVar5 * (long)uVar11;
        uVar14 = (long)uVar13 % 9;
        dVar15 = (double)(long)uVar14;
        (*uVar12) = (double)dVar15;
        uVar16 = &uVar7[(long)uVar11];
        uVar17 = (long)uVar5 + (long)uVar11;
        uVar18 = (long)uVar17 % 7;
        dVar19 = (double)(long)uVar18;
        (*uVar16) = (double)dVar19;
        uVar20 = &uVar8[(long)uVar11];
        uVar21 = (long)uVar9 + (long)uVar11;
        uVar22 = (long)uVar21 % 5;
        dVar23 = (double)(long)uVar22;
        (*uVar20) = (double)dVar23;
        uVar24 = &uVar10[(long)uVar11];
        uVar25 = 2 * (long)uVar11;
        uVar26 = (long)uVar5 - (long)uVar25;
        uVar27 = (long)uVar26 % 3;
        dVar28 = (double)(long)uVar27;
        (*uVar24) = (double)dVar28;
        uVar29 = (long)uVar11 + 1;
        uVar30 = (long)uVar29 < 40;
        uVar11 = (long)uVar29;
      } while ((long)uVar30);
      uVar31 = (long)uVar5 + 1;
      uVar32 = (long)uVar31 <= (long)uVar3;
      uVar5 = (long)uVar31;
    } while ((long)uVar32);
  }
  __kmpc_for_static_fini((long)uVar1);
}

void kernel_2mm_parallel_region(long* param_3, long* param_4) {
  long uVar33;
  long local_38;
  long local_40;
  long local_48;
  long local_50;
  long uVar34;
  long uVar35;
  int uVar36;
  long uVar37;
  double[40]* uVar38;
  double[40]* uVar39;
  double[40]* uVar40;
  double[40]* uVar41;
  long uVar42;
  double* uVar43;
  double* uVar44;
  double* uVar45;
  long uVar46;
  double dVar47;
  double* uVar48;
  double dVar49;
  double dVar50;
  double[40]* uVar51;
  double* uVar52;
  double dVar53;
  double dVar54;
  double dVar55;
  long uVar56;
  int uVar57;
  long uVar58;
  int uVar59;
  long uVar60;
  int uVar61;
  uVar33 = *param_3;
  local_38 = 0;
  local_40 = 39;
  __kmpc_for_static_init_8((long)uVar33, 34, &local_50, &local_38, &local_40, &local_48, 1, 1);
  uVar34 = local_38;
  uVar35 = local_40;
  uVar36 = (long)uVar34 <= (long)uVar35;
  if ((long)uVar36) {
    uVar37 = (long)uVar34;
    do {
      uVar38 = &tmp[(long)uVar37];
      uVar39 = &tmp[(long)uVar37];
      uVar40 = &tmp[(long)uVar37];
      uVar41 = &A[(long)uVar37];
      uVar42 = 0;
      do {
        uVar43 = &uVar38[(long)uVar42];
        (*uVar43) = 0.0;
        uVar44 = &uVar39[(long)uVar42];
        uVar45 = &uVar40[(long)uVar42];
        uVar46 = 0;
        do {
          dVar47 = *uVar45;
          uVar48 = &uVar41[(long)uVar46];
          dVar49 = *uVar48;
          dVar50 = 1.2 * (double)dVar49;
          uVar51 = &B[(long)uVar46];
          uVar52 = &uVar51[(long)uVar42];
          dVar53 = *uVar52;
          dVar54 = (double)dVar50 * (double)dVar53;
          dVar55 = (double)dVar47 + (double)dVar54;
          (*uVar44) = (double)dVar55;
          uVar56 = (long)uVar46 + 1;
          uVar57 = (long)uVar56 < 40;
          uVar46 = (long)uVar56;
        } while ((long)uVar57);
        uVar58 = (long)uVar42 + 1;
        uVar59 = (long)uVar58 < 40;
        uVar42 = (long)uVar58;
      } while ((long)uVar59);
      uVar60 = (long)uVar37 + 1;
      uVar61 = (long)uVar60 <= (long)uVar35;
      uVar37 = (long)uVar60;
    } while ((long)uVar61);
  }
  __kmpc_for_static_fini((long)uVar33);
}

void kernel_2mm_parallel_region_1(long* param_5, long* param_6) {
  long uVar62;
  long local_58;
  long local_60;
  long local_68;
  long local_70;
  long uVar63;
  long uVar64;
  int uVar65;
  long uVar66;
  double[40]* uVar67;
  double[40]* uVar68;
  double[40]* uVar69;
  double[40]* uVar70;
  double[40]* uVar71;
  long uVar72;
  double* uVar73;
  double* uVar74;
  double dVar75;
  double dVar76;
  double* uVar77;
  double* uVar78;
  long uVar79;
  double dVar80;
  double* uVar81;
  double dVar82;
  double[40]* uVar83;
  double* uVar84;
  double dVar85;
  double dVar86;
  double dVar87;
  long uVar88;
  int uVar89;
  long uVar90;
  int uVar91;
  long uVar92;
  int uVar93;
  uVar62 = *param_5;
  local_58 = 0;
  local_60 = 39;
  __kmpc_for_static_init_8((long)uVar62, 34, &local_70, &local_58, &local_60, &local_68, 1, 1);
  uVar63 = local_58;
  uVar64 = local_60;
  uVar65 = (long)uVar63 <= (long)uVar64;
  if ((long)uVar65) {
    uVar66 = (long)uVar63;
    do {
      uVar67 = &D[(long)uVar66];
      uVar68 = &D[(long)uVar66];
      uVar69 = &D[(long)uVar66];
      uVar70 = &D[(long)uVar66];
      uVar71 = &tmp[(long)uVar66];
      uVar72 = 0;
      do {
        uVar73 = &uVar67[(long)uVar72];
        uVar74 = &uVar68[(long)uVar72];
        dVar75 = *uVar74;
        dVar76 = (double)dVar75 * 0.8;
        (*uVar73) = (double)dVar76;
        uVar77 = &uVar69[(long)uVar72];
        uVar78 = &uVar70[(long)uVar72];
        uVar79 = 0;
        do {
          dVar80 = *uVar78;
          uVar81 = &uVar71[(long)uVar79];
          dVar82 = *uVar81;
          uVar83 = &C[(long)uVar79];
          uVar84 = &uVar83[(long)uVar72];
          dVar85 = *uVar84;
          dVar86 = (double)dVar82 * (double)dVar85;
          dVar87 = (double)dVar80 + (double)dVar86;
          (*uVar77) = (double)dVar87;
          uVar88 = (long)uVar79 + 1;
          uVar89 = (long)uVar88 < 40;
          uVar79 = (long)uVar88;
        } while ((long)uVar89);
        uVar90 = (long)uVar72 + 1;
        uVar91 = (long)uVar90 < 40;
        uVar72 = (long)uVar90;
      } while ((long)uVar91);
      uVar92 = (long)uVar66 + 1;
      uVar93 = (long)uVar92 <= (long)uVar64;
      uVar66 = (long)uVar92;
    } while ((long)uVar93);
  }
  __kmpc_for_static_fini((long)uVar62);
}
