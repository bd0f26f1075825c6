double A[220][220];
double s[220];
double q[220];
double p[220];
double r[220];

void init() {
  #pragma omp parallel
  {
    long mul2;
    #pragma omp for schedule(static) nowait
    for (long i = 0; i <= 219; i++) {
      p[i] = (double)(i % 7) * 0.5;
      r[i] = (double)(i % 5) * 0.25;
      s[i] = 0.0;
      q[i] = 0.0;
      mul2 = i * 2;
      for (long j = 0; j <= 219; j++) {
        A[i][j] = (double)((mul2 + j) % 9);
      }
    }
  }
}

void kernel_bicg() {
  for (long i = 0; i <= 219; i++) {
    q[i] = 0.0;
    for (long j = 0; j <= 219; j++) {
      s[j] = s[j] + r[i] * A[i][j];
      q[i] = q[i] + A[i][j] * p[j];
    }
  }
}
