double path[56][56];

void init() {
  #pragma omp parallel
  {
    #pragma omp for schedule(static) nowait
    for (long i = 0; i <= 55; i++) {
      for (long j = 0; j <= 55; j++) {
        path[i][j] = (double)(i * j % 7) + 1.0;
        if (i == j) {
          path[i][j] = 0.0;
        }
      }
    }
  }
}

void kernel_floyd_warshall() {
  for (long k = 0; k <= 55; k++) {
    for (long i = 0; i <= 55; i++) {
      for (long j = 0; j <= 55; j++) {
        path[i][j] = path[i][j] < path[i][k] + path[k][j] ? path[i][j] : path[i][k] + path[k][j];
      }
    }
  }
}
