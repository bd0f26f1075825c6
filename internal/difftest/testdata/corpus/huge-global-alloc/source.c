double A[9223372036854775807];

void kernel() {
  A[0] = 1.5;
}
void check() {
  print_f64(A[0]);
}
