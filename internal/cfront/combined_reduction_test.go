package cfront

import (
	"strings"
	"testing"

	"repro/internal/interp"
)

// The combined "#pragma omp parallel for" desugars into parallel +
// inner for; the reduction clause must survive that desugaring. It was
// once dropped, leaving every thread doing a plain read-modify-write on
// the shared accumulator — found by the differential oracle as a
// write-write race on the reduction cell.
func TestCombinedParallelForReductionLowering(t *testing.T) {
	src := `
#define N 64
long A[N];
long total = 0;

void seed() {
  for (long i = 0; i < N; i++) {
    A[i] = i * 3 + 1;
  }
}
void kernel() {
  long acc = 0;
  #pragma omp parallel for schedule(static) reduction(+: acc)
  for (long i = 0; i < N; i++) {
    acc = acc + A[i];
  }
  total = acc;
}
`
	m, err := CompileSource(src, "combred", nil)
	if err != nil {
		t.Fatal(err)
	}
	txt := m.Print()
	if !strings.Contains(txt, "acc.red") {
		t.Errorf("no private reduction partial in lowered IR:\n%s", txt)
	}
	if !strings.Contains(txt, "__kmpc_atomic_fixed8_add") {
		t.Errorf("no atomic combine in lowered IR:\n%s", txt)
	}

	var want int64
	for i := int64(0); i < 64; i++ {
		want += i*3 + 1
	}
	for _, threads := range []int{1, 8} {
		mach := interp.NewMachine(m, interp.Options{NumThreads: threads})
		if _, err := mach.Run("seed"); err != nil {
			t.Fatal(err)
		}
		if _, err := mach.Run("kernel"); err != nil {
			t.Fatal(err)
		}
		got := mach.GlobalMem("total").Cells[0].I
		if got != want {
			t.Errorf("threads=%d: total = %d, want %d", threads, got, want)
		}
	}
}
