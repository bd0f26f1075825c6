package splendid

import (
	"strings"
	"testing"

	"repro/internal/cfront"
	"repro/internal/interp"
	"repro/internal/passes"
)

// A dynamically-scheduled reduction's accumulator circulates through
// the dispatch head's phi. Collapsing the chunk-pull loop once dropped
// the back-edge value, so the sequentialized region stored the *seed*
// back into the accumulator cell and the whole sum vanished from the
// decompiled program — found by the differential oracle as a round-trip
// output mismatch. This pins the full path: detransform, decompile,
// recompile, execute, compare the accumulated scalar.
func TestDynamicReductionRoundTripValue(t *testing.T) {
	src := `
#define N 48
long A[N];
long total = 0;

void seed() {
  for (long i = 0; i < N; i++) {
    A[i] = i * 5 + 2;
  }
}
void kernel() {
  long acc = 0;
  #pragma omp parallel for schedule(dynamic, 4) reduction(+: acc)
  for (long i = 0; i < N; i++) {
    acc = acc + A[i];
  }
  total = acc;
}
`
	m, err := cfront.CompileSource(src, "dynred", nil)
	if err != nil {
		t.Fatal(err)
	}
	passes.Optimize(m, passes.RunConfig{})
	res, err := Decompile(m, Full(), passes.RunConfig{})
	if err != nil {
		t.Fatalf("decompile: %v", err)
	}
	if !strings.Contains(res.C, "reduction(+: acc)") {
		t.Errorf("reduction clause missing from decompiled C:\n%s", res.C)
	}
	rec, err := cfront.CompileSource(res.C, "rec", nil)
	if err != nil {
		t.Fatalf("recompile: %v\n%s", err, res.C)
	}
	passes.Optimize(rec, passes.RunConfig{})

	var want int64
	for i := int64(0); i < 48; i++ {
		want += i*5 + 2
	}
	for _, threads := range []int{1, 4} {
		mach := interp.NewMachine(rec, interp.Options{NumThreads: threads})
		mustRunFns(t, mach, "seed", "kernel")
		got := mach.GlobalMem("total").Cells[0].I
		if got != want {
			t.Fatalf("threads=%d: recompiled total = %d, want %d\n%s",
				threads, got, want, res.C)
		}
	}
}
