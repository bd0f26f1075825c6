package splendid

import (
	"strings"
	"testing"

	"repro/internal/cfront"
	"repro/internal/interp"
	"repro/internal/passes"
)

const reductionSrc = `
#define N 800
double A[N];

void seed() {
  for (long i = 0; i < N; i++) {
    A[i] = (i % 13) * 0.5;
  }
}
double sum() {
  double s = 0.0;
  for (long i = 0; i < N; i++) {
    s = s + A[i];
  }
  return s;
}
`

// TestReductionDecompilation covers the paper's §7 future work end to
// end: the parallelized reduction decompiles to a reduction clause, the
// body reads as the original source, and the recompiled output computes
// the same sum in parallel.
func TestReductionDecompilation(t *testing.T) {
	m := buildParallelIR(t, reductionSrc)
	if !strings.Contains(m.Print(), "__kmpc_atomic_float8_add") {
		t.Fatalf("parallelizer did not lower the reduction:\n%s", m.Print())
	}
	res, err := Decompile(m, Full(), passes.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	c := res.C
	if !strings.Contains(c, "reduction(+: s)") {
		t.Errorf("no reduction clause:\n%s", c)
	}
	if !strings.Contains(c, "s = s + A[i];") {
		t.Errorf("reduction body not natural:\n%s", c)
	}
	for _, reject := range []string{"__kmpc", "atomic"} {
		if strings.Contains(c, reject) {
			t.Errorf("runtime artifact %q survived:\n%s", reject, c)
		}
	}

	// Round trip: recompile and run, sequentially exact and in parallel
	// within reduction tolerance.
	ref, _ := cfront.CompileSource(reductionSrc, "ref", nil)
	refMach := interp.NewMachine(ref, interp.Options{})
	mustRunFns(t, refMach, "seed")
	want, err := refMach.Run("sum")
	if err != nil {
		t.Fatal(err)
	}

	rec, err := cfront.CompileSource(c, "rec", nil)
	if err != nil {
		t.Fatalf("recompile: %v\n%s", err, c)
	}
	passes.Optimize(rec, passes.RunConfig{})
	for _, threads := range []int{1, 5} {
		mach := interp.NewMachine(rec, interp.Options{NumThreads: threads})
		mustRunFns(t, mach, "seed")
		got, err := mach.Run("sum")
		if err != nil {
			t.Fatal(err)
		}
		diff := got.F - want.F
		if diff < 0 {
			diff = -diff
		}
		if diff > 1e-9*(1+want.F) {
			t.Errorf("threads=%d: sum %v != %v", threads, got.F, want.F)
		}
	}
}

func TestReductionSequentialRoundTripExact(t *testing.T) {
	// With one worker the combine order matches sequential execution, so
	// the round trip must be bitwise exact.
	m := buildParallelIR(t, reductionSrc)
	res, err := Decompile(m, Full(), passes.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := cfront.CompileSource(res.C, "rec", nil)
	if err != nil {
		t.Fatalf("recompile: %v\n%s", err, res.C)
	}
	ref, _ := cfront.CompileSource(reductionSrc, "ref", nil)
	refMach := interp.NewMachine(ref, interp.Options{})
	recMach := interp.NewMachine(rec, interp.Options{NumThreads: 1})
	mustRunFns(t, refMach, "seed")
	mustRunFns(t, recMach, "seed")
	want, _ := refMach.Run("sum")
	got, err := recMach.Run("sum")
	if err != nil {
		t.Fatal(err)
	}
	if want.F != got.F {
		t.Errorf("1-thread round trip inexact: %v != %v\n%s", got.F, want.F, res.C)
	}
}

func mustRunFns(t *testing.T, mach *interp.Machine, fns ...string) {
	t.Helper()
	for _, fn := range fns {
		if _, err := mach.Run(fn); err != nil {
			t.Fatal(err)
		}
	}
}

const varBoundSrc = `
#define N 800
double A[N];

void seed() {
  for (long i = 0; i < N; i++) {
    A[i] = (i % 13) * 0.5;
  }
}
double sumN(long n) {
  double s = 3.5;
  for (long i = 0; i < n; i++) {
    s = s + A[i];
  }
  return s;
}
`

// TestReductionVariableBoundZeroTrip guards the derotation soundness fix:
// with a runtime bound the guard check cannot be eliminated, and the
// zero-trip path must return the initial value, not an undefined partial.
func TestReductionVariableBoundZeroTrip(t *testing.T) {
	m := buildParallelIR(t, varBoundSrc)
	res, err := Decompile(m, Full(), passes.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := cfront.CompileSource(res.C, "rec", nil)
	if err != nil {
		t.Fatalf("recompile: %v\n%s", err, res.C)
	}
	passes.Optimize(rec, passes.RunConfig{})

	ref, _ := cfront.CompileSource(varBoundSrc, "ref", nil)
	refMach := interp.NewMachine(ref, interp.Options{})
	mustRunFns(t, refMach, "seed")
	mach := interp.NewMachine(rec, interp.Options{NumThreads: 4})
	mustRunFns(t, mach, "seed")

	for _, n := range []int64{0, 1, 7, 800} {
		want, err := refMach.Run("sumN", interp.IntV(n))
		if err != nil {
			t.Fatal(err)
		}
		got, err := mach.Run("sumN", interp.IntV(n))
		if err != nil {
			t.Fatalf("n=%d: %v\n%s", n, err, res.C)
		}
		diff := got.F - want.F
		if diff < 0 {
			diff = -diff
		}
		if diff > 1e-9*(1+want.F) {
			t.Errorf("n=%d: sumN parallel %v != sequential %v\n%s", n, got.F, want.F, res.C)
		}
	}
}

const dynamicSrc = `
#define N 300
double A[N];
double B[N];

void seed() {
  for (long i = 0; i < N; i++) {
    B[i] = i % 23;
  }
}
void kernel() {
  #pragma omp parallel
  {
    #pragma omp for schedule(dynamic, 8)
    for (long i = 0; i < N; i++) {
      A[i] = B[i] * 3.0 + 1.0;
    }
  }
}
`

// TestDynamicScheduleDecompilation: a dynamic worksharing loop written
// by a programmer (or another tool) decompiles to schedule(dynamic) and
// round-trips through recompilation.
func TestDynamicScheduleDecompilation(t *testing.T) {
	m, err := cfront.CompileSource(dynamicSrc, "dyn", nil)
	if err != nil {
		t.Fatal(err)
	}
	passes.Optimize(m, passes.RunConfig{})
	res, err := Decompile(m, Full(), passes.RunConfig{})
	if err != nil {
		t.Fatalf("decompile: %v", err)
	}
	c := res.C
	if !strings.Contains(c, "schedule(dynamic, 8)") {
		t.Errorf("dynamic schedule clause missing:\n%s", c)
	}
	if strings.Contains(c, "__kmpc") {
		t.Errorf("runtime calls survived:\n%s", c)
	}
	if !strings.Contains(c, "A[i] = B[i] * 3.0 + 1.0;") {
		t.Errorf("body not natural:\n%s", c)
	}

	// Round trip.
	rec, err := cfront.CompileSource(c, "rec", nil)
	if err != nil {
		t.Fatalf("recompile: %v\n%s", err, c)
	}
	passes.Optimize(rec, passes.RunConfig{})
	ref, _ := cfront.CompileSource(dynamicSrc, "ref", nil)
	refMach := interp.NewMachine(ref, interp.Options{})
	mustRunFns(t, refMach, "seed", "kernel")
	for _, threads := range []int{1, 4} {
		mach := interp.NewMachine(rec, interp.Options{NumThreads: threads})
		mustRunFns(t, mach, "seed", "kernel")
		want := refMach.GlobalMem("A")
		got := mach.GlobalMem("A")
		for i := range want.Cells {
			if want.Cells[i].F != got.Cells[i].F {
				t.Fatalf("threads=%d: A[%d] = %v, want %v\n%s",
					threads, i, got.Cells[i], want.Cells[i], c)
			}
		}
	}
}
