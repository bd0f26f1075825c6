package polybench

import (
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/omp"
	"repro/internal/parallel"
)

// parallelizedLoops sums the parallelizer's per-function loop counts.
func parallelizedLoops(res *parallel.Result) int {
	n := 0
	for _, c := range res.Parallelized {
		n += c
	}
	return n
}

// usesAtomicCombine reports whether the module calls any of the
// serialized __kmpc_atomic_* reduction combiners — the path whose
// cross-thread combine order the determinism golden must cover.
func usesAtomicCombine(m *ir.Module) bool {
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if _, ok := omp.IsAtomicCombine(in); ok {
					return true
				}
			}
		}
	}
	return false
}

// TestGoldenDeterminismAcrossThreadCounts is the runtime determinism
// golden: every auto-parallelized kernel must produce bitwise-identical
// outputs at -threads 1 and -threads 8, including the reduction kernels
// whose parallel combine goes through the IsAtomicCombine runtime calls
// (the suite's inputs are exactly representable, so even floating-point
// combines must not depend on arrival order).
func TestGoldenDeterminismAcrossThreadCounts(t *testing.T) {
	for _, b := range All() {
		m, _, err := b.CompileParallelIR(testSession)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		one, err := b.RunWith(m, interp.Options{NumThreads: 1, Body: engine(t, "")})
		if err != nil {
			t.Fatalf("%s threads=1: %v", b.Name, err)
		}
		eight, err := b.RunWith(m, interp.Options{NumThreads: 8, Body: engine(t, "")})
		if err != nil {
			t.Fatalf("%s threads=8: %v", b.Name, err)
		}
		if ok, diff := b.OutputsEqual(one, eight); !ok {
			t.Errorf("%s: threads=1 and threads=8 outputs differ: %s", b.Name, diff)
		}
		if c1, c8 := b.Checksum(one), b.Checksum(eight); c1 != c8 {
			t.Errorf("%s: checksums differ across thread counts: %v vs %v", b.Name, c1, c8)
		}
	}
}

// reductionSource carries a scalar sum the parallelizer must lower
// through the __kmpc_atomic_* combiner path. Values are integral, so
// every partial sum is exact and the combine order cannot change the
// result — the precondition for a bitwise determinism golden over a
// floating-point reduction.
const reductionSource = `
double A[4000];
double Sum[1];

void init() {
  for (long i = 0; i < 4000; i++) {
    A[i] = i % 9;
  }
}
void kernel_sum() {
  double s = 0.0;
  for (long i = 0; i < 4000; i++) {
    s = s + A[i];
  }
  Sum[0] = s;
}
`

// TestGoldenDeterminismReduction covers what the suite kernels do not:
// a parallelized scalar reduction whose workers combine via the
// serialized atomic runtime calls (omp.IsAtomicCombine paths). The
// result must be bitwise identical at -threads 1 and -threads 8, and
// the conflict checker must treat the combiner as synchronization.
func TestGoldenDeterminismReduction(t *testing.T) {
	red := &Benchmark{
		Name:     "reduction-sum",
		RunFuncs: []string{"init", "kernel_sum"},
		Outputs:  []string{"Sum"},
	}
	m, res, err := testSession.ParallelIR(red.Name, reductionSource)
	if err != nil {
		t.Fatal(err)
	}
	if parallelizedLoops(res) == 0 {
		t.Fatal("reduction loop was not parallelized")
	}
	if !usesAtomicCombine(m) {
		t.Fatal("parallelized reduction does not call an atomic combiner; golden lost its IsAtomicCombine coverage")
	}
	one, err := red.RunWith(m, interp.Options{NumThreads: 1, Body: engine(t, "")})
	if err != nil {
		t.Fatal(err)
	}
	eight, err := red.RunWith(m, interp.Options{NumThreads: 8, CheckRaces: true, Body: engine(t, "")})
	if err != nil {
		t.Fatal(err)
	}
	if ok, diff := red.OutputsEqual(one, eight); !ok {
		t.Errorf("reduction differs across thread counts: %s", diff)
	}
	// 4000 iterations of i%9 sum to 15990 exactly.
	if got := eight.GlobalMem("Sum").Cells[0].F; got != 15990 {
		t.Errorf("Sum = %v, want 15990", got)
	}
	if r := eight.Races(); !r.Clean() {
		t.Errorf("atomic reduction flagged by conflict checker: %+v", r.Conflicts)
	}
}

// TestStaticDOALLsRunClean is the dynamic half of the DOALL verdict
// check: every region the static dependence test accepted must execute
// without a single cross-thread conflict, and with zero contradictions
// between the dynamic and static verdicts, across the whole suite.
func TestStaticDOALLsRunClean(t *testing.T) {
	checkedRegions := int64(0)
	for _, b := range All() {
		m, res, err := b.CompileParallelIR(testSession)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		mach, err := b.RunWith(m, interp.Options{NumThreads: 4, CheckRaces: true, Body: engine(t, "")})
		if err != nil {
			t.Fatalf("%s race-checked run: %v", b.Name, err)
		}
		r := mach.Races()
		if r == nil {
			t.Fatalf("%s: no race report", b.Name)
		}
		if !r.Clean() {
			t.Errorf("%s: statically accepted DOALLs raced: %v", b.Name, r.Conflicts)
		}
		if cs := r.CrossCheck(m); len(cs) != 0 {
			t.Errorf("%s: static/dynamic verdicts disagree: %v", b.Name, cs)
		}
		if parallelizedLoops(res) > 0 && r.RegionsChecked == 0 {
			t.Errorf("%s: parallelized but no region was checked", b.Name)
		}
		checkedRegions += r.RegionsChecked
	}
	if checkedRegions == 0 {
		t.Fatal("conflict checker saw zero parallel regions across the suite")
	}
}

// TestProfiledSuiteRun exercises the profiler over a real kernel: region
// rows must account for every microtask fork and per-thread iteration
// totals must cover the iteration spaces consistently across threads.
func TestProfiledSuiteRun(t *testing.T) {
	b := All()[0]
	m, _, err := b.CompileParallelIR(testSession)
	if err != nil {
		t.Fatal(err)
	}
	mach, err := b.RunWith(m, interp.Options{NumThreads: 4, Profile: true, Body: engine(t, "")})
	if err != nil {
		t.Fatal(err)
	}
	p := mach.Profile()
	if p == nil || len(p.Regions) == 0 {
		t.Fatalf("profile = %+v, want regions", p)
	}
	for _, r := range p.Regions {
		if r.Forks <= 0 || r.WorkSteps <= 0 {
			t.Errorf("%s: empty region row %+v", r.Microtask, r)
		}
		if r.LoadBalance <= 0 || r.LoadBalance > 1 {
			t.Errorf("%s: load balance %v outside (0,1]", r.Microtask, r.LoadBalance)
		}
		if f := m.FuncByName(r.Microtask); f == nil || !f.Outlined {
			t.Errorf("%s: profiled region is not an outlined microtask", r.Microtask)
		}
	}
	if lb := p.LoadBalance(); lb <= 0 || lb > 1 {
		t.Errorf("run load balance %v outside (0,1]", lb)
	}
}
