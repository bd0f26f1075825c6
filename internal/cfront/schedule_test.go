package cfront

import (
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/passes"
)

const guidedAutoSrc = `
#define N 300

double A[N];
double B[N];

void seed() {
  for (long i = 0; i < N; i++) {
    B[i] = i % 23;
  }
}
void kguided() {
  #pragma omp parallel
  {
    #pragma omp for schedule(guided, 4)
    for (long i = 0; i < N; i++) {
      A[i] = B[i] * 3.0 + 1.0;
    }
  }
}
void kauto() {
  #pragma omp parallel
  {
    #pragma omp for schedule(auto)
    for (long i = 0; i < N; i++) {
      A[i] = B[i] * 5.0 + 2.0;
    }
  }
}
`

func TestGuidedAutoLowering(t *testing.T) {
	m, err := CompileSource(guidedAutoSrc, "ga", nil)
	if err != nil {
		t.Fatal(err)
	}
	text := m.Print()
	// Both kinds lower to the dispatch pair with their own schedule
	// constants (36 guided, 38 auto) — not to the dynamic constant.
	for _, want := range []string{"__kmpc_dispatch_init_8", "i32 36", "i32 38"} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in lowered IR", want)
		}
	}
}

func TestGuidedAutoExecution(t *testing.T) {
	for _, threads := range []int{1, 3, 8} {
		m, err := CompileSource(guidedAutoSrc, "ga", nil)
		if err != nil {
			t.Fatal(err)
		}
		passes.Optimize(m, passes.RunConfig{})
		mach := interp.NewMachine(m, interp.Options{NumThreads: threads})
		if _, err := mach.Run("seed"); err != nil {
			t.Fatal(err)
		}
		if _, err := mach.Run("kguided"); err != nil {
			t.Fatalf("guided threads=%d: %v", threads, err)
		}
		a := mach.GlobalMem("A")
		for i := 0; i < 300; i++ {
			if want := float64(i%23)*3 + 1; a.Cells[i].F != want {
				t.Fatalf("guided threads=%d: A[%d] = %v, want %v", threads, i, a.Cells[i], want)
			}
		}
		if _, err := mach.Run("kauto"); err != nil {
			t.Fatalf("auto threads=%d: %v", threads, err)
		}
		for i := 0; i < 300; i++ {
			if want := float64(i%23)*5 + 2; a.Cells[i].F != want {
				t.Fatalf("auto threads=%d: A[%d] = %v, want %v", threads, i, a.Cells[i], want)
			}
		}
	}
}

// TestClauseRejections pins the parse-time diagnostics for malformed
// clauses that historically slipped through (nonpositive chunks were
// clamped in codegen, empty variable lists produced empty-named
// privates). Each diagnostic must carry the offending clause text.
func TestClauseRejections(t *testing.T) {
	cases := []struct {
		name, clause, wantErr string
	}{
		{"zero chunk", "schedule(dynamic, 0)", "chunk must be positive"},
		{"negative chunk", "schedule(static, -4)", "chunk must be positive"},
		{"guided zero chunk", "schedule(guided, 0)", "chunk must be positive"},
		{"auto with chunk", "schedule(auto, 2)", "takes no chunk"},
		{"unknown kind", "schedule(runtime)", "unknown schedule kind"},
		{"empty private", "private()", "empty variable list"},
		{"blank private name", "private(a,,b)", "empty variable name"},
		{"empty reduction vars", "reduction(+:)", "empty variable list"},
	}
	for _, c := range cases {
		src := `
double A[10];
double s;
void k() {
  long a;
  long b;
  #pragma omp parallel
  {
    #pragma omp for ` + c.clause + `
    for (long i = 0; i < 10; i++) {
      A[i] = 1.0;
    }
  }
}
`
		_, err := CompileSource(src, "bad", nil)
		if err == nil {
			t.Errorf("%s: %q accepted", c.name, c.clause)
			continue
		}
		if !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: err = %v, want mention of %q", c.name, err, c.wantErr)
		}
		if !strings.Contains(err.Error(), strings.SplitN(c.clause, "(", 2)[0]) {
			t.Errorf("%s: diagnostic %v does not name the clause", c.name, err)
		}
	}
}

// TestGuidedAutoNowaitRejected extends the dynamic-path restriction to
// the new dispatch kinds, with the kind named in the error.
func TestGuidedAutoNowaitRejected(t *testing.T) {
	for _, sched := range []string{"guided", "auto"} {
		src := `
double A[10];
void k() {
  #pragma omp parallel
  {
    #pragma omp for schedule(` + sched + `) nowait
    for (long i = 0; i < 10; i++) {
      A[i] = 1.0;
    }
  }
}
`
		_, err := CompileSource(src, "bad", nil)
		if err == nil {
			t.Errorf("schedule(%s) nowait accepted", sched)
			continue
		}
		if !strings.Contains(err.Error(), sched) {
			t.Errorf("schedule(%s) nowait: err %v does not name the kind", sched, err)
		}
	}
}
