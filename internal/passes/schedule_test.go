package passes_test

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/cfront"
	"repro/internal/ir"
	"repro/internal/passes"
	"repro/internal/telemetry"
)

const sccSrc = `
long leaf(long x) { return x + 1; }
long mid(long x) { return leaf(x) + leaf(x + 1); }
long top(long n) {
  long s = 0;
  for (long i = 0; i < n; i++) {
    s = s + mid(i);
  }
  return s;
}
`

func compileSCC(t *testing.T) *ir.Module {
	t.Helper()
	m, err := cfront.CompileSource(sccSrc, "sched-test", nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestScheduleFunctionsBottomUp checks both modes visit every defined
// function exactly once and that callees complete before their callers
// start.
func TestScheduleFunctionsBottomUp(t *testing.T) {
	for _, workers := range []int{1, 4} {
		m := compileSCC(t)
		var mu sync.Mutex
		done := map[string]bool{}
		err := passes.ScheduleFunctions(m, workers, func(f *ir.Function) error {
			mu.Lock()
			defer mu.Unlock()
			if done[f.Nam] {
				return errors.New(f.Nam + " scheduled twice")
			}
			var missing []string
			switch f.Nam {
			case "mid":
				missing = checkDone(done, "leaf")
			case "top":
				missing = checkDone(done, "leaf", "mid")
			}
			if len(missing) > 0 {
				t.Errorf("workers=%d: %s started before callees %v finished", workers, f.Nam, missing)
			}
			done[f.Nam] = true
			return nil
		}, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(done) != 3 {
			t.Fatalf("workers=%d: scheduled %d functions, want 3", workers, len(done))
		}
	}
}

func checkDone(done map[string]bool, names ...string) []string {
	var missing []string
	for _, n := range names {
		if !done[n] {
			missing = append(missing, n)
		}
	}
	return missing
}

// TestRunPipelineMatchesSerial optimizes two copies of one module —
// serial without a cache, on four workers with one — and requires
// byte-identical printed IR.
func TestRunPipelineMatchesSerial(t *testing.T) {
	serial := compileSCC(t)
	parallel := compileSCC(t)

	passes.Optimize(serial, passes.RunConfig{})
	if err := passes.Optimize(parallel, passes.RunConfig{
		Analyses: analysis.NewManager(),
		Workers:  4,
	}); err != nil {
		t.Fatal(err)
	}
	if s, p := serial.Print(), parallel.Print(); s != p {
		t.Fatalf("parallel cached pipeline diverged from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", s, p)
	}
}

// TestVerifyEachNamesOffendingPass plants a pass that corrupts the IR and
// checks the pipeline aborts with the pass's name in the error.
func TestVerifyEachNamesOffendingPass(t *testing.T) {
	m := compileSCC(t)
	bad := passes.Pass{Name: "corrupt", Run: func(f *ir.Function, _ *analysis.Manager, _ *telemetry.Ctx) bool {
		// Drop the terminator of the entry block: invalid IR.
		e := f.Entry()
		e.Instrs = e.Instrs[:len(e.Instrs)-1]
		return true
	}}
	_, err := passes.RunPipeline(m, passes.RunConfig{VerifyEach: true}, passes.Mem2RegPass, bad)
	if err == nil {
		t.Fatal("verify-each accepted IR with a missing terminator")
	}
	if !strings.Contains(err.Error(), `"corrupt"`) {
		t.Fatalf("error does not name the offending pass: %v", err)
	}
}

// TestVerifyEachCleanPipeline runs the full O2 pipeline with verification
// after every pass; the standard passes must never produce invalid IR.
func TestVerifyEachCleanPipeline(t *testing.T) {
	m := compileSCC(t)
	if err := passes.Optimize(m, passes.RunConfig{
		Analyses:   analysis.NewManager(),
		VerifyEach: true,
	}); err != nil {
		t.Fatal(err)
	}
}

// TestAnalysisCacheHits checks the managed O2 run actually reuses cached
// analyses rather than recomputing per pass.
func TestAnalysisCacheHits(t *testing.T) {
	m := compileSCC(t)
	am := analysis.NewManager()
	if err := passes.Optimize(m, passes.RunConfig{Analyses: am}); err != nil {
		t.Fatal(err)
	}
	st := am.Stats()
	if st.Hits == 0 {
		t.Fatalf("no cache hits across an O2 fixed point (misses=%d)", st.Misses)
	}
}
