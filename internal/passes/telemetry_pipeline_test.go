// External test package so we can drive the pipeline through the real C
// frontend and the PolyBench suite without an import cycle.
package passes_test

import (
	"testing"

	"repro/internal/cfront"
	"repro/internal/passes"
	"repro/internal/polybench"
	"repro/internal/telemetry"
)

const loopSrc = `
long kernel(long n) {
  long s = 0;
  for (long i = 0; i < n; i++) {
    s = s + i * 2;
  }
  return s;
}
`

// TestO2TraceOnePassPerIteration runs the O2 pipeline on a single-function
// module and checks the recorded trace: within each fixed-point iteration,
// every pipeline slot appears exactly once, in pipeline order.
func TestO2TraceOnePassPerIteration(t *testing.T) {
	m, err := cfront.CompileSource(loopSrc, "trace-test", nil)
	if err != nil {
		t.Fatal(err)
	}
	tc := telemetry.New()
	passes.Optimize(m, passes.RunConfig{Telemetry: tc})

	var want []string
	for _, p := range passes.O2() {
		want = append(want, p.Name)
	}

	// Pass spans are leaves, so completion order is execution order.
	// Stage spans named O2-iteration delimit the fixed-point rounds: an
	// iteration's pass events all complete before its stage span does.
	var iterations [][]string
	var cur []string
	for _, e := range tc.Events() {
		switch {
		case e.Cat == telemetry.CatPass:
			cur = append(cur, e.Name)
		case e.Cat == telemetry.CatStage && e.Name == "O2-iteration":
			iterations = append(iterations, cur)
			cur = nil
		}
	}
	if len(cur) != 0 {
		t.Errorf("%d pass events outside any O2-iteration stage", len(cur))
	}
	if len(iterations) == 0 {
		t.Fatal("no O2-iteration stage spans recorded")
	}
	for it, got := range iterations {
		if len(got) != len(want) {
			t.Fatalf("iteration %d ran %d passes, want %d (one per pipeline slot): %v",
				it, len(got), len(want), got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("iteration %d slot %d: ran %q, want %q", it, i, got[i], want[i])
			}
		}
		// "Exactly once per iteration": each O2 slot's count in the trace
		// matches its count in the pipeline definition.
		count := func(names []string) map[string]int {
			c := map[string]int{}
			for _, n := range names {
				c[n]++
			}
			return c
		}
		gotN, wantN := count(got), count(want)
		for name, n := range wantN {
			if gotN[name] != n {
				t.Errorf("iteration %d: pass %q appears %d times, want %d", it, name, gotN[name], n)
			}
		}
	}
	// The optimize stage span wraps everything.
	var sawOptimize bool
	for _, r := range tc.Summary(telemetry.CatStage) {
		if r.Name == "optimize" && r.Runs == 1 {
			sawOptimize = true
		}
	}
	if !sawOptimize {
		t.Error("missing top-level optimize stage span")
	}
}

// TestPolyBenchRemarks compiles a real PolyBench kernel and checks the
// O2 run emits the remarks the paper's phenomena hinge on: mem2reg
// variable promotion (§2.3), LICM hoisting with its debug-info cost
// (§5.3.2), and loop rotation into do-while form (§2.2).
func TestPolyBenchRemarks(t *testing.T) {
	seen := map[string]bool{}
	for _, b := range polybench.All() {
		m, err := cfront.CompileSource(b.Seq, b.Name, nil)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		tc := telemetry.New()
		passes.Optimize(m, passes.RunConfig{Telemetry: tc})
		for _, r := range tc.Remarks() {
			seen[r.Pass] = true
			if r.Message == "" || r.Function == "" {
				t.Errorf("%s: incomplete remark %+v", b.Name, r)
			}
		}
		if len(seen) >= 3 && seen["mem2reg"] && seen["licm"] && seen["rotate"] {
			break
		}
	}
	for _, pass := range []string{"mem2reg", "licm", "rotate"} {
		if !seen[pass] {
			t.Errorf("no %q remark emitted across the PolyBench suite (got %v)", pass, seen)
		}
	}
}
