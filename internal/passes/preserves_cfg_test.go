package passes_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/cfront"
	"repro/internal/ir"
	"repro/internal/passes"
	"repro/internal/polybench"
	"repro/internal/telemetry"
)

// cfgShape renders f's control-flow graph: its blocks in order, each
// with its successor list.
func cfgShape(f *ir.Function) string {
	var sb strings.Builder
	for _, b := range f.Blocks {
		sb.WriteString(b.Nam + " ->")
		for _, s := range b.Succs() {
			sb.WriteString(" " + s.Nam)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// cfgViolations runs pipeline to a fixed point over all 16 PolyBench
// kernels under a shared analysis cache and returns one entry per run of
// a pass declared PreservesCFG that changed a function's CFG shape.
func cfgViolations(t *testing.T, pipeline []passes.Pass) []string {
	t.Helper()
	var bad []string
	checked := make([]passes.Pass, len(pipeline))
	for i, p := range pipeline {
		checked[i] = p
		if !p.PreservesCFG {
			continue
		}
		checked[i].Run = func(f *ir.Function, am *analysis.Manager, tc *telemetry.Ctx) bool {
			before := cfgShape(f)
			c := p.Run(f, am, tc)
			if cfgShape(f) != before {
				bad = append(bad, fmt.Sprintf("%s on @%s", p.Name, f.Nam))
			}
			return c
		}
	}
	for _, b := range polybench.All() {
		m, err := cfront.CompileSource(b.Seq, b.Name, nil)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		cfg := passes.RunConfig{Analyses: analysis.NewManager(), VerifyEach: true}
		for it := 0; it < 10; it++ {
			changed, err := passes.RunPipeline(m, cfg, checked...)
			if err != nil {
				t.Fatalf("%s: %v", b.Name, err)
			}
			if !changed {
				break
			}
		}
	}
	return bad
}

// TestPreservesCFGDeclarations checks every PreservesCFG declaration in
// O2 against the PolyBench suite. RunPipeline keeps a function's cached
// dominators and loops across a CFG-preserving pass, so a false
// declaration would serve stale analyses to the passes after it.
func TestPreservesCFGDeclarations(t *testing.T) {
	if bad := cfgViolations(t, passes.O2()); len(bad) > 0 {
		t.Errorf("passes declared PreservesCFG changed the CFG: %s", strings.Join(bad, ", "))
	}

	// Self-check: declaring simplifycfg CFG-preserving must be caught.
	flipped := passes.O2()
	for i := range flipped {
		if flipped[i].Name == "simplifycfg" {
			flipped[i].PreservesCFG = true
		}
	}
	if len(cfgViolations(t, flipped)) == 0 {
		t.Error("simplifycfg declared PreservesCFG went undetected")
	}
}
