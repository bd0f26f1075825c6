// Package passes implements the mid-end optimization pipeline the paper's
// input IR is shaped by: mem2reg (SSA construction), CFG simplification,
// constant folding, dead-code elimination, loop-invariant code motion,
// and loop rotation, plus the loop unrolling, loop distribution, and
// call inlining transformations the decompiler and the Figure 3 case
// study apply directly.
//
// The pipeline ordering mirrors LLVM -O2 for the passes that matter to
// decompilation: mem2reg splits source variables into phi-connected
// registers (§2.3 of the paper), LICM creates values with no debug
// metadata (§5.3.2), and loop rotation converts for-loops into the
// do-while shape that defeats naive decompilers (§2.2).
//
// Every pass is a named Pass and reports what it did through an optional
// *telemetry.Ctx: per-pass × per-function spans with instruction-count
// deltas, Statistic-style counters (licm.hoisted, mem2reg.promoted, ...),
// and structured optimization remarks tying transformations back to the
// paper's phenomena. A nil context disables all of it at zero cost.
package passes

import (
	"fmt"
	"sync/atomic"

	"repro/internal/analysis"
	"repro/internal/ir"
	"repro/internal/metrics"
	"repro/internal/telemetry"
)

// Pass is a named function transformation. Run transforms one function
// and reports whether it changed it; it may query cached dominator trees
// and loop forests through am and record counters and remarks on tc
// (either is nil when caching or telemetry is disabled).
//
// PreservesCFG declares that Run only adds, removes, or moves
// instructions — never blocks or edges — so RunPipeline keeps the
// function's CFG analyses (rekeyed to the new content hash) when Run
// changes it. Declaring PreservesCFG for a pass that restructures the CFG
// is a correctness bug.
type Pass struct {
	Name         string
	PreservesCFG bool
	Run          func(f *ir.Function, am *analysis.Manager, tc *telemetry.Ctx) bool
}

// The standard passes. mem2reg, constfold, dce, and licm only add,
// remove, or move instructions; simplifycfg and rotate restructure the
// control-flow graph.
var (
	Mem2RegPass     = Pass{Name: "mem2reg", PreservesCFG: true, Run: mem2reg}
	SimplifyCFGPass = Pass{Name: "simplifycfg", Run: func(f *ir.Function, _ *analysis.Manager, tc *telemetry.Ctx) bool {
		return simplifyCFG(f, tc)
	}}
	ConstFoldPass = Pass{Name: "constfold", PreservesCFG: true, Run: func(f *ir.Function, _ *analysis.Manager, tc *telemetry.Ctx) bool {
		return constFold(f, tc)
	}}
	DCEPass = Pass{Name: "dce", PreservesCFG: true, Run: func(f *ir.Function, _ *analysis.Manager, tc *telemetry.Ctx) bool {
		return dce(f, tc)
	}}
	LICMPass       = Pass{Name: "licm", PreservesCFG: true, Run: licm}
	LoopRotatePass = Pass{Name: "rotate", Run: loopRotate}
)

// RunConfig configures a pipeline execution. The zero value is serial,
// uncached, and unobserved.
type RunConfig struct {
	// Analyses is the pipeline's analysis cache. Nil disables caching:
	// every pass computes its analyses fresh.
	Analyses *analysis.Manager
	// Telemetry receives per-pass spans, counters, and remarks. Nil
	// disables collection.
	Telemetry *telemetry.Ctx
	// VerifyEach runs ir.Verify on the function after every pass and
	// aborts the pipeline with an error naming the offending pass.
	VerifyEach bool
	// Workers is the function-level parallelism degree: 0 or 1 runs
	// serially; >1 schedules functions across a worker pool. Both follow
	// bottom-up call-graph SCC order.
	Workers int
	// Metrics receives scheduler counters and histograms
	// (splendid_sched_*) from every pipeline run. Nil disables them.
	Metrics *metrics.Registry
}

// runOnePass executes p on f with span bookkeeping, -print-changed
// dumping, analysis-cache invalidation, and optional verification.
func runOnePass(p Pass, f *ir.Function, cfg RunConfig) (bool, error) {
	tc := cfg.Telemetry
	before := 0
	if tc.Enabled() {
		before = f.NumInstrs()
	}
	sp := tc.StartPass(p.Name, f.Nam)
	c := p.Run(f, cfg.Analyses, tc)
	if tc.Enabled() {
		sp.EndPass(f.NumInstrs()-before, c)
	}
	if c {
		if p.PreservesCFG {
			cfg.Analyses.Rekey(f)
		} else {
			cfg.Analyses.Invalidate(f)
		}
		if w := tc.PrintChangedWriter(); w != nil {
			fmt.Fprintf(w, "*** IR after %s on @%s ***\n%s\n", p.Name, f.Nam, f.String())
		}
	}
	if cfg.VerifyEach {
		if err := f.Verify(); err != nil {
			return c, fmt.Errorf("verify-each: pass %q broke @%s: %w", p.Name, f.Nam, err)
		}
	}
	return c, nil
}

// RunPipeline applies the pipeline to every defined function of m under
// cfg and reports whether any pass changed anything. Execution is
// function-major — each function runs the whole pipeline, so a worker
// owns a function end to end — and a function stops at its first
// verify-each failure. All passes are function-local, so the resulting
// IR is byte-identical at every worker count.
func RunPipeline(m *ir.Module, cfg RunConfig, pipeline ...Pass) (bool, error) {
	var changed atomic.Bool
	err := ScheduleFunctions(m, cfg.Workers, func(f *ir.Function) error {
		for _, p := range pipeline {
			c, err := runOnePass(p, f, cfg)
			if c {
				changed.Store(true)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}, NewSchedMetrics(cfg.Metrics))
	return changed.Load(), err
}

// O2 returns the standard optimization pipeline applied to benchmark IR
// before parallelization, ending with the loop rotation that parallelizing
// compilers rely on for canonicalization.
func O2() []Pass {
	return []Pass{
		Mem2RegPass,
		SimplifyCFGPass,
		ConstFoldPass,
		DCEPass,
		LICMPass,
		ConstFoldPass,
		DCEPass,
		LoopRotatePass,
		SimplifyCFGPass,
		DCEPass,
	}
}

// o2MaxIterations caps the O2 fixed point.
const o2MaxIterations = 3

// Optimize runs the O2 pipeline on m under cfg until an iteration changes
// nothing, or for at most o2MaxIterations iterations. The whole run and
// each iteration are recorded as stage spans wrapping the per-pass spans;
// the analysis cache, if any, carries dominator trees and loop forests
// across passes and iterations.
func Optimize(m *ir.Module, cfg RunConfig) error {
	tc := cfg.Telemetry
	sp := tc.StartStage("optimize")
	defer sp.End()
	for i := 0; i < o2MaxIterations; i++ {
		it := tc.StartSpan(telemetry.CatStage, "O2-iteration", fmt.Sprintf("%d", i))
		c, err := RunPipeline(m, cfg, O2()...)
		it.End()
		if err != nil || !c {
			return err
		}
	}
	return nil
}
