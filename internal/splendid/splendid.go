// Package splendid implements the paper's primary contribution: an
// LLVM-IR→C/OpenMP decompiler producing portable, natural parallel
// source. The pipeline follows Figure 4 of the paper:
//
//	Parallel Semantic Analyzer   — find __kmpc_fork_call regions
//	Parallel Region Detransformer — restore sequential loop parameters,
//	                                strip runtime setup, inline the
//	                                outlined region (Loop Inliner)
//	Loop-Rotate Detransformer    — rebuild canonical for loops and prove
//	                                the rotation guard redundant
//	Variable Proposer/Generator  — Algorithms 1 & 2: recover source
//	                                variable names from debug metadata
//	                                without lifetime conflicts
//	Pragma Generator             — re-express parallelism as
//	                                #pragma omp parallel / for
//	Control-Flow Generator       — structured C emission with expression
//	                                folding
//
// Three configurations reproduce the paper's ablation (Figure 7):
// V1 (natural control flow only), Portable (adds explicit parallelism),
// and Full (adds variable renaming).
package splendid

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/cast"
	"repro/internal/decomp"
	"repro/internal/ir"
	"repro/internal/passes"
	"repro/internal/telemetry"
)

// Config selects SPLENDID features, mirroring the paper's variants.
type Config struct {
	// ExplicitParallelism runs the Parallel Region Detransformer and the
	// Pragma Generator (Portable SPLENDID and Full).
	ExplicitParallelism bool
	// RestoreForLoops runs the Loop-Rotate Detransformer (all variants).
	RestoreForLoops bool
	// RenameVariables runs the Variable Generator (Full only).
	RenameVariables bool
	// FoldExpressions collapses single-use values into compound
	// expressions (all variants; the C-backend substrate has it off).
	FoldExpressions bool
}

// V1 is SPLENDID v1: natural control-flow construction only.
func V1() Config {
	return Config{RestoreForLoops: true, FoldExpressions: true}
}

// Portable is SPLENDID v2: control flow plus explicit parallelism; its
// output recompiles with any OpenMP compiler.
func Portable() Config {
	return Config{RestoreForLoops: true, ExplicitParallelism: true, FoldExpressions: true}
}

// Full is the complete SPLENDID with variable renaming.
func Full() Config {
	return Config{RestoreForLoops: true, ExplicitParallelism: true,
		RenameVariables: true, FoldExpressions: true}
}

// Stats aggregates decompilation statistics for the evaluation.
type Stats struct {
	ParallelRegions int
	DerotatedLoops  int
	PragmasEmitted  int
	VarGen          VarGenStats
	// DeclaredVars and SourceNamedVars feed Figure 8: the fraction of
	// emitted C variables carrying reconstructed source names.
	DeclaredVars    int
	SourceNamedVars int
}

// Result is a completed decompilation. It holds plain values only, so a
// copy shares nothing mutable with the original.
type Result struct {
	C     string
	Stats Stats
}

// Decompile translates parallel IR into OpenMP C source: feature
// selection via cfg, execution policy via rc, whose zero value is serial,
// uncached, and unobserved. The input module is not modified (the
// pipeline runs on a private copy).
//
// Every stage of the paper's Figure 4 pipeline is recorded as a telemetry
// stage span on rc.Telemetry, and the detransformers emit counters and
// remarks through it. The per-function stages (mem2reg promotion, loop
// de-rotation, address rematerialization, variable generation,
// control-flow generation) run under the function scheduler with
// rc.Workers workers; output is byte-identical for every worker count,
// because emission order follows the module, not the workers.
// Module-level stages (region detransformation, pragma refresh) are
// serial barriers between them. rc.Analyses is a shared analysis cache
// for the per-function rewrite stages, and rc.VerifyEach re-verifies the
// module after every stage and every cleanup pass, attributing failures
// to the stage that broke it.
func Decompile(m *ir.Module, cfg Config, rc passes.RunConfig) (*Result, error) {
	tc := rc.Telemetry
	am := rc.Analyses
	sm := passes.NewSchedMetrics(rc.Metrics)
	total := tc.StartStage("decompile")
	defer total.End()

	sp := tc.StartStage("clone-input")
	work, err := ir.Parse(m.Print())
	sp.End()
	if err != nil {
		return nil, err
	}
	// The clone's functions are fresh objects; any cache contents keyed on
	// other modules' functions stay untouched, but a stale entry for a
	// recycled pointer cannot exist. (Hash revalidation would catch it
	// regardless.)
	res := &Result{}
	var mu sync.Mutex // guards res.Stats from scheduler workers

	verifyStage := func(stage string) error {
		if !rc.VerifyEach {
			return nil
		}
		if err := work.Verify(); err != nil {
			return fmt.Errorf("verify-each: stage %q broke the module: %w", stage, err)
		}
		return nil
	}

	// Phase 1: explicit parallel translation (the Parallel Semantic
	// Analyzer and the Parallel Region Detransformer). Module-level: it
	// deletes outlined functions and rewrites their callers.
	pragmas := map[*ir.Block]*decomp.PragmaInfo{}
	if cfg.ExplicitParallelism {
		sp = tc.StartStage("parallel-detransform")
		pragmas, err = DetransformParallelRegions(work)
		sp.End()
		if err != nil {
			return nil, err
		}
		am.InvalidateAll()
		if err := verifyStage("parallel-detransform"); err != nil {
			return nil, err
		}
		res.Stats.ParallelRegions = len(pragmas)
		tc.Count("splendid.parallel-regions", len(pragmas))
	}

	// Phase 2: natural control flow and natural address expressions.
	// Mem2Reg first promotes reduction cells (and any other plain scalar
	// slots the detransformation exposed) into SSA values so they print
	// as ordinary variables. Each stage is function-local, so it fans out
	// across the scheduler; stage boundaries remain barriers.
	if cfg.ExplicitParallelism {
		sp = tc.StartStage("mem2reg-promote")
		_, err = passes.RunPipeline(work, rc, passes.Mem2RegPass)
		sp.End()
		if err != nil {
			return nil, err
		}
		if err := verifyStage("mem2reg-promote"); err != nil {
			return nil, err
		}
	}
	if cfg.RestoreForLoops {
		sp = tc.StartStage("derotate")
		err = passes.ScheduleFunctions(work, rc.Workers, func(f *ir.Function) error {
			n := DerotateLoops(f, am, tc)
			am.Invalidate(f)
			if n > 0 {
				mu.Lock()
				res.Stats.DerotatedLoops += n
				mu.Unlock()
			}
			return nil
		}, sm)
		sp.End()
		if err != nil {
			return nil, err
		}
		if err := verifyStage("derotate"); err != nil {
			return nil, err
		}
	}
	if cfg.FoldExpressions {
		sp = tc.StartStage("rematerialize")
		err = passes.ScheduleFunctions(work, rc.Workers, func(f *ir.Function) error {
			RematerializeAddresses(f)
			am.Invalidate(f)
			return nil
		}, sm)
		sp.End()
		if err != nil {
			return nil, err
		}
		if err := verifyStage("rematerialize"); err != nil {
			return nil, err
		}
	}
	sp = tc.StartStage("cleanup")
	_, err = passes.RunPipeline(work, rc, passes.ConstFoldPass, passes.DCEPass, passes.SimplifyCFGPass)
	sp.End()
	if err != nil {
		return nil, err
	}
	if err := work.Verify(); err != nil {
		return nil, err
	}
	// Marker block names may have been renamed by CFG cleanup only via
	// removal; refresh the pragma map from current names.
	sp = tc.StartStage("pragma-gen")
	pragmas = refreshPragmas(work, pragmas)
	res.Stats.PragmasEmitted = len(pragmas)
	tc.Count("splendid.pragmas", len(pragmas))
	sp.End()

	// Phase 3: variable generation + emission. Per-function and
	// independent, so it fans out too; results land in a module-ordered
	// slice, keeping the emitted file byte-identical at any worker count.
	file := &cast.File{}
	for _, g := range work.Globals {
		vd := &cast.VarDecl{T: decomp.CType(g.Elem), Name: g.Nam}
		if g.Init != nil {
			switch c := g.Init.(type) {
			case *ir.ConstInt:
				vd.Init = &cast.IntLit{V: c.V}
			case *ir.ConstFloat:
				vd.Init = &cast.FloatLit{V: c.V}
			}
		}
		file.Vars = append(file.Vars, vd)
	}
	slot := map[*ir.Function]int{}
	for _, f := range work.Funcs {
		if !f.IsDecl() {
			slot[f] = len(slot)
		}
	}
	fds := make([]*cast.FuncDecl, len(slot))
	err = passes.ScheduleFunctions(work, rc.Workers, func(f *ir.Function) error {
		var namer decomp.Namer
		sourceNames := map[string]bool{}
		var vg *VarGenStats
		if cfg.RenameVariables {
			vs := tc.StartSpan(telemetry.CatStage, "vargen", f.Nam)
			proposal, vstats := GenerateVariables(f, tc)
			vg = vstats
			final := FinalNames(f, proposal, tc)
			for _, w := range proposal {
				sourceNames[w] = true
			}
			namer = decomp.SourceNamer(final)
			vs.End()
		}
		info := &decomp.EmitInfo{}
		eopts := decomp.Options{
			Structured: true,
			ForLoops:   cfg.RestoreForLoops,
			Fold:       cfg.FoldExpressions,
			Name:       namer,
			PragmaFor:  pragmas,
			Info:       info,
		}
		cg := tc.StartSpan(telemetry.CatStage, "cfg-gen", f.Nam)
		fd := decomp.TranslateFunction(f, eopts)
		cg.End()
		fd.Name = publicName(f.Nam)
		fds[slot[f]] = fd

		mu.Lock()
		if vg != nil {
			res.Stats.VarGen.Proposed += vg.Proposed
			res.Stats.VarGen.Conflicts += vg.Conflicts
			res.Stats.VarGen.Named += vg.Named
		}
		res.Stats.DeclaredVars += len(info.DeclaredVars)
		for _, n := range info.DeclaredVars {
			if sourceNames[n] {
				res.Stats.SourceNamedVars++
			}
		}
		mu.Unlock()
		return nil
	}, sm)
	if err != nil {
		return nil, err
	}
	file.Funcs = append(file.Funcs, fds...)
	res.C = cast.Print(file)
	return res, nil
}

// publicName strips pipeline suffixes from function names in emitted C.
func publicName(n string) string {
	n = strings.ReplaceAll(n, ".", "_")
	return n
}

// refreshPragmas rebuilds the marker→pragma map against the current
// blocks (blocks may have been merged or renamed by cleanup passes).
func refreshPragmas(m *ir.Module, old map[*ir.Block]*decomp.PragmaInfo) map[*ir.Block]*decomp.PragmaInfo {
	// Index old pragma data by region sequence number (block names may
	// have changed under later rewrites; the recorded Seq has not).
	bySeq := map[int]*decomp.PragmaInfo{}
	for _, pi := range old {
		bySeq[pi.Seq] = pi
	}
	out := map[*ir.Block]*decomp.PragmaInfo{}
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			if seq, ok := markerSeq(b.Nam); ok {
				if pi := bySeq[seq]; pi != nil {
					out[b] = pi
				} else {
					out[b] = &decomp.PragmaInfo{Schedule: "static", NoWait: true}
				}
			}
		}
	}
	return out
}

func markerSeq(name string) (int, bool) {
	if !strings.HasPrefix(name, markerPrefix) {
		return 0, false
	}
	rest := name[len(markerPrefix):]
	dot := strings.IndexByte(rest, '.')
	if dot < 0 {
		return 0, false
	}
	n, err := strconv.Atoi(rest[:dot])
	if err != nil {
		return 0, false
	}
	return n, true
}
