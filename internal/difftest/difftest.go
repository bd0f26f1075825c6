package difftest

import (
	"fmt"

	"repro/internal/cgen"
	"repro/internal/driver"
	"repro/internal/interp"
	"repro/internal/ir"
)

// Report is one differential test's complete verdict: the pipeline's
// round-trip result plus the golden-evaluator cross-check on the
// reference module. Divergences unions both sources.
type Report struct {
	Program *cgen.Program // set when the source came from the generator

	Result *driver.RoundTripResult
	Golden *driver.Outcome // golden evaluation of the reference IR

	// Divergences holds the pipeline's findings plus any "interp"-class
	// finding where the reference tree-walker itself departed from the
	// golden evaluator on the *unoptimized* module — the ground-truth
	// check that catches semantics bugs shared by the interpreter and
	// the optimizer (which one-sided differential runs cannot see).
	Divergences []driver.Divergence
}

// Failed reports whether any check found a divergence.
func (r *Report) Failed() bool { return len(r.Divergences) > 0 }

// Skipped reports whether comparisons were abandoned (fuel backstop).
func (r *Report) Skipped() bool { return r.Result != nil && r.Result.FuelExhausted }

// Check runs the full oracle on one source program: the driver's
// round trip (frontend → optimize → parallelize → decompile →
// re-frontend, executing at every trust boundary) and the golden
// cross-check of the round trip's tree-walked reference run against
// the independent evaluator. err is reserved for infrastructure
// failures — the input source not compiling, or internal pipeline
// errors.
func Check(s *driver.Session, name, src string, opts driver.RoundTripOptions) (*Report, error) {
	res, err := s.RoundTrip(name, src, opts)
	if err != nil {
		return nil, err
	}
	rep := &Report{Result: res}
	if res.FuelExhausted {
		return rep, nil
	}
	rep.Divergences = append(rep.Divergences, res.Divergences...)

	ref, err := ir.Parse(res.RefIR)
	if err != nil {
		return nil, fmt.Errorf("difftest: reparsing reference IR: %w", err)
	}
	entries := opts.Entries
	if len(entries) == 0 {
		entries = []string{"main"}
	}
	fuel := opts.Fuel
	if fuel <= 0 {
		fuel = 16_000_000
	}
	var globals []string
	for _, g := range ref.Globals {
		globals = append(globals, g.Nam)
	}
	rep.Golden = GoldenRun(ref, entries, globals, fuel)
	for _, d := range rep.Golden.Diff(res.Ref) {
		rep.Divergences = append(rep.Divergences, driver.Divergence{Class: "interp", Detail: d})
	}
	return rep, nil
}

// ModuleDiverges reports whether m is self-inconsistent: the golden
// evaluator disagrees with the reference tree-walker at 1 thread, the
// bytecode VM departs from the tree-walker on the same module, or the
// module's N-thread tree-walked run departs from its own 1-thread run.
// This is the reducer's predicate of choice — comparing a mutated candidate
// against the *original* program's reference outcome would flag every
// behaviour-changing shrink as "failing", whereas self-consistency only
// holds the candidate to agreeing with itself and with ground truth.
func ModuleDiverges(m *ir.Module, entries []string, threads int) bool {
	const fuel = 16_000_000
	var globals []string
	for _, g := range m.Globals {
		globals = append(globals, g.Nam)
	}
	tree, _ := driver.EngineFor("tree")
	prod1, _ := driver.RunForOutcome(m, entries, globals,
		interp.Options{NumThreads: 1, Fuel: fuel, Body: tree})
	if prod1.Trapped && prod1.TrapKind == interp.TrapFuel {
		return false // non-terminating mutant, not a reproducer
	}
	golden := GoldenRun(m, entries, globals, fuel)
	if len(golden.Diff(prod1)) > 0 {
		return true
	}
	byt, _ := driver.EngineFor("bytecode")
	byt1, _ := driver.RunForOutcome(m, entries, globals,
		interp.Options{NumThreads: 1, Fuel: fuel, Body: byt})
	if len(prod1.Diff(byt1)) > 0 {
		return true
	}
	if threads > 1 {
		prodN, _ := driver.RunForOutcome(m, entries, globals,
			interp.Options{NumThreads: threads, Fuel: fuel, Body: tree})
		if len(prod1.Diff(prodN)) > 0 {
			return true
		}
	}
	return false
}

// CheckSeed generates the program for seed and runs the oracle on it.
func CheckSeed(s *driver.Session, seed uint64, opts driver.RoundTripOptions) (*Report, error) {
	p := cgen.Generate(cgen.Default(seed))
	if len(opts.Entries) == 0 {
		opts.Entries = p.Entries
	}
	rep, err := Check(s, fmt.Sprintf("gen%d", seed), p.Source, opts)
	if err != nil {
		return nil, fmt.Errorf("seed %d: %w", seed, err)
	}
	rep.Program = p
	return rep, nil
}
