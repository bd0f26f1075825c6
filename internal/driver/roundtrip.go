package driver

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/splendid"
)

// RoundTripOptions configures one differential round trip.
type RoundTripOptions struct {
	// Entries are run in order on one machine per stage (shared globals
	// carry state between them, e.g. init_data → kernel → check). Empty
	// means ["main"].
	Entries []string
	// Threads is the team size of the parallel runs (<=0 means 8).
	Threads int
	// Fuel bounds instructions per run as a backstop against generator
	// bugs (<=0 means 16M). A reference run that exhausts fuel marks the
	// result FuelExhausted instead of reporting divergences.
	Fuel int64
}

// Outcome is one execution's observable behaviour, normalized for
// cross-module comparison: printed output, trap *category* (messages
// embed register names that legitimately differ between a module and
// its recompiled twin), and a digest per global. Globals are digested
// only for trap-free runs — a trap leaves partial state whose exact
// shape optimization may legally change.
type Outcome struct {
	Output    string
	Trapped   bool
	TrapKind  interp.TrapKind
	TrapEntry string
	// Err records a non-trap failure (e.g. a missing entry function in
	// the recompiled module — a recompilability bug).
	Err     string
	Globals map[string]uint64
	// Engine names the body engine that produced the outcome (empty for
	// the golden evaluator). Recorded for audit, never compared.
	Engine string
}

// Diff reports the observable differences of got against the reference
// outcome ref, as human-readable strings. Empty means equivalent.
func (ref *Outcome) Diff(got *Outcome) []string {
	var d []string
	if ref.Err != got.Err {
		d = append(d, fmt.Sprintf("error: %q vs %q", ref.Err, got.Err))
		return d
	}
	if ref.Trapped != got.Trapped {
		d = append(d, fmt.Sprintf("trapped: %v (%s @%s) vs %v (%s @%s)",
			ref.Trapped, ref.TrapKind, ref.TrapEntry, got.Trapped, got.TrapKind, got.TrapEntry))
		return d
	}
	if ref.Trapped {
		// Both trapped: the category and the entry it happened in must
		// agree; partial output and state are not compared.
		if ref.TrapKind != got.TrapKind || ref.TrapEntry != got.TrapEntry {
			d = append(d, fmt.Sprintf("trap: %s @%s vs %s @%s",
				ref.TrapKind, ref.TrapEntry, got.TrapKind, got.TrapEntry))
		}
		return d
	}
	if ref.Output != got.Output {
		d = append(d, fmt.Sprintf("output: %q vs %q", clip(ref.Output), clip(got.Output)))
	}
	names := make([]string, 0, len(ref.Globals))
	for g := range ref.Globals {
		names = append(names, g)
	}
	sort.Strings(names)
	for _, g := range names {
		hg, ok := got.Globals[g]
		if !ok {
			d = append(d, fmt.Sprintf("global @%s missing", g))
			continue
		}
		if hg != ref.Globals[g] {
			d = append(d, fmt.Sprintf("global @%s state differs (digest %016x vs %016x)", g, ref.Globals[g], hg))
		}
	}
	return d
}

func clip(s string) string {
	if len(s) > 200 {
		return s[:200] + "..."
	}
	return s
}

// RunForOutcome executes entries in order on one machine and normalizes
// the result. globals names the objects to digest (typically the
// reference module's globals, so every stage digests the same set).
func RunForOutcome(m *ir.Module, entries, globals []string, mopts interp.Options) (*Outcome, *interp.RaceReport) {
	out, mach := runForOutcome(m, entries, globals, mopts)
	return out, mach.Races()
}

// runForOutcome is RunForOutcome returning the machine itself, so
// callers can also read its profile.
func runForOutcome(m *ir.Module, entries, globals []string, mopts interp.Options) (*Outcome, *interp.Machine) {
	mach := interp.NewMachine(m, mopts)
	out := &Outcome{Globals: map[string]uint64{}, Engine: mach.EngineName()}
	for _, e := range entries {
		if _, err := mach.Run(e); err != nil {
			if kind, ok := interp.TrapKindOf(err); ok {
				out.Trapped, out.TrapKind, out.TrapEntry = true, kind, e
			} else {
				out.Err = err.Error()
			}
			break
		}
	}
	out.Output = mach.Output()
	if !out.Trapped && out.Err == "" {
		for _, g := range globals {
			if obj := mach.GlobalMem(g); obj != nil {
				out.Globals[g] = DigestCells(obj.Cells)
			}
		}
	}
	return out, mach
}

// DigestCells hashes a memory object's cells by bit pattern, so two
// runs agree exactly when every cell is bitwise identical.
func DigestCells(cells []interp.Value) uint64 {
	h := fnv.New64a()
	var buf [9]byte
	for _, c := range cells {
		buf[0] = byte(c.K)
		bits := uint64(c.I)
		if c.K == interp.KFloat {
			bits = math.Float64bits(c.F)
		}
		for i := 0; i < 8; i++ {
			buf[1+i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// Divergence is one oracle finding: a stage of the round trip whose
// observable behaviour departed from the sequential reference.
type Divergence struct {
	// Class names the invariant that broke: "opt" (optimized module at 1
	// thread vs reference), "parallel" (optimized module at N threads),
	// "bytecode" (optimized module on the register VM, 1 or N threads —
	// the lowering itself under test), "roundtrip" (recompiled
	// decompilation, 1 or N threads), "recompile" (the emitted C failed
	// the frontend), "decompile" (the decompiler itself failed), "races"
	// (the dynamic checker found conflicts or contradicted a static
	// DOALL verdict).
	Class  string
	Detail string
}

func (d Divergence) String() string { return d.Class + ": " + d.Detail }

// RoundTripResult carries every artifact and outcome of one round trip,
// enough for a caller to classify, report, and reduce a failure.
type RoundTripResult struct {
	Source string // the input C program
	RefIR  string // unoptimized IR (printed)
	OptIR  string // optimized+parallelized IR (printed) — the reducer's input
	C      string // decompiled OpenMP C ("" when decompilation failed)

	ParallelizedLoops int // loops the parallelizer outlined

	// Every outcome but Byt1/BytN comes from the reference tree-walker.
	Ref  *Outcome // reference: unoptimized IR, 1 thread
	Opt1 *Outcome // optimized+parallelized IR, 1 thread
	OptN *Outcome // optimized+parallelized IR, N threads
	Byt1 *Outcome // optimized IR on the bytecode VM, 1 thread
	BytN *Outcome // optimized IR on the bytecode VM, N threads
	Rec1 *Outcome // recompiled decompiled C, 1 thread (nil if recompile failed)
	RecN *Outcome // recompiled decompiled C, N threads

	RacesClean     bool
	Contradictions []string

	// FuelExhausted: the reference run hit the fuel backstop, so the
	// program is too expensive to compare and divergences are not
	// computed (the generator should avoid producing such programs).
	FuelExhausted bool

	Divergences []Divergence
}

// Failed reports whether the oracle found any divergence.
func (r *RoundTripResult) Failed() bool { return len(r.Divergences) > 0 }

// RoundTrip drives src through the full SPLENDID pipeline — frontend →
// O2 → parallelize → decompile → re-frontend the emitted C — executing
// the module after each trust boundary and comparing every execution
// against the unoptimized sequential reference. Any observable
// difference (output, trap category, global state, race verdict) or a
// re-frontend rejection lands in Divergences; err is reserved for
// infrastructure failures (the *input* source not compiling).
//
// The stages are invoked directly rather than through the session's
// prefix memo: a fuzzing loop feeds thousands of distinct sources, and
// memoizing each would grow the cache without any reuse.
func (s *Session) RoundTrip(name, src string, opts RoundTripOptions) (*RoundTripResult, error) {
	jb := s.startJob("roundtrip", name)
	jb.source(ir.HashBytes(src))
	res, err := s.roundTrip(name, src, opts, jb)
	if res != nil {
		jb.parallelLoops(res.ParallelizedLoops)
		jb.divergences(res.Divergences)
	}
	jb.finish(err)
	return res, err
}

func (s *Session) roundTrip(name, src string, opts RoundTripOptions, jb *jobBuilder) (*RoundTripResult, error) {
	entries := opts.Entries
	if len(entries) == 0 {
		entries = []string{"main"}
	}
	threads := opts.Threads
	if threads <= 0 {
		threads = 8
	}
	fuel := opts.Fuel
	if fuel <= 0 {
		fuel = 16_000_000
	}

	ref, err := s.frontend(src, name, jb)
	if err != nil {
		return nil, fmt.Errorf("roundtrip frontend: %w", err)
	}
	res := &RoundTripResult{Source: src, RefIR: ref.Print(), RacesClean: true}
	var globals []string
	for _, g := range ref.Globals {
		globals = append(globals, g.Nam)
	}

	// Every run but the bytecode boundary is an oracle run and names the
	// reference tree-walker, so the oracle never compares the default
	// engine with itself.
	tree, err := EngineFor("tree")
	if err != nil {
		return nil, err
	}
	res.Ref, _ = RunForOutcome(ref, entries, globals, interp.Options{NumThreads: 1, Fuel: fuel, Body: tree})
	if res.Ref.Trapped && res.Ref.TrapKind == interp.TrapFuel {
		res.FuelExhausted = true
		return res, nil
	}

	// Optimize+parallelize a private clone so RefIR stays the pristine
	// frontend output.
	opt, err := ir.Parse(res.RefIR)
	if err != nil {
		return nil, fmt.Errorf("roundtrip reparse: %w", err)
	}
	if err := s.optimize(opt, jb); err != nil {
		return nil, fmt.Errorf("roundtrip optimize: %w", err)
	}
	pres, err := s.parallelize(opt, jb)
	if err != nil {
		return nil, fmt.Errorf("roundtrip parallelize: %w", err)
	}
	for _, n := range pres.Parallelized {
		res.ParallelizedLoops += n
	}
	res.OptIR = opt.Print()

	res.Opt1, _ = RunForOutcome(opt, entries, globals, interp.Options{NumThreads: 1, Fuel: fuel, Body: tree})
	// The N-thread run also collects a parallel-region profile when the
	// job is being flight-recorded, so /debug/jobs shows each round
	// trip's runtime shape alongside its verdicts.
	outN, machN := runForOutcome(opt, entries, globals, interp.Options{
		NumThreads: threads, Fuel: fuel, CheckRaces: true,
		Profile: jb.active(), Metrics: s.opts.Metrics, Body: tree,
	})
	races := machN.Races()
	res.OptN = outN
	res.RacesClean = races.Clean()
	res.Contradictions = races.CrossCheck(opt)
	jb.profile(machN.Profile())
	jb.raceVerdict(races)

	diverge := func(class string, diffs []string) {
		for _, d := range diffs {
			res.Divergences = append(res.Divergences, Divergence{Class: class, Detail: d})
		}
	}
	diverge("opt", res.Ref.Diff(res.Opt1))
	diverge("parallel", res.Ref.Diff(res.OptN))

	// The bytecode VM executes the same optimized module as an extra
	// trust boundary: its lowering (register allocation, phi moves,
	// superinstruction fusion) must be observationally invisible.
	byt, err := EngineFor("bytecode")
	if err != nil {
		return nil, err
	}
	res.Byt1, _ = RunForOutcome(opt, entries, globals, interp.Options{NumThreads: 1, Fuel: fuel, Body: byt})
	res.BytN, _ = RunForOutcome(opt, entries, globals, interp.Options{NumThreads: threads, Fuel: fuel, Body: byt})
	diverge("bytecode", res.Ref.Diff(res.Byt1))
	diverge("bytecode", res.Ref.Diff(res.BytN))
	if !res.RacesClean {
		diverge("races", []string{fmt.Sprintf("dynamic checker found conflicts at %d threads", threads)})
	}
	for _, c := range res.Contradictions {
		diverge("races", []string{c})
	}

	dec, err := s.decompile(opt, decompileKey{cfg: splendid.Full()}, jb)
	if err != nil {
		diverge("decompile", []string{err.Error()})
		return res, nil
	}
	res.C = dec.C
	rec, err := s.frontend(dec.C, name+".rec", jb)
	if err != nil {
		// The paper's recompilability claim: emitted C the frontend
		// rejects is a finding, not an infrastructure error.
		diverge("recompile", []string{err.Error()})
		return res, nil
	}
	if err := s.optimize(rec, jb); err != nil {
		diverge("recompile", []string{fmt.Sprintf("optimizing recompiled module: %v", err)})
		return res, nil
	}
	res.Rec1, _ = RunForOutcome(rec, entries, globals, interp.Options{NumThreads: 1, Fuel: fuel, Body: tree})
	res.RecN, _ = RunForOutcome(rec, entries, globals, interp.Options{NumThreads: threads, Fuel: fuel, Body: tree})
	diverge("roundtrip", res.Ref.Diff(res.Rec1))
	diverge("roundtrip", res.Ref.Diff(res.RecN))
	return res, nil
}
