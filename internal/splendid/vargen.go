package splendid

import (
	"sort"

	"repro/internal/ir"
	"repro/internal/telemetry"
)

// VarGenStats reports how the Variable Generator named things, feeding
// the paper's Figure 8.
type VarGenStats struct {
	// Proposed counts values that received a source-variable proposal.
	Proposed int
	// Conflicts counts proposals removed by Conflicting Definition
	// Detection (Algorithm 2).
	Conflicts int
	// Named counts values whose final name is a source variable.
	Named int
}

// GenerateVariables runs the Variable Proposer, the Most Recent Variable
// Definitions dataflow (Algorithm 1), and Conflicting Definition Removal
// (Algorithm 2) over f, returning a validated value→source-variable map
// (paper §4.3). Proposals, conflict removals, and final
// naming counts are recorded as counters on tc, and each conflict
// removal emits a remark.
func GenerateVariables(f *ir.Function, tc *telemetry.Ctx) (map[ir.Value]string, *VarGenStats) {
	stats := &VarGenStats{}

	// --- Variable Proposer / Metadata Interpreter (§4.3.1) ---
	// Debug intrinsics relate values to source variables; parameters
	// carry their source names; phi incoming values merge into the phi's
	// variable (SSA de-transformation).
	proposal := map[ir.Value]string{}
	for _, p := range f.Params {
		if p.SourceName != "" {
			proposal[p] = p.SourceName
		}
	}
	f.Instrs(func(in *ir.Instr) {
		if in.Op == ir.OpDbgValue && in.VarName != "" {
			if _, ok := in.Args[0].(*ir.Instr); ok {
				proposal[in.Args[0]] = in.VarName
			}
		}
	})
	// Phi collapse: incoming values inherit the phi's proposal (or, when
	// the phi is unnamed, its own register name) unless they already
	// carry a different source proposal.
	f.Instrs(func(in *ir.Instr) {
		if in.Op != ir.OpPhi {
			return
		}
		phiVar, ok := proposal[in]
		if !ok {
			return
		}
		for _, a := range in.Args {
			ia, isInstr := a.(*ir.Instr)
			if !isInstr {
				continue
			}
			if _, has := proposal[ia]; !has {
				proposal[ia] = phiVar
			}
		}
	})
	stats.Proposed = len(proposal)

	// --- Algorithms 1 & 2: iterate to a fixed point ---
	for round := 0; round < 8; round++ {
		conflicts := findConflicts(f, proposal)
		if len(conflicts) == 0 {
			break
		}
		for _, v := range conflicts {
			tc.Remarkf("vargen", f.Nam, v.Ident(), -1,
				"conflicting definition: dropped proposal %q for %s — another value is the most recent definition at some use (Algorithm 2, §4.3.2)",
				proposal[v], v.Ident())
			delete(proposal, v)
			stats.Conflicts++
		}
	}

	stats.Named = len(proposal)
	tc.Count("vargen.proposed", stats.Proposed)
	tc.Count("vargen.conflicts", stats.Conflicts)
	tc.Count("vargen.named", stats.Named)
	return proposal, stats
}

// findConflicts runs the most-recent-definition dataflow and returns
// values whose proposals clash: at some use of value v proposed as var w,
// the most recent definition of w is not uniquely v. The clobbering
// values' proposals are reported for removal (the paper's example keeps
// the used definition and discards the conflicting one).
func findConflicts(f *ir.Function, proposal map[ir.Value]string) []ir.Value {
	// State: var name -> set of values that may be its most recent
	// definition. Keyed per block (IN sets); merged by union.
	type state map[string]map[ir.Value]bool

	cloneState := func(s state) state {
		ns := state{}
		for k, vs := range s {
			nv := map[ir.Value]bool{}
			for v := range vs {
				nv[v] = true
			}
			ns[k] = nv
		}
		return ns
	}
	mergeInto := func(dst state, src state) bool {
		changed := false
		for k, vs := range src {
			if dst[k] == nil {
				dst[k] = map[ir.Value]bool{}
			}
			for v := range vs {
				if !dst[k][v] {
					dst[k][v] = true
					changed = true
				}
			}
		}
		return changed
	}
	gen := func(s state, v ir.Value) {
		w, ok := proposal[v]
		if !ok {
			return
		}
		s[w] = map[ir.Value]bool{v: true}
	}
	// Transfer over one block: phis define at the head, instructions at
	// their position.
	// Phi operands are uses on the incoming edge (the predecessor's
	// exit), not at the phi's own position; they are checked separately
	// against predecessor OUT states.
	apply := func(s state, b *ir.Block, stopAt *ir.Instr, onUse func(user *ir.Instr, v ir.Value, s state)) {
		for _, in := range b.Instrs {
			if in == stopAt {
				return
			}
			if in.Op != ir.OpDbgValue && in.Op != ir.OpPhi && onUse != nil {
				for _, a := range in.Args {
					if _, ok := proposal[a]; ok {
						onUse(in, a, s)
					}
				}
			}
			if in.HasResult() {
				gen(s, in)
			}
		}
	}

	ins := map[*ir.Block]state{}
	entryState := state{}
	for _, p := range f.Params {
		gen(entryState, p)
	}
	ins[f.Entry()] = entryState

	// Fixed point over block IN sets.
	for changed := true; changed; {
		changed = false
		for _, b := range f.Blocks {
			in, ok := ins[b]
			if !ok {
				continue
			}
			out := cloneState(in)
			apply(out, b, nil, nil)
			for _, s := range b.Succs() {
				if ins[s] == nil {
					ins[s] = state{}
				}
				if mergeInto(ins[s], out) {
					changed = true
				}
			}
		}
	}

	// Conflict scan: replay each block, checking proposed uses; then
	// check phi edge uses against the predecessor's OUT state.
	conflictSet := map[ir.Value]bool{}
	checkUse := func(v ir.Value, s state) {
		w := proposal[v]
		mrd := s[w]
		if len(mrd) == 1 && mrd[v] {
			return // the used definition is the unique most recent one
		}
		// Conflict: discard the proposals of the clobbering values.
		for other := range mrd {
			if other != v {
				conflictSet[other] = true
			}
		}
		if len(mrd) == 0 {
			// The variable has no reaching definition here (e.g. the
			// use precedes every def on some path): drop the used one.
			conflictSet[v] = true
		}
	}
	outs := map[*ir.Block]state{}
	for _, b := range f.Blocks {
		in, ok := ins[b]
		if !ok {
			continue
		}
		s := cloneState(in)
		apply(s, b, nil, func(user *ir.Instr, v ir.Value, s state) { checkUse(v, s) })
		outs[b] = s
	}
	for _, b := range f.Blocks {
		out, ok := outs[b]
		if !ok {
			continue
		}
		for _, succ := range b.Succs() {
			for _, phi := range succ.Phis() {
				v := phi.PhiIncoming(b)
				if v == nil {
					continue
				}
				if _, proposed := proposal[v]; proposed && v != ir.Value(phi) {
					checkUse(v, out)
				}
			}
		}
	}

	out := make([]ir.Value, 0, len(conflictSet))
	for v := range conflictSet {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Ident() < out[j].Ident() })
	return out
}

// FinalNames builds the complete value→C-name map for a function:
// validated source proposals first, IR-derived fallbacks for the rest,
// with collisions against source names suffixed away. A value that
// falls back to a synthetic (IR-derived) name does so because no debug
// metadata survived optimization for it — the loss the paper's Figure 8
// accounts — so the fallback is reported as a remark on tc instead of
// dropped silently.
func FinalNames(f *ir.Function, proposal map[ir.Value]string, tc *telemetry.Ctx) map[ir.Value]string {
	names := map[ir.Value]string{}
	reserved := map[string]bool{}
	for _, w := range proposal {
		reserved[w] = true
	}
	for v, w := range proposal {
		names[v] = w
	}
	fallback := func(v ir.Value, base string) {
		if _, ok := names[v]; ok {
			return
		}
		n := base
		if reserved[n] {
			n = n + "_r"
			for reserved[n] {
				n += "_"
			}
		}
		// Reserve the chosen name too: a later fallback may propose it as
		// its own base (e.g. params %i and %i_r when "i" is taken — both
		// would otherwise land on "i_r").
		reserved[n] = true
		names[v] = n
		if tc.Enabled() {
			if _, isInstr := v.(*ir.Instr); isInstr {
				tc.Count("vargen.synthetic-names", 1)
				tc.Remarkf("vargen", f.Nam, v.Ident(), 1,
					"no surviving debug metadata relates %s to a source variable; emitting synthetic name %q (Figure 8 accounting)",
					v.Ident(), n)
			}
		}
	}
	for _, p := range f.Params {
		fallback(p, p.Nam)
	}
	f.Instrs(func(in *ir.Instr) {
		if in.HasResult() {
			fallback(in, in.Nam)
		}
	})
	return names
}
