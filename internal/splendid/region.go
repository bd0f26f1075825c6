package splendid

import (
	"fmt"
	"strings"

	"repro/internal/analysis"
	"repro/internal/decomp"
	"repro/internal/ir"
	"repro/internal/omp"
	"repro/internal/passes"
)

// regionInfo is what the Parallel Semantic Analyzer extracts from one
// outlined microtask (paper §4.1.1).
type regionInfo struct {
	fork      *ir.Instr
	microtask *ir.Function

	staticInit *ir.Instr
	staticFini *ir.Instr
	barrier    *ir.Instr // nil means the loop ran nowait
	gtidLoad   *ir.Instr

	// Dynamic worksharing: the dispatch pair replaces static init/fini.
	dynInit *ir.Instr
	dynNext *ir.Instr

	// initVal/ubVal are the original sequential loop parameters: the
	// values stored into the runtime's lower/upper slots before the
	// init call (paper §4.1.2 "loop parameters are restored by replacing
	// them with those used as arguments for the initialization call").
	initVal ir.Value
	ubVal   ir.Value
	// lbLoads/ubLoads read back the per-thread narrowed bounds.
	lbLoads []*ir.Instr
	ubLoads []*ir.Instr

	schedule int64
	// dispKind is the dispatch schedule constant (omp.SchedDynamic,
	// SchedGuided, or SchedAuto) when schedule == schedDynamic.
	dispKind int64
	chunk    int64
	step     int64

	// schedDynamic in the schedule field marks a dispatch-based loop.

	// combines are the atomic reduction-combine calls in the microtask
	// (paper §7 future work: reduction decompilation).
	combines []*ir.Instr
}

// markerPrefix labels restored parallel-loop headers through inlining.
const markerPrefix = "splendid.pfor."

// schedDynamic marks a dynamic worksharing region in regionInfo.schedule.
const schedDynamic = int64(-1)

// analyzeRegion inspects a fork call and its microtask. A nil result
// means the region does not match the supported OpenMP pattern (the
// paper's prototype scope: static worksharing loops).
func analyzeRegion(fork *ir.Instr) *regionInfo {
	mt := omp.Microtask(fork)
	if mt == nil || mt.IsDecl() {
		return nil
	}
	ri := &regionInfo{fork: fork, microtask: mt}
	var plower, pupper *ir.Instr
	mt.Instrs(func(in *ir.Instr) {
		switch {
		case omp.IsStaticInit(in):
			ri.staticInit = in
		case omp.IsStaticFini(in):
			ri.staticFini = in
		case omp.IsBarrier(in):
			ri.barrier = in
		case omp.IsDispatchInit(in):
			ri.dynInit = in
		case omp.IsDispatchNext(in):
			ri.dynNext = in
		case isAtomicCombineInstr(in):
			ri.combines = append(ri.combines, in)
		case in.Op == ir.OpLoad:
			if p, ok := in.Args[0].(*ir.Param); ok && len(mt.Params) > 0 && p == mt.Params[0] {
				ri.gtidLoad = in
			}
		}
	})
	if ri.dynInit != nil && ri.dynNext != nil {
		// Dynamic worksharing loop: bounds are value arguments of the
		// init call; per-chunk bounds are read back through the pointers
		// handed to dispatch_next.
		if len(ri.dynInit.Args) != 6 || len(ri.dynNext.Args) != 5 {
			return nil
		}
		// The schedule kind must be a known dispatch constant — the
		// re-sugared pragma names it (dynamic, guided, or auto), so an
		// unrecognized kind is an unsupported shape, not "dynamic".
		kind, ok := ri.dynInit.Args[1].(*ir.ConstInt)
		if !ok || !omp.IsDispatchSched(kind.V) {
			return nil
		}
		ri.schedule = schedDynamic
		ri.dispKind = kind.V
		ri.initVal = ri.dynInit.Args[2]
		ri.ubVal = ri.dynInit.Args[3]
		if c, ok := ri.dynInit.Args[5].(*ir.ConstInt); ok {
			ri.chunk = c.V
		}
		plow, _ := ri.dynNext.Args[2].(*ir.Instr)
		pup, _ := ri.dynNext.Args[3].(*ir.Instr)
		if plow == nil || pup == nil || plow == pup {
			return nil
		}
		nextPos := posOf(ri.dynNext)
		for _, use := range mt.Uses(plow) {
			if use.Op == ir.OpLoad && nextPos.before(posOf(use)) {
				ri.lbLoads = append(ri.lbLoads, use)
			}
		}
		for _, use := range mt.Uses(pup) {
			if use.Op == ir.OpLoad && nextPos.before(posOf(use)) {
				ri.ubLoads = append(ri.ubLoads, use)
			}
		}
		if len(ri.lbLoads) == 0 || len(ri.ubLoads) == 0 {
			return nil
		}
		return ri
	}
	if ri.staticInit == nil || ri.staticFini == nil || len(ri.staticInit.Args) != 8 {
		return nil
	}
	// As for dispatch, the schedule kind must be a known static
	// constant; anything else is an unsupported shape.
	sched, ok := ri.staticInit.Args[1].(*ir.ConstInt)
	if !ok || !omp.IsStaticSched(sched.V) {
		return nil
	}
	ri.schedule = sched.V
	if incr, ok := ri.staticInit.Args[6].(*ir.ConstInt); ok {
		ri.step = incr.V
	}
	if chunk, ok := ri.staticInit.Args[7].(*ir.ConstInt); ok {
		ri.chunk = chunk.V
	}
	plower, _ = ri.staticInit.Args[3].(*ir.Instr)
	pupper, _ = ri.staticInit.Args[4].(*ir.Instr)
	if plower == nil || pupper == nil || plower == pupper || plower.Op != ir.OpAlloca || pupper.Op != ir.OpAlloca {
		return nil
	}
	// Original loop parameters: the last stores into the slots before
	// the init call; per-thread bounds: loads after it.
	initPos := posOf(ri.staticInit)
	for _, use := range mt.Uses(plower) {
		switch {
		case use.Op == ir.OpStore && posOf(use).before(initPos):
			ri.initVal = use.Args[0]
		case use.Op == ir.OpLoad && initPos.before(posOf(use)):
			ri.lbLoads = append(ri.lbLoads, use)
		}
	}
	for _, use := range mt.Uses(pupper) {
		switch {
		case use.Op == ir.OpStore && posOf(use).before(initPos):
			ri.ubVal = use.Args[0]
		case use.Op == ir.OpLoad && initPos.before(posOf(use)):
			ri.ubLoads = append(ri.ubLoads, use)
		}
	}
	if ri.initVal == nil || ri.ubVal == nil || len(ri.lbLoads) == 0 || len(ri.ubLoads) == 0 {
		return nil
	}
	return ri
}

func isAtomicCombineInstr(in *ir.Instr) bool {
	_, ok := omp.IsAtomicCombine(in)
	return ok
}

type instrPos struct {
	blockIdx int
	instrIdx int
}

func posOf(in *ir.Instr) instrPos {
	f := in.Parent.Parent
	for bi, b := range f.Blocks {
		if b == in.Parent {
			return instrPos{bi, b.IndexOf(in)}
		}
	}
	return instrPos{-1, -1}
}

func (p instrPos) before(q instrPos) bool {
	if p.blockIdx != q.blockIdx {
		return p.blockIdx < q.blockIdx
	}
	return p.instrIdx < q.instrIdx
}

// detransformRegion rewrites one fork call (paper §4.1.2): it builds a
// sequentialized copy of the microtask — per-thread bounds replaced by
// the original loop parameters, runtime calls removed — inlines it at
// the fork site, and tags the restored loop header so the Pragma
// Generator can annotate it after emission. Returns the pragma recorded
// for the marker, or an error if the region does not match the supported
// pattern.
func detransformRegion(m *ir.Module, f *ir.Function, ri *regionInfo, seq int) (*decomp.PragmaInfo, error) {
	// Work on a clone so other fork sites (and the original microtask)
	// stay intact.
	mt2 := ir.CloneFunction(ri.microtask, ri.microtask.Nam+".detrans")
	// Re-locate the analysis results in the clone via re-analysis: the
	// clone is bitwise-identical in shape.
	fork2 := &ir.Instr{Op: ir.OpCall, Typ: ir.Void, Callee: m.FuncByName(omp.ForkCall),
		Args: append([]ir.Value{ri.fork.Args[0], ir.Value(mt2)}, ri.fork.Args[2:]...)}
	ri2 := analyzeRegion(fork2)
	if ri2 == nil {
		m.RemoveFunc(mt2)
		return nil, fmt.Errorf("microtask %s lost its shape under cloning", ri.microtask.Nam)
	}

	// Restore sequential loop parameters.
	for _, ld := range ri2.lbLoads {
		mt2.ReplaceAllUses(ld, ri2.initVal)
		ld.Parent.RemoveInstr(ld)
	}
	for _, ld := range ri2.ubLoads {
		mt2.ReplaceAllUses(ld, ri2.ubVal)
		ld.Parent.RemoveInstr(ld)
	}
	// Reductions: re-sequentialize each private partial. The partial phi
	// seeded with the operator's identity instead reads the caller's
	// accumulator cell, and the atomic combine becomes a plain store —
	// after inlining this is exactly the original sequential reduction.
	var reductionOps []string
	for _, combine := range ri2.combines {
		op, _ := omp.IsAtomicCombine(combine)
		if err := sequentializeReduction(mt2, combine); err != nil {
			m.RemoveFunc(mt2)
			return nil, err
		}
		reductionOps = append(reductionOps, op)
	}
	// Remove the parallel execution setup instructions. Dynamic regions
	// additionally collapse the chunk-pull loop around the body.
	if ri2.schedule == schedDynamic {
		if err := collapseDispatchLoop(mt2, ri2); err != nil {
			m.RemoveFunc(mt2)
			return nil, err
		}
	}
	for _, in := range []*ir.Instr{ri2.staticInit, ri2.staticFini, ri2.barrier} {
		if in != nil && in.Parent != nil {
			in.Parent.RemoveInstr(in)
		}
	}
	passes.DCE(mt2) // allocas, their stores, and the gtid load die here
	passes.SimplifyCFG(mt2)

	// Tag the parallelized loop: the worksharing loop is the outermost
	// loop of the microtask (inner loops are its sequential body).
	marker := fmt.Sprintf("%s%d.", markerPrefix, seq)
	li := analysis.FindLoops(mt2, analysis.NewDomTree(mt2))
	if len(li.Top) != 1 {
		m.RemoveFunc(mt2)
		return nil, fmt.Errorf("microtask %s has %d top-level loops after detransformation, want 1",
			ri.microtask.Nam, len(li.Top))
	}
	li.Top[0].Header.Nam = marker + li.Top[0].Header.Nam
	mt2.RecomputeNameSeq()

	// Loop Inliner: replace the fork call with a direct call to the
	// sequentialized body and inline it, so arguments of the fork call
	// substitute the region's parameters (the name-inference channel of
	// paper §3.3).
	blk := ri.fork.Parent
	idx := blk.IndexOf(ri.fork)
	undefGtid := ir.Undef(ir.Ptr(ir.I32))
	call := &ir.Instr{
		Op: ir.OpCall, Typ: ir.Void, Callee: mt2,
		Args: append([]ir.Value{undefGtid, undefGtid}, omp.SharedArgs(ri.fork)...),
	}
	blk.Remove(idx)
	blk.InsertAt(idx, call)
	if !passes.InlineCall(call) {
		return nil, fmt.Errorf("failed to inline detransformed region %s", mt2.Nam)
	}
	m.RemoveFunc(mt2)

	pi := &decomp.PragmaInfo{Seq: seq, Schedule: "static", NoWait: ri.barrier == nil,
		ReductionOps: reductionOps}
	if ri2.schedule == schedDynamic {
		// Re-sugar the dispatch kind by name; analyzeRegion guaranteed it
		// is a known one. schedule(auto) carries no chunk clause — its
		// chunk argument is a placeholder the runtime ignores.
		name, _ := omp.SchedName(ri2.dispKind)
		pi.Schedule = name
		pi.NoWait = false
		if ri2.dispKind != omp.SchedAuto && ri2.chunk > 1 {
			pi.Chunk = int(ri2.chunk)
		}
	} else if ri2.chunk > 1 {
		pi.Chunk = int(ri2.chunk)
	}
	return pi, nil
}

// collapseDispatchLoop sequentializes a dynamic worksharing region: the
// chunk-pull loop (while dispatch_next: run [lo,hi]) becomes a single
// pass over the full iteration space. The per-chunk bound loads were
// already replaced with the original loop parameters, so it remains to
// run the dispatch head exactly once and to delete the runtime calls.
func collapseDispatchLoop(mt *ir.Function, ri *regionInfo) error {
	head := ri.dynNext.Parent
	term := head.Terminator()
	if term == nil || term.Op != ir.OpCondBr {
		return fmt.Errorf("dispatch head of %s has no conditional branch", mt.Nam)
	}
	// The "has work" side is the one the condition enters on nonzero.
	cmp, ok := term.Args[0].(*ir.Instr)
	if !ok || cmp.Op != ir.OpICmp {
		return fmt.Errorf("dispatch condition of %s is not a compare", mt.Nam)
	}
	bodySide, endSide := term.Blocks[0], term.Blocks[1]
	if cmp.Pred == ir.CmpEQ {
		bodySide, endSide = endSide, bodySide
	}
	// Back edges into the head come from inside the pull loop; redirect
	// them to the end so the head runs once.
	dom := analysis.NewDomTree(mt)
	var moved []*ir.Block
	for _, p := range head.Preds() {
		if dom.Dominates(head, p) {
			moved = append(moved, p)
		}
	}
	if len(endSide.Phis()) > 0 {
		return fmt.Errorf("dispatch exit of %s carries phis", mt.Nam)
	}
	// The head's phis (reduction accumulators circulating through the
	// pull loop) feed the code after it. Once the back edges land on the
	// exit directly, the value that used to flow around into the head
	// must reach that code instead — otherwise every use after the loop
	// degenerates to the phi's initial value and the accumulation is
	// silently dropped.
	for _, phi := range head.Phis() {
		if len(moved) == 0 {
			break
		}
		var exit ir.Value
		if len(moved) == 1 {
			exit = phi.PhiIncoming(moved[0])
		} else {
			nphi := &ir.Instr{Op: ir.OpPhi, Typ: phi.Typ, Nam: mt.FreshName(phi.Nam + ".exit")}
			for _, p := range moved {
				nphi.Args = append(nphi.Args, phi.PhiIncoming(p))
				nphi.Blocks = append(nphi.Blocks, p)
			}
			endSide.InsertAt(0, nphi)
			exit = nphi
		}
		for _, use := range mt.Uses(phi) {
			if use == exit {
				continue
			}
			if use.Parent == endSide || dom.Dominates(endSide, use.Parent) {
				use.ReplaceUses(phi, exit)
			}
		}
		for _, p := range moved {
			phi.RemovePhiIncoming(p)
		}
	}
	for _, p := range moved {
		p.Terminator().ReplaceBlock(head, endSide)
	}
	term.Op = ir.OpBr
	term.Args = nil
	term.Blocks = []*ir.Block{bodySide}
	// Delete the runtime calls; the compare dies with them under DCE.
	ri.dynNext.Parent.RemoveInstr(ri.dynNext)
	if ri.dynInit.Parent != nil {
		ri.dynInit.Parent.RemoveInstr(ri.dynInit)
	}
	return nil
}

// sequentializeReduction rewrites one atomic combine inside a cloned
// microtask: identity-seeded partials become continuations of the
// caller's accumulator cell, and the combine becomes a plain store.
func sequentializeReduction(mt *ir.Function, combine *ir.Instr) error {
	redPtr := combine.Args[0]
	partial := combine.Args[1]
	entry := mt.Entry()

	// Load the caller's accumulator at function entry.
	load := &ir.Instr{Op: ir.OpLoad, Typ: ir.ElemOf(redPtr.Type()),
		Nam: mt.FreshName("red.init"), Args: []ir.Value{redPtr}}
	entry.InsertAt(0, load)

	// Replace every identity-constant incoming of the partial chain with
	// the loaded value: the fini merge phi and the in-loop accumulator.
	replaced := 0
	var fixPhi func(phi *ir.Instr)
	seen := map[*ir.Instr]bool{}
	fixPhi = func(phi *ir.Instr) {
		if phi == nil || phi.Op != ir.OpPhi || seen[phi] {
			return
		}
		seen[phi] = true
		for i, a := range phi.Args {
			switch a.(type) {
			case *ir.ConstInt, *ir.ConstFloat:
				phi.Args[i] = load
				replaced++
			case *ir.Instr:
				ai := a.(*ir.Instr)
				if ai.Op == ir.OpPhi {
					fixPhi(ai)
				} else if ai.Op.IsBinary() {
					// The update op; its phi operand is the accumulator.
					for _, b := range ai.Args {
						if bp, ok := b.(*ir.Instr); ok && bp.Op == ir.OpPhi {
							fixPhi(bp)
						}
					}
				}
			}
		}
	}
	pphi, ok := partial.(*ir.Instr)
	if !ok || pphi.Op != ir.OpPhi {
		return fmt.Errorf("reduction partial is not a phi: %v", partial)
	}
	fixPhi(pphi)
	if replaced == 0 {
		return fmt.Errorf("no identity seeds found for reduction in %s", mt.Nam)
	}

	// The combine becomes a plain store of the final partial.
	blk := combine.Parent
	idx := blk.IndexOf(combine)
	blk.Remove(idx)
	blk.InsertAt(idx, &ir.Instr{Op: ir.OpStore, Typ: ir.Void,
		Args: []ir.Value{partial, redPtr}})
	return nil
}

// forksItself reports whether mt reaches a fork of itself through the
// microtasks it forks. Detransforming such a region would inline the
// same fork call forever.
func forksItself(mt *ir.Function) bool {
	seen := map[*ir.Function]bool{mt: true}
	work := []*ir.Function{mt}
	found := false
	for len(work) > 0 && !found {
		f := work[len(work)-1]
		work = work[:len(work)-1]
		f.Instrs(func(in *ir.Instr) {
			if !omp.IsForkCall(in) {
				return
			}
			inner := omp.Microtask(in)
			if inner == mt {
				found = true
			}
			if inner != nil && !seen[inner] {
				seen[inner] = true
				work = append(work, inner)
			}
		})
	}
	return found
}

// DetransformParallelRegions applies the Parallel Semantic Analyzer and
// Region Detransformer to every fork call in the module. It returns the
// pragma map keyed by marker-named loop header blocks, ready for the
// control-flow generator. Microtasks with no remaining callers are
// dropped from the module.
func DetransformParallelRegions(m *ir.Module) (map[*ir.Block]*decomp.PragmaInfo, error) {
	seq := 0
	bySeq := map[int]*decomp.PragmaInfo{}
	var fns []*ir.Function
	fns = append(fns, m.Funcs...)
	for _, f := range fns {
		if f.IsDecl() || f.Outlined {
			continue
		}
		for {
			var fork *ir.Instr
			f.Instrs(func(in *ir.Instr) {
				if fork == nil && omp.IsForkCall(in) {
					fork = in
				}
			})
			if fork == nil {
				break
			}
			if mt := omp.Microtask(fork); mt != nil && forksItself(mt) {
				return nil, fmt.Errorf("@%s: parallel region @%s forks itself", f.Nam, mt.Nam)
			}
			ri := analyzeRegion(fork)
			if ri == nil {
				return nil, fmt.Errorf("@%s: unsupported parallel region shape", f.Nam)
			}
			pi, err := detransformRegion(m, f, ri, seq)
			if err != nil {
				return nil, fmt.Errorf("@%s: %w", f.Nam, err)
			}
			bySeq[seq] = pi
			seq++
		}
	}
	// Drop now-unreferenced microtasks.
	var keep []*ir.Function
	for _, fn := range m.Funcs {
		if fn.Outlined && !functionReferenced(m, fn) {
			continue
		}
		keep = append(keep, fn)
	}
	m.Funcs = keep

	// Recover the pragma map from marker block names, joining the
	// per-region pragma facts recorded during detransformation.
	pragmas := map[*ir.Block]*decomp.PragmaInfo{}
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			if !strings.HasPrefix(b.Nam, markerPrefix) {
				continue
			}
			rest := b.Nam[len(markerPrefix):]
			if dot := strings.IndexByte(rest, '.'); dot > 0 {
				if n, err := atoi(rest[:dot]); err == nil && bySeq[n] != nil {
					pragmas[b] = bySeq[n]
					continue
				}
			}
			pragmas[b] = &decomp.PragmaInfo{Schedule: "static", NoWait: true}
		}
	}
	return pragmas, nil
}

func atoi(s string) (int, error) {
	n := 0
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return 0, fmt.Errorf("not a number: %q", s)
		}
		n = n*10 + int(s[i]-'0')
	}
	return n, nil
}

func functionReferenced(m *ir.Module, fn *ir.Function) bool {
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Callee == ir.Value(fn) {
					return true
				}
				for _, a := range in.Args {
					if a == ir.Value(fn) {
						return true
					}
				}
			}
		}
	}
	return false
}
