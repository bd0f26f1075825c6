package splendid

import (
	"repro/internal/analysis"
	"repro/internal/ir"
	"repro/internal/passes"
	"repro/internal/telemetry"
)

// DerotateLoops is the Loop-Rotate Detransformer (paper §4.2): it
// converts rotated counted loops (exit test on the stepped value at the
// latch, behind a zero-trip guard) back into canonical for-loop shape
// (exit test on the induction variable at a fresh header), and removes
// the guard check when it is provably equivalent to the initial exit
// test of the constructed for loop. Returns the number of loops
// de-rotated.
//
// The loop forest is queried through am (nil computes fresh), whose
// content hashing absorbs the invalidation bookkeeping of the rewrite
// loops: settled iterations hit the cache instead of recomputing
// dominators. Each de-rotation and each guard proved redundant (the
// derotate.guards-proved counter) is recorded on tc.
func DerotateLoops(f *ir.Function, am *analysis.Manager, tc *telemetry.Ctx) int {
	n := 0
	for i := 0; i < 64; i++ {
		li := am.Loops(f)
		done := true
		for _, l := range li.All {
			if derotateOne(f, l, tc) {
				n++
				done = false
				break // analyses invalidated
			}
		}
		if done {
			break
		}
	}
	if n > 0 {
		passes.DCE(f)
		passes.SimplifyCFG(f)
	}
	// Second sweep: guards hoisted above the (now canonical) loops — the
	// caller-side zero-trip checks around inlined parallel regions — are
	// redundant copies of the loop entry test; eliminate them.
	for i := 0; i < 16; i++ {
		li := am.Loops(f)
		changed := false
		for _, l := range li.All {
			cl := analysis.AnalyzeCountedLoop(l)
			if cl == nil || cl.Rotated {
				continue
			}
			pre := l.Preheader()
			if pre == nil {
				continue
			}
			exits := l.ExitBlocks()
			if len(exits) != 1 {
				continue
			}
			if eliminateHoistedGuard(f, cl, pre, l.Header, exits[0]) {
				tc.Count("derotate.guards-proved", 1)
				tc.Remarkf("derotate", f.Nam, l.Header.Nam, 1,
					"proved hoisted zero-trip guard above loop at %s redundant with the for-loop entry test; guard removed (§4.2)",
					l.Header.Nam)
				passes.DCE(f)
				passes.SimplifyCFG(f)
				changed = true
				break
			}
		}
		if !changed {
			break
		}
	}
	return n
}

// derotateOne inverts loop rotation on a single loop.
func derotateOne(f *ir.Function, l *analysis.Loop, tc *telemetry.Ctx) bool {
	cl := analysis.AnalyzeCountedLoop(l)
	if cl == nil || !cl.Rotated || !cl.CmpOnNext {
		return false
	}
	B := l.Header // rotated loops start executing at the body
	latch := l.Latch()
	if latch == nil {
		return false
	}
	pre := l.Preheader()
	if pre == nil {
		return false
	}
	// Find the exit block.
	var exit *ir.Block
	for _, s := range cl.CondBr.Blocks {
		if !l.Contains(s) {
			exit = s
		}
	}
	if exit == nil {
		return false
	}

	// The inclusive bound for the reconstructed header test:
	// continue while iv <= bound-1 for slt (iv < bound ⇔ iv <= bound-1),
	// iv <= bound for sle; symmetrically for negative steps.
	bd := ir.NewBuilder(f)
	newH := f.NewBlock("for.cond")
	bd.SetBlock(newH)

	var incl ir.Value
	var pred ir.CmpPred
	switch cl.ContinuePred {
	case ir.CmpSLT:
		incl = foldSub1(f, newH, cl.Bound)
		pred = ir.CmpSLE
	case ir.CmpSLE:
		incl = cl.Bound
		pred = ir.CmpSLE
	case ir.CmpSGT:
		incl = foldAdd1(f, newH, cl.Bound)
		pred = ir.CmpSGE
	case ir.CmpSGE:
		incl = cl.Bound
		pred = ir.CmpSGE
	default:
		f.RemoveBlock(newH)
		return false
	}

	// Move the phis from the rotated body head to the new header.
	phis := B.Phis()
	for i := len(phis) - 1; i >= 0; i-- {
		B.RemoveInstr(phis[i])
		newH.InsertAt(0, phis[i])
	}
	// Debug intrinsics describing those phis move along.
	for idx := 0; idx < len(B.Instrs); {
		in := B.Instrs[idx]
		isPhiDbg := in.Op == ir.OpDbgValue
		if isPhiDbg {
			if arg, ok := in.Args[0].(*ir.Instr); !ok || arg.Op != ir.OpPhi || arg.Parent != newH {
				isPhiDbg = false
			}
		}
		if isPhiDbg {
			B.Remove(idx)
			newH.InsertAt(newH.FirstNonPhi(), in)
			continue
		}
		idx++
	}

	cmp2 := bd.ICmp(pred, cl.IV, incl, f.FreshName("cmp"))
	_ = cmp2
	bd.CondBr(cmp2, B, exit)

	// Rewire edges: preheader and latch feed the new header; the latch's
	// rotated exit test dies.
	pre.Terminator().ReplaceBlock(B, newH)
	lt := latch.Terminator()
	lt.Op = ir.OpBr
	lt.Args = nil
	lt.Blocks = []*ir.Block{newH}

	// Exit phis: entries from the latch now come from the new header.
	// Where the entry carried a latch-incoming value of a moved phi, the
	// phi itself is the correct value: it merges the zero-trip (initial)
	// and loop-exit (latest) cases that the rotated form kept on two
	// separate edges.
	for _, ephi := range exit.Phis() {
		v := ephi.PhiIncoming(latch)
		if v == nil {
			continue
		}
		nv := v
		for _, p := range phis {
			if p.PhiIncoming(latch) == v {
				nv = ir.Value(p)
				break
			}
		}
		ephi.RemovePhiIncoming(latch)
		ephi.SetPhiIncoming(newH, nv)
	}

	// Guard-check elimination: the preheader's conditional branch guards
	// zero-trip entry. It is redundant iff its condition equals the new
	// header's first evaluation: cmp(contPred, init, bound). Prove the
	// equivalence structurally and drop the guard (paper §4.2).
	if gt := pre.Terminator(); gt != nil && gt.Op == ir.OpCondBr {
		if guardEquivalent(gt, cl, newH, exit) {
			// Replace with an unconditional branch into the loop.
			gt.Op = ir.OpBr
			gt.Args = nil
			gt.Blocks = []*ir.Block{newH}
			for _, phi := range exit.Phis() {
				phi.RemovePhiIncoming(pre)
			}
			tc.Count("derotate.guards-proved", 1)
			tc.Remarkf("derotate", f.Nam, newH.Nam, 1,
				"proved zero-trip guard equivalent to reconstructed for-loop entry test at %s; guard removed (§4.2)",
				newH.Nam)
		}
	}

	tc.Count("derotate.loops", 1)
	tc.Remarkf("derotate", f.Nam, newH.Nam, 1,
		"de-rotated do-while loop (body %s) into canonical for-loop with fresh header %s (§4.2)",
		B.Nam, newH.Nam)

	// The marker naming must survive: if B carried a splendid marker,
	// transfer it to the new header so pragma placement follows the loop.
	if hasMarker(B.Nam) {
		newH.Nam, B.Nam = B.Nam, f.FreshName("for.body")
	}
	return true
}

// eliminateHoistedGuard handles the shape
//
//	p2:   br i1 (init pred bound), %pre, %join
//	pre:  <pure>  br %for.cond
//	...loop... exit: <pure> br %join
//
// where the guard condition equals the for loop's first evaluation: the
// zero-trip case may then flow through the (pure) preheader and loop
// test instead of branching around them.
func eliminateHoistedGuard(f *ir.Function, cl *analysis.CountedLoop, pre, loopEntry, exit *ir.Block) bool {
	// Climb from the preheader through pure single-pred straight-line
	// blocks to the conditional guard.
	top := pre
	for i := 0; i < 8; i++ {
		if !blockPure(top) {
			return false
		}
		preds := top.Preds()
		if len(preds) != 1 {
			return false
		}
		p2 := preds[0]
		gt := p2.Terminator()
		if gt == nil {
			return false
		}
		if gt.Op == ir.OpBr {
			top = p2
			continue
		}
		if gt.Op != ir.OpCondBr {
			return false
		}
		var join *ir.Block
		switch {
		case gt.Blocks[0] == top:
			join = gt.Blocks[1]
		case gt.Blocks[1] == top:
			join = gt.Blocks[0]
		default:
			return false
		}
		// The loop exit must reach join through pure, branch-only blocks,
		// so skipping the guard changes no effects in the zero-trip case.
		if !purelyReaches(exit, join, 8) {
			return false
		}
		if !guardEquivalent(gt, cl, top, join) {
			return false
		}
		for _, phi := range join.Phis() {
			// The skip edge disappears; the same value arrives via the
			// loop exit path (the derotated exit phis merge the
			// zero-trip case).
			phi.RemovePhiIncoming(p2)
		}
		gt.Op = ir.OpBr
		gt.Args = nil
		gt.Blocks = []*ir.Block{top}
		return true
	}
	return false
}

// purelyReaches reports whether from reaches to through unconditional
// branches over side-effect-free blocks (bounded walk).
func purelyReaches(from, to *ir.Block, limit int) bool {
	b := from
	for i := 0; i < limit; i++ {
		if b == to {
			return true
		}
		if !blockPure(b) {
			return false
		}
		t := b.Terminator()
		if t == nil || t.Op != ir.OpBr {
			return false
		}
		b = t.Blocks[0]
	}
	return false
}

func blockPure(b *ir.Block) bool {
	for _, in := range b.Instrs {
		switch in.Op {
		case ir.OpStore, ir.OpCall:
			return false
		}
	}
	return true
}

func hasMarker(name string) bool {
	return len(name) >= len(markerPrefix) && name[:len(markerPrefix)] == markerPrefix
}

// foldSub1 returns bound-1, reusing constants where possible.
func foldSub1(f *ir.Function, blk *ir.Block, bound ir.Value) ir.Value {
	if c, ok := bound.(*ir.ConstInt); ok {
		return ir.IntConst(c.Typ, c.V-1)
	}
	in := &ir.Instr{Op: ir.OpSub, Typ: bound.Type(), Nam: f.FreshName("ub"),
		Args: []ir.Value{bound, ir.I64Const(1)}}
	blk.InsertAt(0, in)
	return in
}

func foldAdd1(f *ir.Function, blk *ir.Block, bound ir.Value) ir.Value {
	if c, ok := bound.(*ir.ConstInt); ok {
		return ir.IntConst(c.Typ, c.V+1)
	}
	in := &ir.Instr{Op: ir.OpAdd, Typ: bound.Type(), Nam: f.FreshName("lb"),
		Args: []ir.Value{bound, ir.I64Const(1)}}
	blk.InsertAt(0, in)
	return in
}

// guardEquivalent proves the rotation guard tests the same condition the
// reconstructed for loop tests on entry: guard ≡ (init contPred bound),
// with the loop on the corresponding edge. Both operand orders and both
// polarities are accepted.
func guardEquivalent(guard *ir.Instr, cl *analysis.CountedLoop, loopEntry, exit *ir.Block) bool {
	cmp, ok := guard.Args[0].(*ir.Instr)
	if !ok || cmp.Op != ir.OpICmp {
		return false
	}
	toLoop := guard.Blocks[0] == loopEntry
	if !toLoop && guard.Blocks[0] != exit {
		return false
	}
	// Normalize: predicate under which control enters the loop.
	pred := cmp.Pred
	if !toLoop {
		pred = pred.Inverse()
	}
	a, b := cmp.Args[0], cmp.Args[1]
	// Accept (init pred bound) and (bound pred' init).
	if eqValue(a, cl.Init) && eqValue(b, cl.Bound) && pred == cl.ContinuePred {
		return true
	}
	if eqValue(a, cl.Bound) && eqValue(b, cl.Init) && pred.Swapped() == cl.ContinuePred {
		return true
	}
	// Also accept the inclusive form produced by the runtime shape:
	// init <= bound-1 style, i.e. (init sle X) where X+1 == bound.
	if pred == ir.CmpSLE && cl.ContinuePred == ir.CmpSLT && eqValue(a, cl.Init) && offByOne(b, cl.Bound) {
		return true
	}
	if pred == ir.CmpSGE && cl.ContinuePred == ir.CmpSGT && eqValue(a, cl.Init) && offByOneUp(b, cl.Bound) {
		return true
	}
	// And the converse: the loop tests init <= B-1 while the guard tests
	// init < B  (n >= 1 ⇔ n-1 >= 0).
	if pred == ir.CmpSLT && cl.ContinuePred == ir.CmpSLE && eqValue(a, cl.Init) && offByOne(cl.Bound, b) {
		return true
	}
	if pred == ir.CmpSGT && cl.ContinuePred == ir.CmpSGE && eqValue(a, cl.Init) && offByOneUp(cl.Bound, b) {
		return true
	}
	return false
}

func eqValue(a, b ir.Value) bool {
	if a == b {
		return true
	}
	ca, ok1 := a.(*ir.ConstInt)
	cb, ok2 := b.(*ir.ConstInt)
	return ok1 && ok2 && ca.V == cb.V
}

// offByOne reports a == b-1 for constants or a = sub(b,1) structurally.
func offByOne(a, b ir.Value) bool {
	if ca, ok := a.(*ir.ConstInt); ok {
		if cb, ok := b.(*ir.ConstInt); ok {
			return ca.V == cb.V-1
		}
	}
	if in, ok := a.(*ir.Instr); ok && in.Op == ir.OpSub {
		if c, ok := in.Args[1].(*ir.ConstInt); ok && c.V == 1 && eqValue(in.Args[0], b) {
			return true
		}
	}
	return false
}

func offByOneUp(a, b ir.Value) bool {
	if ca, ok := a.(*ir.ConstInt); ok {
		if cb, ok := b.(*ir.ConstInt); ok {
			return ca.V == cb.V+1
		}
	}
	if in, ok := a.(*ir.Instr); ok && in.Op == ir.OpAdd {
		if c, ok := in.Args[1].(*ir.ConstInt); ok && c.V == 1 && eqValue(in.Args[0], b) {
			return true
		}
	}
	return false
}
