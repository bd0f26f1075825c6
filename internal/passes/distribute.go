package passes

import (
	"repro/internal/analysis"
	"repro/internal/ir"
)

// deadPhi reports whether in is a phi with no non-debug, non-self uses
// (mem2reg leaves such phis behind for out-of-scope variables; DCE
// removes them, but the legality check must not depend on pass order).
func deadPhi(f *ir.Function, in *ir.Instr) bool {
	if in.Op != ir.OpPhi {
		return false
	}
	for _, u := range f.Uses(in) {
		if u.Op == ir.OpDbgValue || u == in {
			continue
		}
		return false
	}
	return true
}

// baseArray walks a pointer value to its base object: a global, a
// parameter, or an alloca. Returns nil for anything else.
func baseArray(v ir.Value) ir.Value {
	for {
		switch x := v.(type) {
		case *ir.Global, *ir.Param:
			return x
		case *ir.Instr:
			switch x.Op {
			case ir.OpGEP, ir.OpBitcast:
				v = x.Args[0]
			case ir.OpAlloca:
				return x
			default:
				return nil
			}
		default:
			return nil
		}
	}
}

// DistributeLoop splits loop l into two sequential loops by store target:
// the first copy keeps only stores to arrays in group 1, the second the
// rest; dead code left behind in each copy is eliminated. This is loop
// fission by clone-and-kill, reproducing the loop-distribution output
// shown in the paper's Figure 3.
//
// Legality (checked): the loop has no live-out scalars; stores partition
// by distinct base arrays into exactly two non-empty groups; the first
// group's statements read nothing the second group writes (so running all
// of group 1 before group 2 preserves every dependence, including
// loop-carried reads of group 1's array by group 2).
func DistributeLoop(f *ir.Function, l *analysis.Loop) bool {
	pre := l.Preheader()
	if pre == nil {
		return false
	}
	exits := l.ExitBlocks()
	if len(exits) != 1 {
		return false
	}
	exit := exits[0]

	// Collect stores and their base arrays.
	var stores []*ir.Instr
	writes := map[ir.Value][]*ir.Instr{}
	for _, b := range l.BlockList() {
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpStore:
				base := baseArray(in.Args[1])
				if base == nil {
					return false
				}
				stores = append(stores, in)
				writes[base] = append(writes[base], in)
			case ir.OpCall:
				return false // calls may touch anything
			}
		}
	}
	if len(writes) < 2 {
		return false
	}
	// Group 1 = stores to the first-stored array; group 2 = the rest.
	g1base := baseArray(stores[0].Args[1])
	inG1 := func(in *ir.Instr) bool { return baseArray(in.Args[1]) == g1base }

	// Bases written by group 2.
	g2writes := map[ir.Value]bool{}
	for base := range writes {
		if base != g1base {
			g2writes[base] = true
		}
	}
	// Group 1's slice (the stores and everything feeding them) must not
	// read arrays group 2 writes.
	var slice func(v ir.Value, seen map[*ir.Instr]bool) bool
	slice = func(v ir.Value, seen map[*ir.Instr]bool) bool {
		in, ok := v.(*ir.Instr)
		if !ok || seen[in] {
			return true
		}
		seen[in] = true
		if in.Op == ir.OpLoad {
			if b := baseArray(in.Args[0]); b == nil || g2writes[b] {
				return false
			}
		}
		for _, a := range in.Args {
			if !slice(a, seen) {
				return false
			}
		}
		return true
	}
	seen := map[*ir.Instr]bool{}
	for _, st := range stores {
		if inG1(st) {
			if !slice(st.Args[0], seen) || !slice(st.Args[1], seen) {
				return false
			}
		}
	}
	// No scalar live-outs: no loop-defined value used outside the loop
	// (phi wiring inside the loop is fine; debug intrinsics and dead
	// phis they keep alive do not count).
	for _, b := range l.BlockList() {
		for _, in := range b.Instrs {
			if !in.HasResult() {
				continue
			}
			for _, u := range f.Uses(in) {
				if u.Op == ir.OpDbgValue {
					continue
				}
				if u.Parent != nil && !l.Contains(u.Parent) && !deadPhi(f, u) {
					return false
				}
			}
		}
	}

	// Clone the loop blocks.
	loopBlocks := l.BlockList()
	sub := map[ir.Value]ir.Value{}
	imap := map[*ir.Instr]*ir.Instr{}
	bmap := map[*ir.Block]*ir.Block{}
	for _, b := range loopBlocks {
		nb := f.NewBlock(b.Nam + ".dist")
		bmap[b] = nb
	}
	p2 := f.NewBlock(pre.Nam + ".dist")
	for _, b := range loopBlocks {
		for _, in := range b.Instrs {
			ci := &ir.Instr{
				Op: in.Op, Typ: in.Typ, Pred: in.Pred,
				AllocaElem: in.AllocaElem, VarName: in.VarName, SrcLine: in.SrcLine,
			}
			if in.HasResult() {
				ci.Nam = f.FreshName(in.Nam + ".dist")
				sub[in] = ci
			}
			imap[in] = ci
			bmap[b].Append(ci)
		}
	}
	for _, b := range loopBlocks {
		for i, in := range b.Instrs {
			ci := bmap[b].Instrs[i]
			for _, a := range in.Args {
				if na, ok := sub[a]; ok {
					ci.Args = append(ci.Args, na)
				} else {
					ci.Args = append(ci.Args, a)
				}
			}
			ci.Callee = in.Callee
			for _, tb := range in.Blocks {
				if nb, ok := bmap[tb]; ok {
					ci.Blocks = append(ci.Blocks, nb)
				} else {
					ci.Blocks = append(ci.Blocks, tb) // the exit
				}
			}
		}
	}
	// Wire: original loop's exit edges now go to p2; p2 branches to the
	// cloned header; cloned header phis take their init from p2.
	for _, b := range loopBlocks {
		t := b.Terminator()
		t.ReplaceBlock(exit, p2)
	}
	bd := ir.NewBuilder(f)
	bd.SetBlock(p2)
	bd.Br(bmap[l.Header])
	for _, phi := range bmap[l.Header].Phis() {
		// The clone inherited an incoming edge from the original
		// preheader; it must come from p2 instead.
		if v := phi.PhiIncoming(pre); v != nil {
			phi.RemovePhiIncoming(pre)
			phi.SetPhiIncoming(p2, v)
		}
	}
	// Exit phis: the exit's predecessors changed from original loop blocks
	// to cloned ones; no scalar live-outs were allowed, so only block
	// identities need fixing.
	for _, phi := range exit.Phis() {
		for i, b := range phi.Blocks {
			if nb, ok := bmap[b]; ok {
				phi.Blocks[i] = nb
			}
		}
	}

	// Kill group-2 stores in the original, group-1 stores in the clone.
	for _, st := range stores {
		if !inG1(st) {
			st.Parent.RemoveInstr(st)
		} else if cs := imap[st]; cs != nil {
			cs.Parent.RemoveInstr(cs)
		}
	}
	DCE(f)
	return true
}
