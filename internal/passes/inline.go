package passes

import (
	"repro/internal/ir"
)

// InlineCall replaces a direct call to a defined function with the callee
// body. The caller block is split at the call; the callee's blocks are
// cloned in with parameters substituted by arguments; each return becomes
// a branch to the continuation, and a non-void result is merged with a
// phi. Reports false (and changes nothing) for indirect calls, calls to
// declarations, and varargs mismatches.
//
// The decompiler's Loop Inliner (paper §4.1.2) builds on this: inlining
// the outlined parallel region back into the sequential caller is what
// lets debug metadata from the caller name values of the region.
func InlineCall(call *ir.Instr) bool {
	if call.Op != ir.OpCall {
		return false
	}
	callee, ok := call.Callee.(*ir.Function)
	if !ok || callee.IsDecl() {
		return false
	}
	if len(call.Args) != len(callee.Params) {
		return false
	}
	blk := call.Parent
	f := blk.Parent
	if f == callee {
		return false // no self-inlining
	}
	callIdx := blk.IndexOf(call)
	if callIdx < 0 {
		return false
	}

	// Split: everything after the call moves to a continuation block.
	cont := f.NewBlock(blk.Nam + ".cont")
	tail := blk.Instrs[callIdx+1:]
	blk.Instrs = blk.Instrs[:callIdx]
	for _, in := range tail {
		in.Parent = cont
		cont.Instrs = append(cont.Instrs, in)
	}
	// Successor phis now see cont as the predecessor.
	for _, s := range cont.Succs() {
		s.ReplacePhiPred(blk, cont)
	}

	// Clone the callee body.
	argMap := make(map[*ir.Param]ir.Value, len(callee.Params))
	for i, p := range callee.Params {
		argMap[p] = call.Args[i]
	}
	before := len(f.Blocks)
	_, bmap := ir.CloneFunctionInto(f, callee, argMap)
	cloned := f.Blocks[before:]
	entryClone := bmap[callee.Entry()]

	// Branch from the call site into the clone.
	bd := ir.NewBuilder(f)
	bd.SetBlock(blk)
	bd.Br(entryClone)

	// Rewrite cloned returns into branches to cont, merging results.
	var retVals []ir.Value
	var retBlocks []*ir.Block
	for _, cb := range cloned {
		t := cb.Terminator()
		if t == nil || t.Op != ir.OpRet {
			continue
		}
		if len(t.Args) > 0 {
			retVals = append(retVals, t.Args[0])
			retBlocks = append(retBlocks, cb)
		} else {
			retBlocks = append(retBlocks, cb)
			retVals = append(retVals, nil)
		}
		t.Op = ir.OpBr
		t.Args = nil
		t.Blocks = []*ir.Block{cont}
	}

	if call.HasResult() {
		var repl ir.Value
		switch {
		case len(retVals) == 1:
			repl = retVals[0]
		case len(retVals) > 1:
			phi := &ir.Instr{Op: ir.OpPhi, Typ: call.Typ, Nam: f.FreshName(call.Nam + ".ret")}
			for i, rb := range retBlocks {
				phi.SetPhiIncoming(rb, retVals[i])
			}
			cont.InsertAt(0, phi)
			repl = phi
		default:
			repl = ir.Undef(call.Type()) // callee never returns
		}
		f.ReplaceAllUses(call, repl)
	}
	return true
}

// InlineAll inlines every direct call in f to functions satisfying keep,
// repeating until no call remains inlinable (bounded to avoid recursion
// blowups).
func InlineAll(f *ir.Function, want func(*ir.Function) bool) bool {
	changed := false
	for iter := 0; iter < 32; iter++ {
		var target *ir.Instr
		f.Instrs(func(in *ir.Instr) {
			if target != nil || in.Op != ir.OpCall {
				return
			}
			if callee, ok := in.Callee.(*ir.Function); ok && !callee.IsDecl() && want(callee) {
				target = in
			}
		})
		if target == nil || !InlineCall(target) {
			break
		}
		changed = true
	}
	return changed
}
