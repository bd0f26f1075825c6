package passes

import (
	"repro/internal/analysis"
	"repro/internal/ir"
)

// UnrollLoop unrolls a counted, non-rotated loop by the given factor,
// keeping the original loop structure and multiplying the step: the body
// is replicated factor-1 times with the induction variable offset by
// k*step in replica k. Used to reproduce the paper's Figure 3 case study,
// where SPLENDID deliberately leaves unrolling visible in the decompiled
// source.
//
// Requirements: a constant trip count divisible by factor; the loop body
// is a single block followed by (or merged with) a single latch; the only
// loop-carried values are the induction variable itself; no value defined
// in the body is used outside it.
func UnrollLoop(f *ir.Function, l *analysis.Loop, factor int) bool {
	if factor < 2 {
		return false
	}
	cl := analysis.AnalyzeCountedLoop(l)
	if cl == nil || cl.Rotated {
		return false
	}
	trip, ok := cl.TripCount()
	if !ok || trip%int64(factor) != 0 {
		return false
	}
	// Identify body and latch. Accepted shapes:
	//   H -> B -> L -> H  (body block, latch with the step)
	//   H -> BL -> H      (combined body+latch)
	H := l.Header
	L := l.Latch()
	if L == nil {
		return false
	}
	var B *ir.Block
	for _, s := range H.Succs() {
		if l.Contains(s) {
			B = s
		}
	}
	if B == nil || B == H {
		return false
	}
	if B != L {
		// B's single successor must be L, and L must only step+branch.
		succs := B.Succs()
		if len(succs) != 1 || succs[0] != L {
			return false
		}
	}
	// Only the IV phi may be loop-carried.
	if len(H.Phis()) != 1 || H.Phis()[0] != cl.IV {
		return false
	}
	// No body-defined value may be used outside the body (stores are fine).
	bodyDefs := map[*ir.Instr]bool{}
	for _, in := range B.Instrs {
		if in.HasResult() {
			bodyDefs[in] = true
		}
	}
	for _, b := range f.Blocks {
		if b == B {
			continue
		}
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				ia, ok := a.(*ir.Instr)
				if !ok || !bodyDefs[ia] {
					continue
				}
				// The IV phi consuming the step is the one allowed
				// loop-carried use.
				if in == cl.IV && ia == cl.StepInstr {
					continue
				}
				return false
			}
		}
	}

	// Replicate the body: clones go right before B's terminator.
	termIdx := B.IndexOf(B.Terminator())
	insertAt := termIdx
	if B == L {
		// In a combined block the step instruction must stay last; insert
		// clones before it.
		if idx := B.IndexOf(cl.StepInstr); idx >= 0 && idx < insertAt {
			insertAt = idx
		}
	}
	origBody := make([]*ir.Instr, 0, insertAt)
	for _, in := range B.Instrs[:insertAt] {
		if in == cl.StepInstr {
			continue
		}
		origBody = append(origBody, in)
	}
	for k := 1; k < factor; k++ {
		sub := map[ir.Value]ir.Value{}
		// iv_k = iv + k*step
		ofs := &ir.Instr{
			Op: ir.OpAdd, Typ: cl.IV.Typ,
			Nam:  f.FreshName(cl.IV.Nam + ".u"),
			Args: []ir.Value{cl.IV, ir.IntConst(cl.IV.Typ.(*ir.BasicType), int64(k)*cl.Step)},
		}
		B.InsertAt(insertAt, ofs)
		insertAt++
		sub[cl.IV] = ofs
		for _, in := range origBody {
			if in.Op == ir.OpDbgValue {
				continue
			}
			ci := &ir.Instr{
				Op: in.Op, Typ: in.Typ, Pred: in.Pred,
				AllocaElem: in.AllocaElem, SrcLine: in.SrcLine,
			}
			if in.HasResult() {
				ci.Nam = f.FreshName(in.Nam + ".u")
				sub[in] = ci
			}
			for _, a := range in.Args {
				if na, ok := sub[a]; ok {
					ci.Args = append(ci.Args, na)
				} else {
					ci.Args = append(ci.Args, a)
				}
			}
			ci.Callee = in.Callee
			B.InsertAt(insertAt, ci)
			insertAt++
		}
	}
	// Multiply the step constant.
	for i, a := range cl.StepInstr.Args {
		if c, ok := a.(*ir.ConstInt); ok {
			cl.StepInstr.Args[i] = ir.IntConst(c.Typ, c.V*int64(factor))
			break
		}
	}
	return true
}
