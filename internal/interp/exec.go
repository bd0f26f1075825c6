package interp

import (
	"repro/internal/ir"
)

// treeEngine is the reference BodyEngine: a direct tree-walk over the
// SSA form, evaluating operands by slot lookup and dispatching on the
// instruction opcode. It trades speed for obviousness — the bytecode VM
// in internal/vm is differentially tested against it.
type treeEngine struct{}

// NewTreeEngine returns the tree-walking reference engine.
func NewTreeEngine() BodyEngine { return treeEngine{} }

func (treeEngine) Name() string { return "tree" }

// frame holds the SSA values of one activation.
type frame struct {
	fn    *ir.Function
	info  *funcInfo
	slots []Value
}

func (fr *frame) set(v ir.Value, val Value) {
	fr.slots[fr.info.slots[v]] = val
}

// eval resolves an operand in the current frame.
func (rt *RT) eval(fr *frame, v ir.Value) Value {
	switch x := v.(type) {
	case *ir.ConstInt:
		return IntV(x.V)
	case *ir.ConstFloat:
		return FloatV(x.V)
	case *ir.ConstNull:
		return PtrV(Pointer{})
	case *ir.ConstUndef:
		return Value{K: KUndef}
	case *ir.Global:
		return PtrV(Pointer{Obj: rt.m.globals[x]})
	case *ir.Function:
		return FuncV(x)
	case *ir.Param, *ir.Instr:
		return fr.slots[fr.info.slots[v]]
	}
	rt.Trapf("unknown operand %v", v)
	return Value{}
}

// RunBody interprets f's blocks with the given argument values.
func (treeEngine) RunBody(rt *RT, f *ir.Function, args []Value) Value {
	fi := rt.m.info(f)
	fr := &frame{fn: f, info: fi, slots: make([]Value, fi.numSlots)}
	for i, p := range f.Params {
		fr.set(p, args[i])
	}

	block := f.Entry()
	var prev *ir.Block
	for {
		// Phase 1: evaluate all phis against prev before writing any.
		nPhi := 0
		for _, in := range block.Instrs {
			if in.Op != ir.OpPhi {
				break
			}
			nPhi++
		}
		if nPhi > 0 {
			tmp := make([]Value, nPhi)
			for i := 0; i < nPhi; i++ {
				phi := block.Instrs[i]
				inc := phi.PhiIncoming(prev)
				if inc == nil {
					rt.Trapf("phi %%%s has no incoming from %%%s", phi.Nam, prev.Nam)
				}
				tmp[i] = rt.eval(fr, inc)
			}
			for i := 0; i < nPhi; i++ {
				fr.set(block.Instrs[i], tmp[i])
			}
		}

		// Phase 2: straight-line execution.
		for _, in := range block.Instrs[nPhi:] {
			rt.Step(1)
			switch in.Op {
			case ir.OpBr:
				prev, block = block, in.Blocks[0]
			case ir.OpCondBr:
				c := rt.eval(fr, in.Args[0])
				if c.I != 0 {
					prev, block = block, in.Blocks[0]
				} else {
					prev, block = block, in.Blocks[1]
				}
			case ir.OpRet:
				if len(in.Args) == 1 {
					return rt.eval(fr, in.Args[0])
				}
				return Value{K: KUndef}
			default:
				rt.execInstr(fr, in)
				continue
			}
			break // took a branch
		}
	}
}

func (rt *RT) execInstr(fr *frame, in *ir.Instr) {
	switch in.Op {
	case ir.OpAlloca:
		if t := AllocLimitTrap(in.Nam, ir.SizeOfElems(in.AllocaElem)); t != nil {
			panic(t)
		}
		fr.set(in, PtrV(Pointer{Obj: NewZeroedObject(in.Nam, in.AllocaElem)}))

	case ir.OpLoad:
		p := rt.eval(fr, in.Args[0])
		fr.set(in, rt.load(p, in))

	case ir.OpStore:
		v := rt.eval(fr, in.Args[0])
		p := rt.eval(fr, in.Args[1])
		rt.store(p, v, in)

	case ir.OpGEP:
		base := rt.eval(fr, in.Args[0])
		if base.K != KPtr || base.P.Nil() {
			rt.Trapf("gep on non-pointer/null in %%%s", in.Nam)
		}
		off := base.P.Off
		t := ir.ElemOf(in.Args[0].Type())
		idx0 := rt.eval(fr, in.Args[1])
		off += int(idx0.I) * ir.SizeOfElems(t)
		for _, iv := range in.Args[2:] {
			arr, ok := t.(*ir.ArrayType)
			if !ok {
				rt.Trapf("gep descends into non-array")
			}
			t = arr.Elem
			idx := rt.eval(fr, iv)
			off += int(idx.I) * ir.SizeOfElems(t)
		}
		fr.set(in, PtrV(Pointer{Obj: base.P.Obj, Off: off}))

	case ir.OpICmp:
		a, b := rt.eval(fr, in.Args[0]), rt.eval(fr, in.Args[1])
		var ai, bi int64
		if a.K == KPtr || b.K == KPtr {
			// Pointer comparison: same-object offsets, or object identity
			// via a synthetic linear address for cross-object compares
			// (the parallelizer's alias checks compare related pointers).
			ai, bi = PtrOrdinal(a), PtrOrdinal(b)
		} else {
			ai, bi = a.I, b.I
		}
		fr.set(in, Bool(CmpInt(in.Pred, ai, bi)))

	case ir.OpFCmp:
		a, b := rt.eval(fr, in.Args[0]), rt.eval(fr, in.Args[1])
		fr.set(in, Bool(CmpFloat(in.Pred, a.F, b.F)))

	case ir.OpSelect:
		c := rt.eval(fr, in.Args[0])
		if c.I != 0 {
			fr.set(in, rt.eval(fr, in.Args[1]))
		} else {
			fr.set(in, rt.eval(fr, in.Args[2]))
		}

	case ir.OpCall:
		callee := in.Callee
		var fn *ir.Function
		switch c := callee.(type) {
		case *ir.Function:
			fn = c
		default:
			cv := rt.eval(fr, callee)
			if cv.K != KFunc {
				rt.Trapf("indirect call through non-function")
			}
			fn = cv.Fn
		}
		args := make([]Value, len(in.Args))
		for i, a := range in.Args {
			args[i] = rt.eval(fr, a)
		}
		ret := rt.Call(fn, args)
		if in.HasResult() {
			fr.set(in, ret)
		}

	case ir.OpDbgValue:
		// No runtime effect.

	case ir.OpFNeg:
		a := rt.eval(fr, in.Args[0])
		fr.set(in, FloatV(-a.F))

	case ir.OpSExt, ir.OpZExt, ir.OpTrunc, ir.OpBitcast, ir.OpPtrToInt, ir.OpIntToPtr:
		fr.set(in, rt.eval(fr, in.Args[0]))

	case ir.OpSIToFP:
		a := rt.eval(fr, in.Args[0])
		fr.set(in, FloatV(float64(a.I)))

	case ir.OpFPToSI:
		a := rt.eval(fr, in.Args[0])
		fr.set(in, IntV(int64(a.F)))

	case ir.OpFPExt, ir.OpFPTrunc:
		fr.set(in, rt.eval(fr, in.Args[0]))

	default:
		if in.Op.IsBinary() {
			a, b := rt.eval(fr, in.Args[0]), rt.eval(fr, in.Args[1])
			fr.set(in, rt.binop(in, a, b))
			return
		}
		rt.Trapf("unimplemented op %s", in.Op)
	}
}

func (rt *RT) load(p Value, in *ir.Instr) Value {
	if p.K != KPtr || p.P.Nil() {
		rt.TrapKindf(TrapNullDeref, "load through null/non-pointer at %%%s", in.Nam)
	}
	if p.P.Off < 0 || p.P.Off >= len(p.P.Obj.Cells) {
		rt.TrapKindf(TrapMemOOB, "load out of bounds: %s+%d (size %d)", p.P.Obj.Name, p.P.Off, len(p.P.Obj.Cells))
	}
	rt.NoteAccess(p.P.Obj, p.P.Off, false)
	return p.P.Obj.Cells[p.P.Off]
}

func (rt *RT) store(p, v Value, in *ir.Instr) {
	if p.K != KPtr || p.P.Nil() {
		rt.TrapKindf(TrapNullDeref, "store through null/non-pointer")
	}
	if p.P.Off < 0 || p.P.Off >= len(p.P.Obj.Cells) {
		rt.TrapKindf(TrapMemOOB, "store out of bounds: %s+%d (size %d)", p.P.Obj.Name, p.P.Off, len(p.P.Obj.Cells))
	}
	rt.NoteAccess(p.P.Obj, p.P.Off, true)
	p.P.Obj.Cells[p.P.Off] = v
}

func (rt *RT) binop(in *ir.Instr, a, b Value) Value {
	switch in.Op {
	case ir.OpAdd:
		if a.K == KPtr { // pointer displacement via add (rare; gep preferred)
			return PtrV(Pointer{Obj: a.P.Obj, Off: a.P.Off + int(b.I)})
		}
		return IntV(a.I + b.I)
	case ir.OpSub:
		return IntV(a.I - b.I)
	case ir.OpMul:
		return IntV(a.I * b.I)
	case ir.OpSDiv:
		if b.I == 0 {
			rt.TrapKindf(TrapDivByZero, "integer division by zero")
		}
		return IntV(a.I / b.I)
	case ir.OpSRem:
		if b.I == 0 {
			rt.TrapKindf(TrapRemByZero, "integer remainder by zero")
		}
		return IntV(a.I % b.I)
	case ir.OpAnd:
		return IntV(a.I & b.I)
	case ir.OpOr:
		return IntV(a.I | b.I)
	case ir.OpXor:
		return IntV(a.I ^ b.I)
	case ir.OpShl:
		// LLVM makes an over-shift poison; a negative count would wrap
		// through uint into a huge one. Trap on both rather than let the
		// Go shift semantics (count >= 64 yields 0) leak through.
		if b.I < 0 || b.I >= 64 {
			rt.TrapKindf(TrapShiftOOB, "shift count %d out of range [0,63]", b.I)
		}
		return IntV(a.I << uint(b.I))
	case ir.OpAShr:
		if b.I < 0 || b.I >= 64 {
			rt.TrapKindf(TrapShiftOOB, "shift count %d out of range [0,63]", b.I)
		}
		return IntV(a.I >> uint(b.I))
	case ir.OpFAdd:
		return FloatV(a.F + b.F)
	case ir.OpFSub:
		return FloatV(a.F - b.F)
	case ir.OpFMul:
		return FloatV(a.F * b.F)
	case ir.OpFDiv:
		return FloatV(a.F / b.F)
	}
	rt.Trapf("bad binop %s", in.Op)
	return Value{}
}
