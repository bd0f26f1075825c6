// Package difftest is the round-trip differential tester: a seeded
// random program generator (internal/cgen) feeds the driver's oracle
// (Session.RoundTrip), results are cross-checked against an independent
// "golden" IR evaluator, and failures shrink through a bugpoint-style
// reducer into small reproducers.
//
// The golden evaluator exists because the production interpreter and
// the constant folder share one implementation language (and therefore
// one set of semantics bugs — the shl-by-64 wrap both had is the
// motivating example). It re-implements IR evaluation from the spec:
// strictly sequential, a fresh tree walk with its own frames, emulating
// the __kmpc_* protocol at team size one. Only passive data types
// (interp.Value, interp.MemObject) and the layout contract
// (ir.SizeOfElems) are shared; no evaluation logic is.
package difftest

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/driver"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/omp"
)

// goldenTrap is the golden evaluator's panic payload; kinds reuse the
// interpreter's categories so outcomes compare directly.
type goldenTrap struct {
	kind interp.TrapKind
	msg  string
}

const goldenMaxDepth = 10000

// golden evaluates one module sequentially.
type golden struct {
	mod     *ir.Module
	globals map[*ir.Global]*interp.MemObject
	out     strings.Builder
	fuel    int64 // <=0: unbounded
	depth   int

	// Worksharing state for the team-of-one kmpc emulation, held in
	// index space [0, dispTrip) like the production runtime: the pull
	// math must match the machine's bit-for-bit so chunk boundaries
	// (and therefore per-chunk side effects) line up at 1 thread.
	dispActive bool
	dispSched  int64
	dispLB     int64
	dispUB     int64
	dispIncr   int64
	dispChunk  int64
	dispTrip   int64
	dispNext   int64

	// initTrap is set when global memory could not be allocated; every
	// entry then traps with it before executing anything.
	initTrap *goldenTrap
}

// newGolden allocates golden global memory with the machine's observable
// layout rules: an initializer fills cell 0, zero-initialized objects
// take the scalar base type's zero (so digests compare bit-for-bit).
func newGolden(m *ir.Module, fuel int64) *golden {
	g := &golden{mod: m, globals: map[*ir.Global]*interp.MemObject{}, fuel: fuel}
	for _, gl := range m.Globals {
		n := ir.SizeOfElems(gl.Elem)
		if t := interp.AllocLimitTrap("@"+gl.Nam, n); t != nil {
			g.initTrap = &goldenTrap{kind: t.Kind, msg: t.Msg}
			break
		}
		obj := interp.NewMemObject(gl.Nam, n)
		if gl.Init != nil {
			obj.Cells[0] = goldenConst(gl.Init)
		} else {
			zero := interp.IntV(0)
			t := gl.Elem
			for {
				a, ok := t.(*ir.ArrayType)
				if !ok {
					break
				}
				t = a.Elem
			}
			if ir.IsFloatType(t) {
				zero = interp.FloatV(0)
			} else if ir.IsPtrType(t) {
				zero = interp.PtrV(interp.Pointer{})
			}
			for i := range obj.Cells {
				obj.Cells[i] = zero
			}
		}
		g.globals[gl] = obj
	}
	return g
}

func goldenConst(v ir.Value) interp.Value {
	switch c := v.(type) {
	case *ir.ConstInt:
		return interp.IntV(c.V)
	case *ir.ConstFloat:
		return interp.FloatV(c.V)
	case *ir.ConstNull:
		return interp.PtrV(interp.Pointer{})
	}
	return interp.Value{K: interp.KUndef}
}

func (g *golden) trap(kind interp.TrapKind, format string, args ...any) {
	panic(&goldenTrap{kind: kind, msg: fmt.Sprintf(format, args...)})
}

// GoldenRun executes entries in order under the golden evaluator and
// returns the normalized outcome, comparable against RunForOutcome's.
func GoldenRun(m *ir.Module, entries, globals []string, fuel int64) *driver.Outcome {
	g := newGolden(m, fuel)
	out := &driver.Outcome{Globals: map[string]uint64{}}
	for _, e := range entries {
		f := m.FuncByName(e)
		if f == nil {
			out.Err = fmt.Sprintf("interp: no function @%s", e)
			break
		}
		if t := g.runProtected(f); t != nil {
			out.Trapped, out.TrapKind, out.TrapEntry = true, t.kind, e
			break
		}
	}
	out.Output = g.out.String()
	if !out.Trapped && out.Err == "" {
		for _, name := range globals {
			if gl := m.GlobalByName(name); gl != nil {
				out.Globals[name] = driver.DigestCells(g.globals[gl].Cells)
			}
		}
	}
	return out
}

func (g *golden) runProtected(f *ir.Function) (t *goldenTrap) {
	if g.initTrap != nil {
		return g.initTrap
	}
	defer func() {
		if r := recover(); r != nil {
			if gt, ok := r.(*goldenTrap); ok {
				t = gt
				return
			}
			panic(r)
		}
	}()
	g.call(f, nil)
	return nil
}

// frame is one activation's SSA environment.
type gframe map[ir.Value]interp.Value

func (g *golden) eval(fr gframe, v ir.Value) interp.Value {
	switch x := v.(type) {
	case *ir.ConstInt:
		return interp.IntV(x.V)
	case *ir.ConstFloat:
		return interp.FloatV(x.V)
	case *ir.ConstNull:
		return interp.PtrV(interp.Pointer{})
	case *ir.ConstUndef:
		return interp.Value{K: interp.KUndef}
	case *ir.Global:
		return interp.PtrV(interp.Pointer{Obj: g.globals[x]})
	case *ir.Function:
		return interp.Value{K: interp.KFunc, Fn: x}
	case *ir.Param, *ir.Instr:
		val, ok := fr[v]
		if !ok {
			g.trap(interp.TrapGeneric, "use of undefined value %s", v.Ident())
		}
		return val
	}
	g.trap(interp.TrapGeneric, "unknown operand %v", v)
	return interp.Value{}
}

func (g *golden) step() {
	if g.fuel > 0 {
		g.fuel--
		if g.fuel <= 0 {
			g.trap(interp.TrapFuel, "fuel exhausted")
		}
	}
}

// call interprets f. Declarations route to the runtime emulation.
func (g *golden) call(f *ir.Function, args []interp.Value) interp.Value {
	if f.IsDecl() {
		return g.external(f, args)
	}
	if len(args) != len(f.Params) {
		g.trap(interp.TrapGeneric, "call to @%s with %d args, want %d", f.Nam, len(args), len(f.Params))
	}
	g.depth++
	if g.depth > goldenMaxDepth {
		g.trap(interp.TrapCallDepth, "call depth exceeded in @%s", f.Nam)
	}
	defer func() { g.depth-- }()

	fr := gframe{}
	for i, p := range f.Params {
		fr[p] = args[i]
	}
	block := f.Entry()
	var prev *ir.Block
	for {
		// All phis read their incoming values against prev before any
		// phi result is written (parallel-copy semantics).
		var phiVals []interp.Value
		var phis []*ir.Instr
		for _, in := range block.Instrs {
			if in.Op != ir.OpPhi {
				break
			}
			inc := in.PhiIncoming(prev)
			if inc == nil {
				g.trap(interp.TrapGeneric, "phi %%%s lacks incoming edge", in.Nam)
			}
			phis = append(phis, in)
			phiVals = append(phiVals, g.eval(fr, inc))
		}
		for i, phi := range phis {
			fr[phi] = phiVals[i]
		}

		next := (*ir.Block)(nil)
		for _, in := range block.Instrs[len(phis):] {
			g.step()
			switch in.Op {
			case ir.OpBr:
				next = in.Blocks[0]
			case ir.OpCondBr:
				if g.eval(fr, in.Args[0]).I != 0 {
					next = in.Blocks[0]
				} else {
					next = in.Blocks[1]
				}
			case ir.OpRet:
				if len(in.Args) == 1 {
					return g.eval(fr, in.Args[0])
				}
				return interp.Value{K: interp.KUndef}
			default:
				g.instr(fr, in)
				continue
			}
			break
		}
		if next == nil {
			g.trap(interp.TrapGeneric, "block %%%s fell through without terminator", block.Nam)
		}
		prev, block = block, next
	}
}

func (g *golden) instr(fr gframe, in *ir.Instr) {
	switch in.Op {
	case ir.OpAlloca:
		n := ir.SizeOfElems(in.AllocaElem)
		if t := interp.AllocLimitTrap(in.Nam, n); t != nil {
			g.trap(t.Kind, "%s", t.Msg)
		}
		obj := interp.NewMemObject(in.Nam, n)
		zero := interp.IntV(0)
		t := in.AllocaElem
		for {
			a, ok := t.(*ir.ArrayType)
			if !ok {
				break
			}
			t = a.Elem
		}
		if ir.IsFloatType(t) {
			zero = interp.FloatV(0)
		} else if ir.IsPtrType(t) {
			zero = interp.PtrV(interp.Pointer{})
		}
		for i := range obj.Cells {
			obj.Cells[i] = zero
		}
		fr[in] = interp.PtrV(interp.Pointer{Obj: obj})

	case ir.OpLoad:
		fr[in] = g.load(g.eval(fr, in.Args[0]))

	case ir.OpStore:
		v := g.eval(fr, in.Args[0])
		g.store(g.eval(fr, in.Args[1]), v)

	case ir.OpGEP:
		base := g.eval(fr, in.Args[0])
		if base.K != interp.KPtr || base.P.Nil() {
			g.trap(interp.TrapNullDeref, "gep on null/non-pointer")
		}
		off := base.P.Off
		t := ir.ElemOf(in.Args[0].Type())
		off += int(g.eval(fr, in.Args[1]).I) * ir.SizeOfElems(t)
		for _, iv := range in.Args[2:] {
			arr, ok := t.(*ir.ArrayType)
			if !ok {
				g.trap(interp.TrapGeneric, "gep descends into non-array")
			}
			t = arr.Elem
			off += int(g.eval(fr, iv).I) * ir.SizeOfElems(t)
		}
		fr[in] = interp.PtrV(interp.Pointer{Obj: base.P.Obj, Off: off})

	case ir.OpICmp:
		a, b := g.eval(fr, in.Args[0]), g.eval(fr, in.Args[1])
		fr[in] = boolV(icmp(in.Pred, ordinal(a), ordinal(b)))

	case ir.OpFCmp:
		a, b := g.eval(fr, in.Args[0]), g.eval(fr, in.Args[1])
		fr[in] = boolV(fcmp(in.Pred, a.F, b.F))

	case ir.OpSelect:
		if g.eval(fr, in.Args[0]).I != 0 {
			fr[in] = g.eval(fr, in.Args[1])
		} else {
			fr[in] = g.eval(fr, in.Args[2])
		}

	case ir.OpCall:
		var fn *ir.Function
		switch c := in.Callee.(type) {
		case *ir.Function:
			fn = c
		default:
			cv := g.eval(fr, in.Callee)
			if cv.K != interp.KFunc {
				g.trap(interp.TrapGeneric, "indirect call through non-function")
			}
			fn = cv.Fn
		}
		args := make([]interp.Value, len(in.Args))
		for i, a := range in.Args {
			args[i] = g.eval(fr, a)
		}
		ret := g.call(fn, args)
		if in.HasResult() {
			fr[in] = ret
		}

	case ir.OpDbgValue:
		// No runtime effect.

	case ir.OpFNeg:
		fr[in] = interp.FloatV(-g.eval(fr, in.Args[0]).F)

	case ir.OpSExt, ir.OpZExt, ir.OpTrunc, ir.OpBitcast, ir.OpPtrToInt, ir.OpIntToPtr,
		ir.OpFPExt, ir.OpFPTrunc:
		fr[in] = g.eval(fr, in.Args[0])

	case ir.OpSIToFP:
		fr[in] = interp.FloatV(float64(g.eval(fr, in.Args[0]).I))

	case ir.OpFPToSI:
		fr[in] = interp.IntV(int64(g.eval(fr, in.Args[0]).F))

	default:
		if in.Op.IsBinary() {
			fr[in] = g.binop(in, g.eval(fr, in.Args[0]), g.eval(fr, in.Args[1]))
			return
		}
		g.trap(interp.TrapGeneric, "unimplemented op %s", in.Op)
	}
}

// binop applies the strict scalar semantics: division and remainder
// trap on zero, shifts trap outside [0,63] (LLVM poison made concrete).
func (g *golden) binop(in *ir.Instr, a, b interp.Value) interp.Value {
	switch in.Op {
	case ir.OpAdd:
		if a.K == interp.KPtr {
			return interp.PtrV(interp.Pointer{Obj: a.P.Obj, Off: a.P.Off + int(b.I)})
		}
		return interp.IntV(a.I + b.I)
	case ir.OpSub:
		return interp.IntV(a.I - b.I)
	case ir.OpMul:
		return interp.IntV(a.I * b.I)
	case ir.OpSDiv:
		if b.I == 0 {
			g.trap(interp.TrapDivByZero, "integer division by zero")
		}
		return interp.IntV(a.I / b.I)
	case ir.OpSRem:
		if b.I == 0 {
			g.trap(interp.TrapRemByZero, "integer remainder by zero")
		}
		return interp.IntV(a.I % b.I)
	case ir.OpAnd:
		return interp.IntV(a.I & b.I)
	case ir.OpOr:
		return interp.IntV(a.I | b.I)
	case ir.OpXor:
		return interp.IntV(a.I ^ b.I)
	case ir.OpShl:
		if b.I < 0 || b.I >= 64 {
			g.trap(interp.TrapShiftOOB, "shift count %d out of range", b.I)
		}
		return interp.IntV(a.I << uint(b.I))
	case ir.OpAShr:
		if b.I < 0 || b.I >= 64 {
			g.trap(interp.TrapShiftOOB, "shift count %d out of range", b.I)
		}
		return interp.IntV(a.I >> uint(b.I))
	case ir.OpFAdd:
		return interp.FloatV(a.F + b.F)
	case ir.OpFSub:
		return interp.FloatV(a.F - b.F)
	case ir.OpFMul:
		return interp.FloatV(a.F * b.F)
	case ir.OpFDiv:
		return interp.FloatV(a.F / b.F)
	}
	g.trap(interp.TrapGeneric, "bad binop %s", in.Op)
	return interp.Value{}
}

func (g *golden) load(p interp.Value) interp.Value {
	if p.K != interp.KPtr || p.P.Nil() {
		g.trap(interp.TrapNullDeref, "load through null/non-pointer")
	}
	if p.P.Off < 0 || p.P.Off >= len(p.P.Obj.Cells) {
		g.trap(interp.TrapMemOOB, "load out of bounds: %s+%d", p.P.Obj.Name, p.P.Off)
	}
	return p.P.Obj.Cells[p.P.Off]
}

func (g *golden) store(p, v interp.Value) {
	if p.K != interp.KPtr || p.P.Nil() {
		g.trap(interp.TrapNullDeref, "store through null/non-pointer")
	}
	if p.P.Off < 0 || p.P.Off >= len(p.P.Obj.Cells) {
		g.trap(interp.TrapMemOOB, "store out of bounds: %s+%d", p.P.Obj.Name, p.P.Off)
	}
	p.P.Obj.Cells[p.P.Off] = v
}

// external emulates the declared-function surface with a team of one:
// fork runs the microtask inline, worksharing hands the whole iteration
// space to the single worker, atomics are plain read-modify-writes.
func (g *golden) external(f *ir.Function, args []interp.Value) interp.Value {
	undef := interp.Value{K: interp.KUndef}
	switch f.Nam {
	case omp.ForkCall:
		if len(args) < 2 || args[1].K != interp.KFunc {
			g.trap(interp.TrapGeneric, "bad fork call")
		}
		gtid := interp.NewMemObject("gtid", 1)
		gtid.Cells[0] = interp.IntV(0)
		btid := interp.NewMemObject("btid", 1)
		btid.Cells[0] = interp.IntV(0)
		wargs := make([]interp.Value, 0, 2+len(args)-2)
		wargs = append(wargs,
			interp.PtrV(interp.Pointer{Obj: gtid}),
			interp.PtrV(interp.Pointer{Obj: btid}))
		wargs = append(wargs, args[2:]...)
		g.call(args[1].Fn, wargs)
		return undef
	case omp.ForStaticInit:
		if len(args) != 8 {
			g.trap(interp.TrapGeneric, "static_init_8 expects 8 args")
		}
		// Team of one: the single worker's chunk is the whole space, but
		// the published bounds must match the machine's chunk math
		// bit-for-bit (upper lands on the last *reached* iteration, which
		// is below ub when the span is not a multiple of incr; the
		// zero-trip path publishes an empty range and no stride). The
		// validation mirrors the machine exactly: dispatch-kind schedules
		// and overflowing iteration spaces trap instead of degrading.
		sched := args[1].I
		if !omp.IsStaticSched(sched) {
			g.trap(interp.TrapGeneric, "static_init_8: unsupported schedule kind %d", sched)
		}
		lb, ub := g.load(args[3]).I, g.load(args[4]).I
		incr := args[6].I
		if incr == 0 {
			g.trap(interp.TrapGeneric, "static_init_8 with zero increment")
		}
		trip, ok := omp.TripCount(lb, ub, incr)
		if !ok {
			g.trap(interp.TrapGeneric, "static_init_8: iteration space [%d, %d] step %d overflows", lb, ub, incr)
		}
		if trip == 0 {
			lo, hi := omp.EmptyRange(incr)
			g.store(args[3], interp.IntV(lo))
			g.store(args[4], interp.IntV(hi))
			g.store(args[2], interp.IntV(0))
			return undef
		}
		g.store(args[3], interp.IntV(lb))
		g.store(args[4], interp.IntV(lb+(trip-1)*incr))
		g.store(args[5], interp.IntV(trip))
		g.store(args[2], interp.IntV(1))
		return undef
	case omp.ForStaticFini, omp.Barrier, omp.PushNumThreads:
		return undef
	case omp.GlobalThread:
		return interp.IntV(0)
	case omp.DispatchInit:
		if len(args) != 6 {
			g.trap(interp.TrapGeneric, "dispatch_init_8 expects 6 args")
		}
		sched, lb, ub := args[1].I, args[2].I, args[3].I
		incr, chunk := args[4].I, args[5].I
		if !g.dispActive {
			if !omp.IsDispatchSched(sched) {
				g.trap(interp.TrapGeneric, "dispatch_init_8: unsupported schedule kind %d", sched)
			}
			if incr == 0 {
				g.trap(interp.TrapGeneric, "dispatch_init_8 with zero increment")
			}
			if sched != omp.SchedAuto && chunk <= 0 {
				g.trap(interp.TrapGeneric, "dispatch_init_8: nonpositive chunk %d", chunk)
			}
			trip, ok := omp.TripCount(lb, ub, incr)
			if !ok {
				g.trap(interp.TrapGeneric, "dispatch_init_8: iteration space [%d, %d] step %d overflows", lb, ub, incr)
			}
			g.dispSched, g.dispLB, g.dispUB = sched, lb, ub
			g.dispIncr, g.dispChunk = incr, chunk
			g.dispTrip, g.dispNext = trip, 0
			g.dispActive = true
		} else if sched != g.dispSched || lb != g.dispLB || ub != g.dispUB ||
			incr != g.dispIncr || chunk != g.dispChunk {
			// A re-init while the construct is open must agree with what
			// was published (the machine checks every late arrival).
			g.trap(interp.TrapGeneric,
				"dispatch_init_8: worker 0 published (sched %d, lb %d, ub %d, incr %d, chunk %d) mid-construct",
				sched, lb, ub, incr, chunk)
		}
		return undef
	case omp.DispatchNext:
		if len(args) != 5 {
			g.trap(interp.TrapGeneric, "dispatch_next_8 expects 5 args")
		}
		if !g.dispActive {
			g.trap(interp.TrapGeneric, "dispatch_next_8 without an active construct")
		}
		rem := g.dispTrip - g.dispNext
		if rem == 0 {
			g.dispActive = false
			return interp.IntV(0)
		}
		// Pull math per schedule kind, team of one: dynamic takes a fixed
		// chunk, and guided (auto runs as guided) a decaying GuidedTake
		// over 1 worker. Identical sequences to the machine at 1 thread.
		var take int64
		switch g.dispSched {
		case omp.SchedGuided, omp.SchedAuto:
			take = omp.GuidedTake(rem, g.dispChunk, 1)
		default:
			take = g.dispChunk
			if take > rem {
				take = rem
			}
		}
		i0 := g.dispNext
		g.dispNext += take
		incr := g.dispIncr
		g.store(args[1], interp.IntV(0))
		g.store(args[2], interp.IntV(g.dispLB+i0*incr))
		g.store(args[3], interp.IntV(g.dispLB+(i0+take-1)*incr))
		g.store(args[4], interp.IntV(incr))
		return interp.IntV(1)
	case omp.AtomicAddF64:
		g.store(args[0], interp.FloatV(g.load(args[0]).F+args[1].F))
		return undef
	case omp.AtomicMulF64:
		g.store(args[0], interp.FloatV(g.load(args[0]).F*args[1].F))
		return undef
	case omp.AtomicAddI64:
		g.store(args[0], interp.IntV(g.load(args[0]).I+args[1].I))
		return undef
	case omp.AtomicMulI64:
		g.store(args[0], interp.IntV(g.load(args[0]).I*args[1].I))
		return undef

	case "exp":
		return interp.FloatV(math.Exp(args[0].F))
	case "log":
		return interp.FloatV(math.Log(args[0].F))
	case "sqrt":
		return interp.FloatV(math.Sqrt(args[0].F))
	case "fabs":
		return interp.FloatV(math.Abs(args[0].F))
	case "pow":
		return interp.FloatV(math.Pow(args[0].F, args[1].F))
	case "sin":
		return interp.FloatV(math.Sin(args[0].F))
	case "cos":
		return interp.FloatV(math.Cos(args[0].F))
	case "floor":
		return interp.FloatV(math.Floor(args[0].F))
	case "ceil":
		return interp.FloatV(math.Ceil(args[0].F))

	case "malloc":
		n := int(args[0].I)
		if n < 0 {
			g.trap(interp.TrapGeneric, "malloc with negative size")
		}
		if t := interp.AllocLimitTrap("heap", n); t != nil {
			g.trap(t.Kind, "%s", t.Msg)
		}
		return interp.PtrV(interp.Pointer{Obj: interp.NewMemObject("heap", n)})
	case "free", "timer_start", "timer_stop":
		return undef

	case "print_i64":
		fmt.Fprintf(&g.out, "%d\n", args[0].I)
		return undef
	case "print_f64":
		fmt.Fprintf(&g.out, "%.6f\n", args[0].F)
		return undef
	}
	g.trap(interp.TrapGeneric, "call to unknown external @%s", f.Nam)
	return interp.Value{}
}

func boolV(b bool) interp.Value {
	if b {
		return interp.IntV(1)
	}
	return interp.IntV(0)
}

// ordinal linearizes a value for comparison: pointers map onto their
// object's synthetic base address plus offset.
func ordinal(v interp.Value) int64 {
	if v.K != interp.KPtr {
		return v.I
	}
	if v.P.Nil() {
		return 0
	}
	return v.P.Obj.Base + int64(v.P.Off)
}

func icmp(p ir.CmpPred, a, b int64) bool {
	switch p {
	case ir.CmpEQ:
		return a == b
	case ir.CmpNE:
		return a != b
	case ir.CmpSLT:
		return a < b
	case ir.CmpSLE:
		return a <= b
	case ir.CmpSGT:
		return a > b
	case ir.CmpSGE:
		return a >= b
	}
	return false
}

func fcmp(p ir.CmpPred, a, b float64) bool {
	switch p {
	case ir.CmpEQ:
		return a == b
	case ir.CmpNE:
		return a != b
	case ir.CmpSLT:
		return a < b
	case ir.CmpSLE:
		return a <= b
	case ir.CmpSGT:
		return a > b
	case ir.CmpSGE:
		return a >= b
	}
	return false
}
