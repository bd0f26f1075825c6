// Package vm is the bytecode execution engine: a one-time lowering pass
// flattens each IR function into a dense instruction array over numbered
// frame registers, and a flat dispatch loop executes it. Operands are
// preresolved at lower time — constants and globals live in a pooled
// tail of the register frame, SSA values in numbered slots — so the hot
// loop does no name or map lookups. Block arguments (phis) compile to
// register moves on the incoming edges, and the load–op–store and
// index-arithmetic patterns PolyBench bodies are made of fuse into
// superinstructions (gep+load, gep+store, fmul+fadd, icmp+br).
//
// The engine plugs into interp's BodyEngine seam: the __kmpc_* team
// runtime, race-check shadow hooks, region profiler, fuel, and the
// work-span clock all stay in interp and are driven through *interp.RT.
// Instruction costs are charged so that total step counts — and
// therefore fuel verdicts, SimSteps, and profiler work — are identical
// to the tree-walker's, instruction for instruction. The tree-walker
// remains the reference implementation; internal/difftest cross-checks
// the two engines on every round trip.
package vm

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/interp"
	"repro/internal/ir"
)

// Engine lowers functions on first call and caches the result. One
// Engine serves one Machine at a time (progs embed machine-resolved
// global pointers); binding a different machine resets the cache. Safe
// for concurrent RunBody calls from team workers.
type Engine struct {
	mu    sync.Mutex
	mach  *interp.Machine
	progs map[*ir.Function]*prog
}

// New returns an empty bytecode engine, ready to be set as
// interp.Options.Body.
func New() *Engine {
	return &Engine{progs: map[*ir.Function]*prog{}}
}

// Name implements interp.BodyEngine.
func (e *Engine) Name() string { return "bytecode" }

// RunBody implements interp.BodyEngine: it executes f's body as
// bytecode, lowering it first if this machine hasn't run it yet.
func (e *Engine) RunBody(rt *interp.RT, f *ir.Function, args []interp.Value) interp.Value {
	return runProg(rt, e.prog(rt.Machine(), f), args)
}

func (e *Engine) prog(m *interp.Machine, f *ir.Function) *prog {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.mach != m {
		e.mach = m
		e.progs = map[*ir.Function]*prog{}
	}
	if p, ok := e.progs[f]; ok {
		return p
	}
	p := lower(m, f)
	e.progs[f] = p
	return p
}

// opcode enumerates bytecode operations. Branch targets are absolute
// pcs (patched after emission).
type opcode uint8

const (
	opNop    opcode = iota
	opMov           // dst = a
	opBr            // pc = a
	opCondBr        // pc = a.I != 0 ? b : c
	opICmpBr        // pc = icmp(pred, a, b) ? dst : c   (fused icmp+condbr)
	opFCmpBr        // pc = fcmp(pred, a, b) ? dst : c
	opRet           // return a (-1 = void)
	opTrap          // raise ext.kind/ext.msg

	opAlloca // dst = new zeroed object (ext.name, ext.elem)
	opLoadP  // dst = *a
	opStoreP // *a = dst (val lives in the dst field for stores)
	opGEPC   // dst = a + off                     (all indices constant)
	opGEP1   // dst = a + off + b*s1
	opGEP2   // dst = a + off + b*s1 + c*s2
	opGEPN   // dst = a + off + Σ ext.args[i]*ext.strides[i]
	opLoadC  // dst = *(a + off)                  (fused gep+load)
	opLoad1  // dst = *(a + off + b*s1)
	opLoad2  // dst = *(a + off + b*s1 + c*s2)
	opStoreC // *(a + off) = dst
	opStore1 // *(a + off + b*s1) = dst
	opStore2 // *(a + off + b*s1 + c*s2) = dst

	opAdd // dst = a + b (pointer displacement when a is a pointer)
	opSub
	opMul
	opSDiv
	opSRem
	opAnd
	opOr
	opXor
	opShl
	opAShr
	opFAdd
	opFSub
	opFMul
	opFDiv
	opFNeg
	opFMAdd  // dst = a*b + c   (fused fmul+fadd, mul result rounded first)
	opFMAddR // dst = c + a*b   (fadd operand order preserved)

	opICmp // dst = icmp(pred, a, b)
	opFCmp
	opSelect // dst = a.I != 0 ? b : c
	opSIToFP
	opFPToSI
	opCall // ext.fn or indirect through a; args in ext.args
)

// inst is one bytecode instruction. cost is the number of IR steps this
// instruction charges when executed: 1 for a plain instruction, 2 for a
// fused pair, plus any preceding dbg.value costs it absorbed; 0 for
// synthetic register moves.
type inst struct {
	op      opcode
	pred    ir.CmpPred
	cost    int32
	dst     int32
	a, b, c int32
	off     int64
	s1, s2  int64
	ext     *extra
}

// extra carries the cold operands that don't fit the fixed inst fields.
type extra struct {
	fn      *ir.Function
	args    []int32
	strides []int64
	kind    interp.TrapKind
	msg     string
	name    string
	elem    ir.Type
}

// prog is one lowered function: code plus the register-frame layout
// (params at 0.., one slot per SSA value, phi staging slots, then the
// pooled constants copied into the frame tail at each call).
type prog struct {
	fn        *ir.Function
	nRegs     int
	constBase int32
	consts    []interp.Value
	code      []inst
}

// Constant-pool keys: semantic identity, so equal constants share one
// frame slot.
type (
	ckInt   int64
	ckFloat uint64
	ckNull  struct{}
	ckUndef struct{}
)

type stub struct{ pred, succ *ir.Block }

type lowerer struct {
	m         *interp.Machine
	f         *ir.Function
	nReg      int32
	regs      map[ir.Value]int32
	stage     map[*ir.Instr]int32
	constBase int32
	cpool     map[any]int32
	consts    []interp.Value
	uses      map[*ir.Instr]int
	code      []inst
	blockVid  map[*ir.Block]int32
	stubs     []stub
}

// lower flattens f into a prog for machine m (globals resolve to m's
// memory objects).
func lower(m *interp.Machine, f *ir.Function) *prog {
	lo := &lowerer{
		m: m, f: f,
		regs:     map[ir.Value]int32{},
		stage:    map[*ir.Instr]int32{},
		cpool:    map[any]int32{},
		uses:     useCounts(f),
		blockVid: map[*ir.Block]int32{},
	}
	for i, p := range f.Params {
		lo.regs[p] = int32(i)
	}
	lo.nReg = int32(len(f.Params))
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.HasResult() {
				lo.regs[in] = lo.nReg
				lo.nReg++
			}
		}
	}
	// Staging slots for phi parallel moves (used when an edge's sources
	// overlap its destinations — swaps and phi-of-phi cycles).
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op != ir.OpPhi {
				break
			}
			lo.stage[in] = lo.nReg
			lo.nReg++
		}
	}
	lo.constBase = lo.nReg

	for bi, b := range f.Blocks {
		lo.blockVid[b] = int32(bi)
	}
	// Virtual branch targets: block i is target i, edge stub j is target
	// len(Blocks)+j. vidPC resolves them to pcs after emission.
	vidPC := make([]int32, len(f.Blocks))
	for bi, b := range f.Blocks {
		vidPC[bi] = int32(len(lo.code))
		lo.emitBlock(b, bi == 0)
	}
	for si := 0; si < len(lo.stubs); si++ {
		st := lo.stubs[si]
		vidPC = append(vidPC, int32(len(lo.code)))
		lo.emitMoves(st.pred, st.succ)
		lo.emit(inst{op: opBr, a: lo.blockVid[st.succ]})
	}
	for i := range lo.code {
		in := &lo.code[i]
		switch in.op {
		case opBr:
			in.a = vidPC[in.a]
		case opCondBr:
			in.b, in.c = vidPC[in.b], vidPC[in.c]
		case opICmpBr, opFCmpBr:
			in.dst, in.c = vidPC[in.dst], vidPC[in.c]
		}
	}
	return &prog{
		fn:        f,
		nRegs:     int(lo.constBase) + len(lo.consts),
		constBase: lo.constBase,
		consts:    lo.consts,
		code:      lo.code,
	}
}

// useCounts tallies how many instructions read each SSA result.
// dbg.value is excluded: it has no runtime effect, so it must not block
// fusion. Single-use results feeding an adjacent consumer are fusion
// candidates.
func useCounts(f *ir.Function) map[*ir.Instr]int {
	uses := map[*ir.Instr]int{}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpDbgValue {
				continue
			}
			for _, a := range in.Args {
				if d, ok := a.(*ir.Instr); ok {
					uses[d]++
				}
			}
			if d, ok := in.Callee.(*ir.Instr); ok {
				uses[d]++
			}
		}
	}
	return uses
}

func (lo *lowerer) emit(in inst) { lo.code = append(lo.code, in) }

// operandReg resolves an operand to its frame register, pooling
// constants, globals, and function references into the frame tail.
func (lo *lowerer) operandReg(v ir.Value) int32 {
	if r, ok := lo.regs[v]; ok {
		return r
	}
	var key any
	var val interp.Value
	switch x := v.(type) {
	case *ir.ConstInt:
		key, val = ckInt(x.V), interp.IntV(x.V)
	case *ir.ConstFloat:
		key, val = ckFloat(math.Float64bits(x.V)), interp.FloatV(x.V)
	case *ir.ConstNull:
		key, val = ckNull{}, interp.PtrV(interp.Pointer{})
	case *ir.ConstUndef:
		key, val = ckUndef{}, interp.Value{K: interp.KUndef}
	case *ir.Global:
		key, val = x, interp.PtrV(interp.Pointer{Obj: lo.m.GlobalObj(x)})
	case *ir.Function:
		key, val = x, interp.FuncV(x)
	default:
		// The tree-walker traps on operands it can't classify; an undef
		// here keeps lowering total (the difference is unobservable for
		// well-formed IR, which never reaches this arm).
		key, val = ckUndef{}, interp.Value{K: interp.KUndef}
	}
	if idx, ok := lo.cpool[key]; ok {
		return lo.constBase + idx
	}
	idx := int32(len(lo.consts))
	lo.cpool[key] = idx
	lo.consts = append(lo.consts, val)
	return lo.constBase + idx
}

// gepPlan is the lower-time decomposition of a GEP: constant indices
// fold into off, variable ones keep (register, stride) pairs.
type gepPlan struct {
	base    int32
	off     int64
	idxRegs []int32
	strides []int64
	bad     bool // descends into a non-array: trap when executed
}

func (lo *lowerer) planGEP(in *ir.Instr) gepPlan {
	pl := gepPlan{base: lo.operandReg(in.Args[0])}
	t := ir.ElemOf(in.Args[0].Type())
	addIdx := func(iv ir.Value, stride int64) {
		if c, ok := iv.(*ir.ConstInt); ok {
			pl.off += c.V * stride
			return
		}
		pl.idxRegs = append(pl.idxRegs, lo.operandReg(iv))
		pl.strides = append(pl.strides, stride)
	}
	addIdx(in.Args[1], int64(ir.SizeOfElems(t)))
	for _, iv := range in.Args[2:] {
		arr, ok := t.(*ir.ArrayType)
		if !ok {
			pl.bad = true
			return pl
		}
		t = arr.Elem
		addIdx(iv, int64(ir.SizeOfElems(t)))
	}
	return pl
}

// edgeTarget returns the virtual branch target for the edge pred→succ:
// the block itself when it has no phis, otherwise an edge stub that
// performs the phi moves first.
func (lo *lowerer) edgeTarget(pred, succ *ir.Block) int32 {
	if len(succ.Instrs) == 0 || succ.Instrs[0].Op != ir.OpPhi {
		return lo.blockVid[succ]
	}
	lo.stubs = append(lo.stubs, stub{pred, succ})
	return int32(len(lo.f.Blocks) + len(lo.stubs) - 1)
}

// emitMoves compiles the phi assignments of edge pred→succ to register
// moves. All sources are read before any destination is written when
// they overlap (the tree-walker's two-phase phi evaluation).
func (lo *lowerer) emitMoves(pred, succ *ir.Block) {
	var dsts, srcs, stages []int32
	for _, phi := range succ.Instrs {
		if phi.Op != ir.OpPhi {
			break
		}
		inc := phi.PhiIncoming(pred)
		if inc == nil {
			lo.emit(inst{op: opTrap, ext: &extra{
				msg: fmt.Sprintf("phi %%%s has no incoming from %%%s", phi.Nam, pred.Nam)}})
			return
		}
		d, s := lo.regs[phi], lo.operandReg(inc)
		if d != s {
			dsts, srcs, stages = append(dsts, d), append(srcs, s), append(stages, lo.stage[phi])
		}
	}
	hazard := false
	for _, s := range srcs {
		for _, d := range dsts {
			if s == d {
				hazard = true
			}
		}
	}
	if !hazard {
		for k := range dsts {
			lo.emit(inst{op: opMov, dst: dsts[k], a: srcs[k]})
		}
		return
	}
	for k := range srcs {
		lo.emit(inst{op: opMov, dst: stages[k], a: srcs[k]})
	}
	for k := range dsts {
		lo.emit(inst{op: opMov, dst: dsts[k], a: stages[k]})
	}
}

var binOps = map[ir.Op]opcode{
	ir.OpAdd: opAdd, ir.OpSub: opSub, ir.OpMul: opMul,
	ir.OpSDiv: opSDiv, ir.OpSRem: opSRem,
	ir.OpAnd: opAnd, ir.OpOr: opOr, ir.OpXor: opXor,
	ir.OpShl: opShl, ir.OpAShr: opAShr,
	ir.OpFAdd: opFAdd, ir.OpFSub: opFSub, ir.OpFMul: opFMul, ir.OpFDiv: opFDiv,
}

// emitBlock lowers one basic block. Phis are skipped (their assignments
// live on incoming edges); dbg.value emits nothing but its step cost is
// absorbed by the next real instruction; adjacent single-use producer/
// consumer pairs fuse into superinstructions whose cost is the pair's.
func (lo *lowerer) emitBlock(b *ir.Block, isEntry bool) {
	instrs := b.Instrs
	nPhi := 0
	for nPhi < len(instrs) && instrs[nPhi].Op == ir.OpPhi {
		nPhi++
	}
	if isEntry && nPhi > 0 {
		// The tree-walker traps here (a phi with no predecessor); keep
		// the behavior rather than reading zero-valued registers.
		lo.emit(inst{op: opTrap, ext: &extra{msg: "phi in entry block has no incoming"}})
	}
	extraCost := int32(0) // dbg.value steps awaiting a real instruction
	i := nPhi
	for i < len(instrs) {
		in := instrs[i]
		if in.Op == ir.OpDbgValue {
			extraCost++
			i++
			continue
		}
		// Lookahead past dbg.values to the fusion candidate.
		j := i + 1
		between := int32(0)
		for j < len(instrs) && instrs[j].Op == ir.OpDbgValue {
			between++
			j++
		}
		var next *ir.Instr
		if j < len(instrs) {
			next = instrs[j]
		}
		if next != nil && lo.uses[in] == 1 && lo.fuse(b, in, next, 2+extraCost+between) {
			extraCost = 0
			i = j + 1
			continue
		}
		lo.emitOne(b, in, 1+extraCost)
		extraCost = 0
		i++
	}
	if len(instrs) == nPhi || !instrs[len(instrs)-1].IsTerminator() {
		// Malformed block: the walker would spin; trap instead of
		// falling through into the next block's code.
		lo.emit(inst{op: opTrap, ext: &extra{msg: "block %" + b.Nam + " has no terminator"}})
	}
}

// fuse emits a superinstruction for the pair (in, next) when it matches
// a pattern; in must be single-use with next its consumer. Reports
// whether it fused.
func (lo *lowerer) fuse(b *ir.Block, in, next *ir.Instr, cost int32) bool {
	switch in.Op {
	case ir.OpGEP:
		isLoad := next.Op == ir.OpLoad && next.Args[0] == ir.Value(in)
		isStore := next.Op == ir.OpStore && next.Args[1] == ir.Value(in)
		if !isLoad && !isStore {
			return false
		}
		pl := lo.planGEP(in)
		if pl.bad || len(pl.idxRegs) > 2 {
			return false
		}
		fi := inst{cost: cost, a: pl.base, off: pl.off}
		if len(pl.idxRegs) >= 1 {
			fi.b, fi.s1 = pl.idxRegs[0], pl.strides[0]
		}
		if len(pl.idxRegs) == 2 {
			fi.c, fi.s2 = pl.idxRegs[1], pl.strides[1]
		}
		if isLoad {
			fi.op = [3]opcode{opLoadC, opLoad1, opLoad2}[len(pl.idxRegs)]
			fi.dst = lo.regs[next]
		} else {
			fi.op = [3]opcode{opStoreC, opStore1, opStore2}[len(pl.idxRegs)]
			fi.dst = lo.operandReg(next.Args[0]) // stored value
		}
		lo.emit(fi)
		return true

	case ir.OpFMul:
		if next.Op != ir.OpFAdd {
			return false
		}
		fi := inst{cost: cost, dst: lo.regs[next],
			a: lo.operandReg(in.Args[0]), b: lo.operandReg(in.Args[1])}
		switch {
		case next.Args[0] == ir.Value(in) && next.Args[1] != ir.Value(in):
			fi.op, fi.c = opFMAdd, lo.operandReg(next.Args[1])
		case next.Args[1] == ir.Value(in) && next.Args[0] != ir.Value(in):
			fi.op, fi.c = opFMAddR, lo.operandReg(next.Args[0])
		default:
			return false
		}
		lo.emit(fi)
		return true

	case ir.OpICmp, ir.OpFCmp:
		if next.Op != ir.OpCondBr || next.Args[0] != ir.Value(in) {
			return false
		}
		op := opICmpBr
		if in.Op == ir.OpFCmp {
			op = opFCmpBr
		}
		lo.emit(inst{op: op, pred: in.Pred, cost: cost,
			a: lo.operandReg(in.Args[0]), b: lo.operandReg(in.Args[1]),
			dst: lo.edgeTarget(b, next.Blocks[0]), c: lo.edgeTarget(b, next.Blocks[1])})
		return true
	}
	return false
}

// emitOne lowers a single IR instruction.
func (lo *lowerer) emitOne(b *ir.Block, in *ir.Instr, cost int32) {
	switch in.Op {
	case ir.OpAlloca:
		if t := interp.AllocLimitTrap(in.Nam, ir.SizeOfElems(in.AllocaElem)); t != nil {
			// The size is static: trap where the walker's allocation would.
			lo.emit(inst{op: opTrap, cost: cost, ext: &extra{kind: t.Kind, msg: t.Msg}})
			return
		}
		lo.emit(inst{op: opAlloca, cost: cost, dst: lo.regs[in],
			ext: &extra{name: in.Nam, elem: in.AllocaElem}})

	case ir.OpLoad:
		lo.emit(inst{op: opLoadP, cost: cost, dst: lo.regs[in], a: lo.operandReg(in.Args[0])})

	case ir.OpStore:
		lo.emit(inst{op: opStoreP, cost: cost,
			dst: lo.operandReg(in.Args[0]), a: lo.operandReg(in.Args[1])})

	case ir.OpGEP:
		pl := lo.planGEP(in)
		if pl.bad {
			lo.emit(inst{op: opTrap, cost: cost, ext: &extra{msg: "gep descends into non-array"}})
			return
		}
		gi := inst{cost: cost, dst: lo.regs[in], a: pl.base, off: pl.off}
		switch len(pl.idxRegs) {
		case 0:
			gi.op = opGEPC
		case 1:
			gi.op, gi.b, gi.s1 = opGEP1, pl.idxRegs[0], pl.strides[0]
		case 2:
			gi.op, gi.b, gi.s1 = opGEP2, pl.idxRegs[0], pl.strides[0]
			gi.c, gi.s2 = pl.idxRegs[1], pl.strides[1]
		default:
			gi.op = opGEPN
			gi.ext = &extra{args: pl.idxRegs, strides: pl.strides}
		}
		lo.emit(gi)

	case ir.OpICmp, ir.OpFCmp:
		op := opICmp
		if in.Op == ir.OpFCmp {
			op = opFCmp
		}
		lo.emit(inst{op: op, pred: in.Pred, cost: cost, dst: lo.regs[in],
			a: lo.operandReg(in.Args[0]), b: lo.operandReg(in.Args[1])})

	case ir.OpSelect:
		lo.emit(inst{op: opSelect, cost: cost, dst: lo.regs[in],
			a: lo.operandReg(in.Args[0]), b: lo.operandReg(in.Args[1]), c: lo.operandReg(in.Args[2])})

	case ir.OpCall:
		ext := &extra{}
		calleeReg := int32(-1)
		if fn, ok := in.Callee.(*ir.Function); ok {
			ext.fn = fn
		} else {
			calleeReg = lo.operandReg(in.Callee)
		}
		for _, a := range in.Args {
			ext.args = append(ext.args, lo.operandReg(a))
		}
		dst := int32(-1)
		if in.HasResult() {
			dst = lo.regs[in]
		}
		lo.emit(inst{op: opCall, cost: cost, dst: dst, a: calleeReg, ext: ext})

	case ir.OpFNeg:
		lo.emit(inst{op: opFNeg, cost: cost, dst: lo.regs[in], a: lo.operandReg(in.Args[0])})

	case ir.OpSIToFP:
		lo.emit(inst{op: opSIToFP, cost: cost, dst: lo.regs[in], a: lo.operandReg(in.Args[0])})

	case ir.OpFPToSI:
		lo.emit(inst{op: opFPToSI, cost: cost, dst: lo.regs[in], a: lo.operandReg(in.Args[0])})

	case ir.OpSExt, ir.OpZExt, ir.OpTrunc, ir.OpBitcast, ir.OpPtrToInt, ir.OpIntToPtr,
		ir.OpFPExt, ir.OpFPTrunc:
		// Value-preserving in the typed-cell model: a costed move.
		lo.emit(inst{op: opMov, cost: cost, dst: lo.regs[in], a: lo.operandReg(in.Args[0])})

	case ir.OpBr:
		succ := in.Blocks[0]
		lo.emitMoves(b, succ)
		lo.emit(inst{op: opBr, cost: cost, a: lo.blockVid[succ]})

	case ir.OpCondBr:
		lo.emit(inst{op: opCondBr, cost: cost, a: lo.operandReg(in.Args[0]),
			b: lo.edgeTarget(b, in.Blocks[0]), c: lo.edgeTarget(b, in.Blocks[1])})

	case ir.OpRet:
		ri := inst{op: opRet, cost: cost, a: -1}
		if len(in.Args) == 1 {
			ri.a = lo.operandReg(in.Args[0])
		}
		lo.emit(ri)

	default:
		if op, ok := binOps[in.Op]; ok {
			lo.emit(inst{op: op, cost: cost, dst: lo.regs[in],
				a: lo.operandReg(in.Args[0]), b: lo.operandReg(in.Args[1])})
			return
		}
		lo.emit(inst{op: opTrap, cost: cost,
			ext: &extra{msg: fmt.Sprintf("unimplemented op %s", in.Op)}})
	}
}
