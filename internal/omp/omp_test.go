package omp

import (
	"testing"

	"repro/internal/ir"
)

func TestDeclareRuntime(t *testing.T) {
	m := ir.NewModule("t")
	decls := DeclareRuntime(m)
	for _, name := range []string{ForkCall, ForStaticInit, ForStaticFini, Barrier, GlobalThread, PushNumThreads} {
		f := decls[name]
		if f == nil {
			t.Fatalf("missing declaration for %s", name)
		}
		if !f.IsDecl() {
			t.Errorf("%s has a body", name)
		}
		if m.FuncByName(name) != f {
			t.Errorf("%s not registered in module", name)
		}
	}
	// Idempotent.
	decls2 := DeclareRuntime(m)
	if decls2[ForkCall] != decls[ForkCall] {
		t.Error("DeclareRuntime duplicated declarations")
	}
	if !decls[ForkCall].Sig.Variadic {
		t.Error("fork call must be variadic")
	}
	if len(decls[ForStaticInit].Sig.Params) != 8 {
		t.Errorf("static init arity = %d, want 8", len(decls[ForStaticInit].Sig.Params))
	}
}

func TestIsRuntimeCall(t *testing.T) {
	if !IsRuntimeCall(ForkCall) || !IsRuntimeCall(Barrier) {
		t.Error("runtime names not recognized")
	}
	if IsRuntimeCall("exp") || IsRuntimeCall("main") {
		t.Error("non-runtime names recognized")
	}
}

func TestForkHelpers(t *testing.T) {
	m := ir.NewModule("t")
	decls := DeclareRuntime(m)
	mt := ir.NewFunction("task", MicrotaskSig([]ir.Type{ir.I64}), "gtid.ptr", "btid.ptr", "n")
	m.AddFunc(mt)

	fork := &ir.Instr{
		Op: ir.OpCall, Typ: ir.Void, Callee: decls[ForkCall],
		Args: []ir.Value{ir.I32Const(1), ir.Value(mt), ir.I64Const(7)},
	}
	if !IsForkCall(fork) {
		t.Error("fork call not detected")
	}
	if Microtask(fork) != mt {
		t.Error("microtask not extracted")
	}
	shared := SharedArgs(fork)
	if len(shared) != 1 {
		t.Fatalf("shared args = %d, want 1", len(shared))
	}
	if c, ok := shared[0].(*ir.ConstInt); !ok || c.V != 7 {
		t.Errorf("shared arg = %v", shared[0])
	}

	notFork := &ir.Instr{Op: ir.OpCall, Typ: ir.Void, Callee: decls[Barrier], Args: []ir.Value{ir.I32Const(0)}}
	if IsForkCall(notFork) {
		t.Error("barrier detected as fork")
	}
	if !IsBarrier(notFork) {
		t.Error("barrier not detected")
	}
}

func TestMicrotaskSig(t *testing.T) {
	sig := MicrotaskSig([]ir.Type{ir.Ptr(ir.F64), ir.I64})
	if len(sig.Params) != 4 {
		t.Fatalf("params = %d, want 4", len(sig.Params))
	}
	if !sig.Params[0].Equal(ir.Ptr(ir.I32)) || !sig.Params[1].Equal(ir.Ptr(ir.I32)) {
		t.Error("gtid/btid params wrong")
	}
	if !ir.IsVoid(sig.Ret) {
		t.Error("microtask must return void")
	}
}

func TestAtomicCombineHelpers(t *testing.T) {
	cases := []struct {
		op   string
		t    ir.Type
		want string
	}{
		{"+", ir.F64, AtomicAddF64},
		{"*", ir.F64, AtomicMulF64},
		{"+", ir.I64, AtomicAddI64},
		{"*", ir.I64, AtomicMulI64},
	}
	m := ir.NewModule("t")
	decls := DeclareRuntime(m)
	for _, c := range cases {
		if got := AtomicCombineFor(c.op, c.t); got != c.want {
			t.Errorf("AtomicCombineFor(%q, %s) = %q, want %q", c.op, c.t, got, c.want)
		}
		call := &ir.Instr{Op: ir.OpCall, Typ: ir.Void, Callee: decls[c.want],
			Args: []ir.Value{ir.Undef(ir.Ptr(c.t)), ir.Undef(c.t)}}
		op, ok := IsAtomicCombine(call)
		if !ok || op != c.op {
			t.Errorf("IsAtomicCombine(%s) = %q,%v", c.want, op, ok)
		}
	}
	if _, ok := IsAtomicCombine(nil); ok {
		t.Error("nil detected as combine")
	}
}

func TestDispatchHelpers(t *testing.T) {
	m := ir.NewModule("t")
	decls := DeclareRuntime(m)
	init := &ir.Instr{Op: ir.OpCall, Typ: ir.Void, Callee: decls[DispatchInit]}
	next := &ir.Instr{Op: ir.OpCall, Typ: ir.I32, Callee: decls[DispatchNext]}
	if !IsDispatchInit(init) || IsDispatchInit(next) {
		t.Error("IsDispatchInit wrong")
	}
	if !IsDispatchNext(next) || IsDispatchNext(init) {
		t.Error("IsDispatchNext wrong")
	}
	if !IsRuntimeCall(DispatchInit) || !IsRuntimeCall(AtomicAddF64) {
		t.Error("runtime-call classification wrong")
	}
}

func TestSchedName(t *testing.T) {
	cases := []struct {
		kind int64
		want string
		ok   bool
	}{
		{SchedStatic, "static", true},
		{SchedStaticChunked, "static", true},
		{SchedDynamic, "dynamic", true},
		{SchedGuided, "guided", true},
		{SchedAuto, "auto", true},
		{0, "", false},
		{99, "", false},
	}
	for _, c := range cases {
		got, ok := SchedName(c.kind)
		if got != c.want || ok != c.ok {
			t.Errorf("SchedName(%d) = %q,%v, want %q,%v", c.kind, got, ok, c.want, c.ok)
		}
	}
	if !IsStaticSched(SchedStatic) || IsStaticSched(SchedDynamic) {
		t.Error("IsStaticSched wrong")
	}
	if !IsDispatchSched(SchedGuided) || !IsDispatchSched(SchedAuto) || IsDispatchSched(SchedStatic) {
		t.Error("IsDispatchSched wrong")
	}
}

func TestTripCount(t *testing.T) {
	const maxI = int64(^uint64(0) >> 1)
	const minI = -maxI - 1
	cases := []struct {
		lb, ub, incr int64
		trip         int64
		ok           bool
	}{
		{0, 9, 1, 10, true},
		{0, 9, 3, 4, true},
		{9, 0, -1, 10, true},
		{5, 4, 1, 0, true},  // empty, positive step
		{4, 5, -1, 0, true}, // empty, negative step
		{7, 7, 1, 1, true},
		{minI, minI + 3, 1, 4, true},
		{maxI - 3, maxI, 1, 4, true},
		{minI, maxI, 1, 0, false},    // 2^64 iterations
		{minI, maxI, 7, 0, false},    // span itself wraps
		{maxI, minI, -1, 0, false},   // negative-direction full span
		{0, maxI, 1, 0, false},       // trip = maxI+1
		{0, maxI - 1, 1, maxI, true}, // largest representable trip
		{maxI - 1, 0, -1, maxI, true},
	}
	for _, c := range cases {
		trip, ok := TripCount(c.lb, c.ub, c.incr)
		if trip != c.trip || ok != c.ok {
			t.Errorf("TripCount(%d,%d,%d) = %d,%v, want %d,%v",
				c.lb, c.ub, c.incr, trip, ok, c.trip, c.ok)
		}
	}
}

func TestStaticSpan(t *testing.T) {
	// Ceiling chunks: 10 iterations over 4 workers = 3,3,3,1.
	wantCeil := [][2]int64{{0, 3}, {3, 3}, {6, 3}, {9, 1}}
	for tid, w := range wantCeil {
		s, n := StaticSpan(10, 4, tid, false)
		if s != w[0] || n != w[1] {
			t.Errorf("ceil tid %d: got (%d,%d), want (%d,%d)", tid, s, n, w[0], w[1])
		}
	}
	// Balanced: 10 over 4 = 3,3,2,2.
	wantBal := [][2]int64{{0, 3}, {3, 3}, {6, 2}, {8, 2}}
	for tid, w := range wantBal {
		s, n := StaticSpan(10, 4, tid, true)
		if s != w[0] || n != w[1] {
			t.Errorf("bal tid %d: got (%d,%d), want (%d,%d)", tid, s, n, w[0], w[1])
		}
	}
	// Trailing workers past the space are empty.
	if _, n := StaticSpan(2, 4, 3, false); n != 0 {
		t.Error("worker past space not empty")
	}
	// A near-maximal space still partitions without wrapping: the last
	// worker's count clamps to what remains (the naive start+chunk sum
	// would overflow here).
	const maxI = int64(^uint64(0) >> 1)
	s, n := StaticSpan(maxI, 2, 1, false)
	if s != maxI/2+1 || n != maxI-s {
		t.Errorf("maxI split: got (%d,%d), want (%d,%d)", s, n, maxI/2+1, maxI-(maxI/2+1))
	}
	// Every partition covers the space exactly once.
	for _, balanced := range []bool{false, true} {
		covered := int64(0)
		prevEnd := int64(0)
		for tid := 0; tid < 7; tid++ {
			s, n := StaticSpan(23, 7, tid, balanced)
			if n == 0 {
				continue
			}
			if s != prevEnd {
				t.Errorf("balanced=%v tid %d: start %d, want %d", balanced, tid, s, prevEnd)
			}
			prevEnd = s + n
			covered += n
		}
		if covered != 23 {
			t.Errorf("balanced=%v: covered %d of 23", balanced, covered)
		}
	}
}

func TestGuidedTake(t *testing.T) {
	// The sequence decays exponentially and drains exactly.
	remaining := int64(1000)
	var seq []int64
	for remaining > 0 {
		take := GuidedTake(remaining, 1, 4)
		if take < 1 || take > remaining {
			t.Fatalf("take %d out of range (remaining %d)", take, remaining)
		}
		seq = append(seq, take)
		remaining -= take
	}
	if seq[0] != 125 { // ceil(1000/8)
		t.Errorf("first guided chunk = %d, want 125", seq[0])
	}
	for i := 1; i < len(seq); i++ {
		if seq[i] > seq[i-1] {
			t.Errorf("guided chunks must not grow: %v", seq)
			break
		}
	}
	// The chunk parameter is a floor.
	if take := GuidedTake(1000, 300, 4); take != 300 {
		t.Errorf("min chunk not honored: %d", take)
	}
	if take := GuidedTake(5, 300, 4); take != 5 {
		t.Errorf("take must clamp to remaining: %d", take)
	}
	if GuidedTake(0, 1, 4) != 0 {
		t.Error("empty space must take 0")
	}
}

func TestEmptyRange(t *testing.T) {
	if lo, hi := EmptyRange(1); lo <= hi {
		t.Errorf("positive-step empty range runs: [%d,%d]", lo, hi)
	}
	if lo, hi := EmptyRange(-3); lo >= hi {
		t.Errorf("negative-step empty range runs: [%d,%d]", lo, hi)
	}
}
