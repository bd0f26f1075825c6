package passes

import (
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/ir"
)

// allocaProgram is the pre-mem2reg form the frontend emits for
//
//	long f(long n) { long s = 0; for (long i = 0; i < n; i++) s = s + i; return s; }
const allocaProgram = `
define i64 @f(i64 %n) {
entry:
  %s.addr = alloca i64
  call void @llvm.dbg.value(metadata i64* %s.addr, metadata !"s")
  %i.addr = alloca i64
  call void @llvm.dbg.value(metadata i64* %i.addr, metadata !"i")
  store i64 0, i64* %s.addr
  store i64 0, i64* %i.addr
  br label %for.cond
for.cond:
  %i0 = load i64, i64* %i.addr
  %cmp = icmp slt i64 %i0, %n
  br i1 %cmp, label %for.body, label %for.end
for.body:
  %s0 = load i64, i64* %s.addr
  %i1 = load i64, i64* %i.addr
  %add = add i64 %s0, %i1
  store i64 %add, i64* %s.addr
  br label %for.inc
for.inc:
  %i2 = load i64, i64* %i.addr
  %inc = add i64 %i2, 1
  store i64 %inc, i64* %i.addr
  br label %for.cond
for.end:
  %s1 = load i64, i64* %s.addr
  ret i64 %s1
}
`

func TestMem2RegBasic(t *testing.T) {
	m := ir.MustParse(allocaProgram)
	f := m.FuncByName("f")
	if !Mem2Reg(f) {
		t.Fatal("mem2reg reported no change")
	}
	if err := m.Verify(); err != nil {
		t.Fatalf("verify: %v\n%s", err, f.Print())
	}
	// No allocas, loads, or stores remain.
	f.Instrs(func(in *ir.Instr) {
		switch in.Op {
		case ir.OpAlloca, ir.OpLoad, ir.OpStore:
			t.Errorf("memory op survived: %s", in)
		}
	})
	// The loop header got phis for both variables.
	hdr := f.BlockByName("for.cond")
	if got := len(hdr.Phis()); got != 2 {
		t.Fatalf("header phis = %d, want 2\n%s", got, f.Print())
	}
	// Debug intrinsics describe SSA values for both variables.
	names := map[string]int{}
	f.Instrs(func(in *ir.Instr) {
		if in.Op == ir.OpDbgValue {
			names[in.VarName]++
		}
	})
	if names["s"] < 2 || names["i"] < 2 {
		t.Errorf("dbg.value counts = %v, want several for s and i", names)
	}
}

func TestMem2RegUseBeforeDef(t *testing.T) {
	m := ir.MustParse(`
define i64 @g() {
entry:
  %x.addr = alloca i64
  %v = load i64, i64* %x.addr
  ret i64 %v
}
`)
	f := m.FuncByName("g")
	Mem2Reg(f)
	if err := m.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	ret := f.Entry().Terminator()
	if _, ok := ret.Args[0].(*ir.ConstUndef); !ok {
		t.Errorf("load before store should yield undef, got %s", ret.Args[0].Ident())
	}
}

func TestMem2RegSkipsEscapedAlloca(t *testing.T) {
	m := ir.MustParse(`
declare void @use(i64*)
define void @h() {
entry:
  %x.addr = alloca i64
  call void @use(i64* %x.addr)
  store i64 1, i64* %x.addr
  ret void
}
`)
	f := m.FuncByName("h")
	Mem2Reg(f)
	found := false
	f.Instrs(func(in *ir.Instr) {
		if in.Op == ir.OpAlloca {
			found = true
		}
	})
	if !found {
		t.Error("escaped alloca was promoted")
	}
}

func TestMem2RegSkipsArrayAlloca(t *testing.T) {
	m := ir.MustParse(`
define void @h2() {
entry:
  %a = alloca [10 x i64]
  %p = getelementptr [10 x i64], [10 x i64]* %a, i64 0, i64 3
  store i64 1, i64* %p
  ret void
}
`)
	f := m.FuncByName("h2")
	Mem2Reg(f)
	found := false
	f.Instrs(func(in *ir.Instr) {
		if in.Op == ir.OpAlloca {
			found = true
		}
	})
	if !found {
		t.Error("array alloca was promoted")
	}
}

func TestMem2RegDiamondMergesWithPhi(t *testing.T) {
	m := ir.MustParse(`
define i64 @d(i1 %c) {
entry:
  %x.addr = alloca i64
  br i1 %c, label %a, label %b
a:
  store i64 1, i64* %x.addr
  br label %join
b:
  store i64 2, i64* %x.addr
  br label %join
join:
  %v = load i64, i64* %x.addr
  ret i64 %v
}
`)
	f := m.FuncByName("d")
	Mem2Reg(f)
	if err := m.Verify(); err != nil {
		t.Fatalf("verify: %v\n%s", err, f.Print())
	}
	join := f.BlockByName("join")
	phis := join.Phis()
	if len(phis) != 1 {
		t.Fatalf("join phis = %d, want 1", len(phis))
	}
	if join.Terminator().Args[0] != ir.Value(phis[0]) {
		t.Error("ret does not use the merge phi")
	}
}

func TestSimplifyCFGFoldsConstBranch(t *testing.T) {
	m := ir.MustParse(`
define i64 @s() {
entry:
  br i1 true, label %a, label %b
a:
  ret i64 1
b:
  ret i64 2
}
`)
	f := m.FuncByName("s")
	if !SimplifyCFG(f) {
		t.Fatal("no change")
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
	if f.BlockByName("b") != nil {
		t.Error("dead branch target not removed")
	}
	if len(f.Blocks) != 1 {
		t.Errorf("blocks = %d, want 1 (merged)", len(f.Blocks))
	}
}

func TestSimplifyCFGRemovesForwarder(t *testing.T) {
	m := ir.MustParse(`
define i64 @fw(i1 %c) {
entry:
  br i1 %c, label %fwd, label %other
fwd:
  br label %join
other:
  br label %join
join:
  %p = phi i64 [ 1, %fwd ], [ 2, %other ]
  ret i64 %p
}
`)
	f := m.FuncByName("fw")
	SimplifyCFG(f)
	if err := m.Verify(); err != nil {
		t.Fatalf("verify: %v\n%s", err, f.Print())
	}
	if f.BlockByName("fwd") != nil {
		t.Errorf("forwarder not removed:\n%s", f.Print())
	}
}

func TestConstFoldAndDCE(t *testing.T) {
	m := ir.MustParse(`
define i64 @cf(i64 %x) {
entry:
  %a = add i64 2, 3
  %b = mul i64 %a, 4
  %dead = sub i64 %x, 7
  %c = add i64 %x, 0
  %d = mul i64 %c, 1
  ret i64 %b
}
`)
	f := m.FuncByName("cf")
	ConstFold(f)
	DCE(f)
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
	if n := f.NumInstrs(); n != 1 {
		t.Errorf("instrs after fold+dce = %d, want 1 (ret only)\n%s", n, f.Print())
	}
	ret := f.Entry().Terminator()
	c, ok := ret.Args[0].(*ir.ConstInt)
	if !ok || c.V != 20 {
		t.Errorf("folded value = %s, want 20", ret.Args[0].Ident())
	}
}

func TestConstFoldDivByZeroLeftAlone(t *testing.T) {
	m := ir.MustParse(`
define i64 @dz() {
entry:
  %a = sdiv i64 1, 0
  ret i64 %a
}
`)
	f := m.FuncByName("dz")
	ConstFold(f)
	if f.NumInstrs() != 2 {
		t.Error("div by zero folded away")
	}
}

func TestDCEKeepsSideEffects(t *testing.T) {
	m := ir.MustParse(`
declare i64 @ext()
define void @k(i64* %p) {
entry:
  %v = call i64 @ext()
  store i64 0, i64* %p
  ret void
}
`)
	f := m.FuncByName("k")
	DCE(f)
	if f.NumInstrs() != 3 {
		t.Errorf("side-effecting instrs removed:\n%s", f.Print())
	}
}

func TestDCERemovesDbgOfDeadValue(t *testing.T) {
	m := ir.MustParse(`
define void @dd(i64 %x) {
entry:
  %a = add i64 %x, 1
  call void @llvm.dbg.value(metadata i64 %a, metadata !"a")
  ret void
}
`)
	f := m.FuncByName("dd")
	DCE(f)
	if f.NumInstrs() != 1 {
		t.Errorf("dead value + dbg not removed:\n%s", f.Print())
	}
}

const licmProgram = `
define void @li(i64 %n, double* %A) {
entry:
  br label %for.cond
for.cond:
  %i = phi i64 [ 0, %entry ], [ %i.next, %for.body ]
  %bound = sub i64 %n, 1
  %cmp = icmp slt i64 %i, %bound
  br i1 %cmp, label %for.body, label %for.end
for.body:
  %inv = mul i64 %n, 8
  %sum = add i64 %inv, %i
  %g = getelementptr double, double* %A, i64 %i
  store double 1.0, double* %g
  %i.next = add i64 %i, 1
  br label %for.cond
for.end:
  ret void
}
`

func TestLICMHoistsInvariants(t *testing.T) {
	m := ir.MustParse(licmProgram)
	f := m.FuncByName("li")
	if !LICM(f) {
		t.Fatal("no change")
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
	entry := f.BlockByName("entry")
	hoisted := map[string]bool{}
	for _, in := range entry.Instrs {
		hoisted[in.Nam] = true
	}
	if !hoisted["inv"] {
		t.Errorf("invariant mul not hoisted:\n%s", f.Print())
	}
	if !hoisted["bound"] {
		t.Errorf("invariant bound not hoisted:\n%s", f.Print())
	}
	if hoisted["sum"] || hoisted["g"] {
		t.Error("variant instruction hoisted")
	}
}

func TestLoopRotateProducesDoWhileShape(t *testing.T) {
	m := ir.MustParse(allocaProgram)
	f := m.FuncByName("f")
	Mem2Reg(f)
	SimplifyCFG(f)
	LICM(f)
	if !LoopRotate(f) {
		t.Fatalf("loop not rotated:\n%s", f.Print())
	}
	if err := m.Verify(); err != nil {
		t.Fatalf("verify: %v\n%s", err, f.Print())
	}
	dom := analysis.NewDomTree(f)
	li := analysis.FindLoops(f, dom)
	if len(li.All) != 1 {
		t.Fatalf("loops = %d\n%s", len(li.All), f.Print())
	}
	cl := analysis.AnalyzeCountedLoop(li.All[0])
	if cl == nil {
		t.Fatalf("rotated loop not counted:\n%s", f.Print())
	}
	if !cl.Rotated {
		t.Errorf("loop not recognized as rotated:\n%s", f.Print())
	}
	if !cl.CmpOnNext {
		t.Errorf("rotated exit test not on stepped value:\n%s", f.Print())
	}
	// The guard check exists: preheader ends in a conditional branch.
	pre := cl.Loop.Preheader()
	if pre == nil || pre.Terminator().Op != ir.OpCondBr {
		t.Errorf("no guard check before rotated loop:\n%s", f.Print())
	}
}

func TestLoopRotatePreservesReductionSemantics(t *testing.T) {
	// After rotation the function must still return sum(0..n-1); check the
	// live-out phi wiring by structural execution: fold for constant n.
	m := ir.MustParse(strings.Replace(allocaProgram, "i64 %n", "i64 %n", 1))
	f := m.FuncByName("f")
	Mem2Reg(f)
	SimplifyCFG(f)
	LoopRotate(f)
	if err := m.Verify(); err != nil {
		t.Fatalf("verify: %v\n%s", err, f.Print())
	}
	// The exit block must merge the zero-trip value (0) and the loop
	// value via a phi.
	var lcssa *ir.Instr
	f.Instrs(func(in *ir.Instr) {
		if in.Op == ir.OpPhi && strings.Contains(in.Nam, "lcssa") {
			lcssa = in
		}
	})
	if lcssa == nil {
		t.Fatalf("no lcssa phi in exit:\n%s", f.Print())
	}
	ret := f.BlockByName("for.end").Terminator()
	if ret.Args[0] != ir.Value(lcssa) {
		t.Errorf("ret does not use lcssa phi:\n%s", f.Print())
	}
}

func TestO2PipelineOnAllocaProgram(t *testing.T) {
	m := ir.MustParse(allocaProgram)
	Optimize(m, RunConfig{})
	if err := m.Verify(); err != nil {
		t.Fatalf("verify after O2: %v\n%s", err, m.Print())
	}
	f := m.FuncByName("f")
	// Memory ops gone, loop rotated.
	f.Instrs(func(in *ir.Instr) {
		if in.Op == ir.OpAlloca || in.Op == ir.OpLoad || in.Op == ir.OpStore {
			t.Errorf("memory op after O2: %s", in)
		}
	})
	li := analysis.FindLoops(f, analysis.NewDomTree(f))
	if len(li.All) != 1 {
		t.Fatalf("loops after O2 = %d", len(li.All))
	}
	cl := analysis.AnalyzeCountedLoop(li.All[0])
	if cl == nil || !cl.Rotated {
		t.Errorf("O2 did not leave a rotated counted loop:\n%s", f.Print())
	}
}

// TestLICMThenRotateOnNest exercises the O2 interaction the decompiler
// depends on: after LICM hoists the invariant bound, rotation succeeds
// on both loops of a nest.
func TestLICMThenRotateOnNest(t *testing.T) {
	m := ir.MustParse(`
@A = global [100 x [100 x double]] zeroinitializer
define void @nest(i64 %n) {
entry:
  br label %outer.cond
outer.cond:
  %i = phi i64 [ 0, %entry ], [ %i.next, %outer.latch ]
  %ob = sub i64 %n, 1
  %oc = icmp slt i64 %i, %ob
  br i1 %oc, label %inner.pre, label %done
inner.pre:
  br label %inner.cond
inner.cond:
  %j = phi i64 [ 0, %inner.pre ], [ %j.next, %inner.body ]
  %ic = icmp slt i64 %j, %n
  br i1 %ic, label %inner.body, label %outer.latch
inner.body:
  %g = getelementptr [100 x [100 x double]], [100 x [100 x double]]* @A, i64 0, i64 %i, i64 %j
  store double 1.0, double* %g
  %j.next = add i64 %j, 1
  br label %inner.cond
outer.latch:
  %i.next = add i64 %i, 1
  br label %outer.cond
done:
  ret void
}
`)
	f := m.FuncByName("nest")
	LICM(f)
	if !LoopRotate(f) {
		t.Fatalf("nest not rotated:\n%s", f.Print())
	}
	if err := m.Verify(); err != nil {
		t.Fatalf("verify: %v\n%s", err, f.Print())
	}
	li := analysis.FindLoops(f, analysis.NewDomTree(f))
	rotated := 0
	for _, l := range li.All {
		if cl := analysis.AnalyzeCountedLoop(l); cl != nil && cl.Rotated {
			rotated++
		}
	}
	if rotated != 2 {
		t.Errorf("rotated loops = %d, want 2\n%s", rotated, f.Print())
	}
}

func TestSimplifyCFGCollapsesSingleIncomingPhi(t *testing.T) {
	m := ir.MustParse(`
define i64 @f(i64 %x) {
entry:
  br i1 true, label %a, label %b
a:
  %v = add i64 %x, 1
  br label %join
b:
  br label %join
join:
  %p = phi i64 [ %v, %a ], [ 0, %b ]
  ret i64 %p
}
`)
	f := m.FuncByName("f")
	SimplifyCFG(f)
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
	f.Instrs(func(in *ir.Instr) {
		if in.Op == ir.OpPhi {
			t.Errorf("phi survived constant-branch folding: %s", in)
		}
	})
}
