package ir

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// buildLoopFunc constructs, via the builder, the canonical counted loop
//
//	for (i = 0; i < n; i++) sum += i;
//
// used throughout the tests.
func buildLoopFunc(t *testing.T) (*Module, *Function) {
	t.Helper()
	m := NewModule("test")
	f := m.AddFunc(NewFunction("sumto", &FuncType{Ret: I64, Params: []Type{I64}}, "n"))
	entry := f.NewBlock("entry")
	header := f.NewBlock("for.cond")
	body := f.NewBlock("for.body")
	exit := f.NewBlock("for.end")

	bd := NewBuilder(f)
	bd.SetBlock(entry)
	bd.Br(header)

	bd.SetBlock(header)
	iv := bd.Phi(I64, "iv")
	sum := bd.Phi(I64, "sum")
	cmp := bd.ICmp(CmpSLT, iv, f.Params[0], "cmp")
	bd.CondBr(cmp, body, exit)

	bd.SetBlock(body)
	sumNext := bd.Bin(OpAdd, sum, iv, "sum.next")
	ivNext := bd.Bin(OpAdd, iv, I64Const(1), "iv.next")
	bd.Br(header)

	bd.SetBlock(exit)
	bd.Ret(sum)

	iv.SetPhiIncoming(entry, I64Const(0))
	iv.SetPhiIncoming(body, ivNext)
	sum.SetPhiIncoming(entry, I64Const(0))
	sum.SetPhiIncoming(body, sumNext)
	return m, f
}

func TestBuilderProducesVerifiableIR(t *testing.T) {
	m, f := buildLoopFunc(t)
	if err := m.Verify(); err != nil {
		t.Fatalf("verify: %v\n%s", err, m.Print())
	}
	if got := len(f.Blocks); got != 4 {
		t.Fatalf("blocks = %d, want 4", got)
	}
	if f.Entry().Nam != "entry" {
		t.Fatalf("entry = %q", f.Entry().Nam)
	}
}

func TestPrintParseRoundTrip(t *testing.T) {
	m, _ := buildLoopFunc(t)
	text1 := m.Print()
	m2, err := Parse(text1)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, text1)
	}
	if err := m2.Verify(); err != nil {
		t.Fatalf("verify reparsed: %v", err)
	}
	text2 := m2.Print()
	if text1 != text2 {
		t.Fatalf("round trip mismatch:\n--- first ---\n%s\n--- second ---\n%s", text1, text2)
	}
}

func TestParseFullSyntax(t *testing.T) {
	src := `
@N = constant i64 4000
@A = global [4000 x double] zeroinitializer

declare double @exp(double)

define void @kernel(double* %B, i64 %n) {
entry:
  %p = alloca double
  call void @llvm.dbg.value(metadata i64 %n, metadata !"n")
  %g = getelementptr [4000 x double], [4000 x double]* @A, i64 0, i64 5
  %v = load double, double* %g
  %e = call double @exp(double %v)
  store double %e, double* %p
  %c = fcmp olt double %e, 1.5
  %s = select i1 %c, double %e, double 2.0
  %i = sitofp i64 %n to double
  %x = fadd double %s, %i
  store double %x, double* %B
  br i1 %c, label %a, label %b
a:
  br label %b
b:
  %ph = phi double [ %x, %entry ], [ 0.0, %a ]
  store double %ph, double* %B
  ret void
}
`
	m, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := m.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	f := m.FuncByName("kernel")
	if f == nil {
		t.Fatal("kernel not found")
	}
	// dbg.value survived with its variable name.
	var foundDbg bool
	f.Instrs(func(in *Instr) {
		if in.Op == OpDbgValue && in.VarName == "n" {
			foundDbg = true
		}
	})
	if !foundDbg {
		t.Error("dbg.value for n not parsed")
	}
	// Round trip again.
	if _, err := Parse(m.Print()); err != nil {
		t.Fatalf("reparse: %v\n%s", err, m.Print())
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"define void @f() { entry: br label %missing }",
		"define void @f() { entry: %x = frob i64 1, 2 }",
		"@g = global i64",
		"define void @f() { %x = add i64 1, 2 }", // instr before label
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestVerifyCatchesBrokenIR(t *testing.T) {
	// Terminator in the middle of a block.
	m, f := buildLoopFunc(t)
	body := f.BlockByName("for.body")
	br := &Instr{Op: OpBr, Typ: Void, Blocks: []*Block{f.BlockByName("for.end")}}
	body.InsertAt(0, br)
	if err := m.Verify(); err == nil {
		t.Error("verify accepted mid-block terminator")
	}

	// Phi with missing predecessor entry.
	m2, f2 := buildLoopFunc(t)
	hdr := f2.BlockByName("for.cond")
	hdr.Phis()[0].RemovePhiIncoming(f2.BlockByName("entry"))
	if err := m2.Verify(); err == nil {
		t.Error("verify accepted phi with missing pred entry")
	}
}

func TestReplaceAllUses(t *testing.T) {
	_, f := buildLoopFunc(t)
	hdr := f.BlockByName("for.cond")
	iv := hdr.Phis()[0]
	repl := I64Const(7)
	f.ReplaceAllUses(iv, repl)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				if a == Value(iv) {
					t.Fatalf("stale use of %%iv in %s", in)
				}
			}
		}
	}
	if !f.HasUses(repl) {
		t.Error("replacement value has no uses")
	}
}

func TestPredsSuccsAndPhiHelpers(t *testing.T) {
	_, f := buildLoopFunc(t)
	hdr := f.BlockByName("for.cond")
	preds := hdr.Preds()
	if len(preds) != 2 {
		t.Fatalf("header preds = %d, want 2", len(preds))
	}
	succs := hdr.Succs()
	if len(succs) != 2 || succs[0].Nam != "for.body" || succs[1].Nam != "for.end" {
		t.Fatalf("header succs wrong: %v", succs)
	}
	iv := hdr.Phis()[0]
	if got := iv.PhiIncoming(f.BlockByName("entry")); got == nil {
		t.Error("missing incoming from entry")
	}
	if got := iv.PhiIncoming(f.BlockByName("for.end")); got != nil {
		t.Error("unexpected incoming from exit")
	}
}

func TestCloneFunction(t *testing.T) {
	m, f := buildLoopFunc(t)
	nf := CloneFunction(f, "sumto.clone")
	if err := m.Verify(); err != nil {
		t.Fatalf("verify after clone: %v", err)
	}
	if nf.NumInstrs() != f.NumInstrs() {
		t.Fatalf("clone has %d instrs, original %d", nf.NumInstrs(), f.NumInstrs())
	}
	// Mutating the clone must not touch the original.
	n0 := f.NumInstrs()
	nf.Blocks[0].Remove(0)
	if f.NumInstrs() != n0 {
		t.Error("mutating clone changed original")
	}
	// No instruction in the clone may reference an original instruction.
	orig := map[*Instr]bool{}
	f.Instrs(func(in *Instr) { orig[in] = true })
	nf.Instrs(func(in *Instr) {
		for _, a := range in.Args {
			if ia, ok := a.(*Instr); ok && orig[ia] {
				t.Errorf("clone %s references original %%%s", in, ia.Nam)
			}
		}
	})
}

func TestFreshNameNeverCollides(t *testing.T) {
	f := NewFunction("f", &FuncType{Ret: Void})
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		n := f.FreshName("x")
		if seen[n] {
			t.Fatalf("FreshName repeated %q", n)
		}
		seen[n] = true
	}
}

func TestGEPResultType(t *testing.T) {
	arr2d := Array(10, Array(20, F64))
	base := Ptr(arr2d)
	got, err := GEPResultType(base, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(Ptr(F64)) {
		t.Fatalf("GEP result = %s, want double*", got)
	}
	if _, err := GEPResultType(F64, 1); err == nil {
		t.Error("GEP on non-pointer accepted")
	}
	if _, err := GEPResultType(Ptr(F64), 3); err == nil {
		t.Error("GEP descending into scalar accepted")
	}
}

func TestCmpPredAlgebra(t *testing.T) {
	preds := []CmpPred{CmpEQ, CmpNE, CmpSLT, CmpSLE, CmpSGT, CmpSGE}
	for _, p := range preds {
		if p.Inverse().Inverse() != p {
			t.Errorf("Inverse not involutive for %s", p)
		}
		if p.Swapped().Swapped() != p {
			t.Errorf("Swapped not involutive for %s", p)
		}
	}
	if CmpSLT.Inverse() != CmpSGE {
		t.Error("slt inverse != sge")
	}
	if CmpSLT.Swapped() != CmpSGT {
		t.Error("slt swapped != sgt")
	}
}

// Property: integer constants of any value round-trip through print+parse.
func TestQuickConstIntRoundTrip(t *testing.T) {
	fn := func(v int64) bool {
		src := "define i64 @f() {\nentry:\n  %x = add i64 " +
			I64Const(v).Ident() + ", 0\n  ret i64 %x\n}\n"
		m, err := Parse(src)
		if err != nil {
			return false
		}
		in := m.FuncByName("f").Entry().Instrs[0]
		c, ok := in.Args[0].(*ConstInt)
		return ok && c.V == v
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Error(err)
	}
}

// Property: float constants round-trip (value-preserving) through text.
func TestQuickConstFloatRoundTrip(t *testing.T) {
	fn := func(v float64) bool {
		if v != v { // NaN has no literal form in this IR
			return true
		}
		src := "define double @f() {\nentry:\n  %x = fadd double " +
			F64Const(v).Ident() + ", 0.0\n  ret double %x\n}\n"
		m, err := Parse(src)
		if err != nil {
			return false
		}
		in := m.FuncByName("f").Entry().Instrs[0]
		c, ok := in.Args[0].(*ConstFloat)
		return ok && c.V == v
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Error(err)
	}
}

func TestTypeEquality(t *testing.T) {
	if !Ptr(F64).Equal(Ptr(F64)) {
		t.Error("double* != double*")
	}
	if Ptr(F64).Equal(Ptr(I64)) {
		t.Error("double* == i64*")
	}
	if !Array(4, I32).Equal(Array(4, I32)) {
		t.Error("[4 x i32] != [4 x i32]")
	}
	if Array(4, I32).Equal(Array(5, I32)) {
		t.Error("[4 x i32] == [5 x i32]")
	}
	ft := &FuncType{Ret: I64, Params: []Type{I64, Ptr(F64)}}
	if !ft.Equal(&FuncType{Ret: I64, Params: []Type{I64, Ptr(F64)}}) {
		t.Error("identical func types unequal")
	}
	if ft.Equal(&FuncType{Ret: I64, Params: []Type{I64}}) {
		t.Error("different arity func types equal")
	}
	if !strings.Contains(ft.String(), "i64 (i64, double*)") {
		t.Errorf("func type string = %q", ft.String())
	}
}

func TestSizeOfElems(t *testing.T) {
	if got := SizeOfElems(Array(10, Array(20, F64))); got != 200 {
		t.Errorf("SizeOfElems 2d = %d, want 200", got)
	}
	if got := SizeOfElems(F64); got != 1 {
		t.Errorf("SizeOfElems scalar = %d, want 1", got)
	}
	if got := SizeOfElems(Ptr(F64)); got != 1 {
		t.Errorf("SizeOfElems ptr = %d, want 1", got)
	}
	// Products past int saturate instead of wrapping: 2^62 x 4 used to
	// wrap to a zero-cell object.
	for _, ty := range []Type{
		Array(1<<62, Array(4, F64)),
		Array(math.MaxInt, Array(2, I64)),
		Array(3, Array(math.MaxInt/2, F64)),
	} {
		if got := SizeOfElems(ty); got != math.MaxInt {
			t.Errorf("SizeOfElems %s = %d, want saturation at math.MaxInt", ty, got)
		}
	}
	if got := SizeOfElems(Array(0, Array(math.MaxInt, F64))); got != 0 {
		t.Errorf("SizeOfElems of a zero-length array = %d, want 0", got)
	}
}

func TestModuleHelpers(t *testing.T) {
	m := NewModule("m")
	sig := &FuncType{Ret: Void}
	f1 := m.DeclareFunc("ext", sig)
	f2 := m.DeclareFunc("ext", sig)
	if f1 != f2 {
		t.Error("DeclareFunc created duplicate")
	}
	g := m.AddGlobal(&Global{Nam: "g", Elem: I64})
	if m.GlobalByName("g") != g {
		t.Error("GlobalByName failed")
	}
	m.RemoveFunc(f1)
	if m.FuncByName("ext") != nil {
		t.Error("RemoveFunc failed")
	}
}

// TestParseNeverPanics mutates a valid module in pseudo-random ways and
// requires Parse to return an error rather than panic or hang.
func TestParseNeverPanics(t *testing.T) {
	base := `
@G = global i64 0
define i64 @f(i64 %n) {
entry:
  %a = add i64 %n, 1
  %c = icmp slt i64 %a, 10
  br i1 %c, label %x, label %y
x:
  ret i64 %a
y:
  %p = phi i64 [ %a, %entry ]
  ret i64 %p
}
`
	seed := uint64(12345)
	next := func(n int) int {
		seed = seed*6364136223846793005 + 1442695040888963407
		return int(seed>>33) % n
	}
	for i := 0; i < 300; i++ {
		b := []byte(base)
		// A few random edits: deletions, duplications, byte flips.
		for k := 0; k < 1+next(4); k++ {
			pos := next(len(b))
			switch next(3) {
			case 0:
				b = append(b[:pos], b[min(pos+1+next(5), len(b)):]...)
			case 1:
				b[pos] = "%@(){}[],;!x0"[next(13)]
			case 2:
				ins := base[next(len(base)):]
				if len(ins) > 8 {
					ins = ins[:8]
				}
				b = append(b[:pos], append([]byte(ins), b[pos:]...)...)
			}
			if len(b) == 0 {
				break
			}
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Parse panicked on mutation %d: %v\n%s", i, r, b)
				}
			}()
			m, err := Parse(string(b))
			if err == nil && m != nil {
				_ = m.Verify() // must also not panic
			}
		}()
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
