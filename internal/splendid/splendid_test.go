package splendid

import (
	"strings"
	"testing"

	"repro/internal/cfront"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/parallel"
	"repro/internal/passes"
)

// buildParallelIR runs C source through the paper's input pipeline:
// compile, -O2, Polly-style parallelization.
func buildParallelIR(t *testing.T, src string) *ir.Module {
	t.Helper()
	m, err := cfront.CompileSource(src, "test", nil)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	passes.Optimize(m, passes.RunConfig{})
	parallel.Parallelize(m, parallel.Options{})
	if err := m.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	return m
}

const jacobiSrc = `
#define N 500
double A[N];
double B[N];

void seed() {
  for (long i = 0; i < N; i++) {
    A[i] = i * i % 13;
    B[i] = 0.0;
  }
}
void kernel() {
  for (long i = 1; i < N - 1; i++) {
    B[i] = (A[i-1] + A[i] + A[i+1]) / 3.0;
  }
}
`

func TestFullDecompilationShape(t *testing.T) {
	m := buildParallelIR(t, jacobiSrc)
	res, err := Decompile(m, Full(), passes.RunConfig{})
	if err != nil {
		t.Fatalf("decompile: %v", err)
	}
	c := res.C
	for _, want := range []string{
		"#pragma omp parallel",
		"#pragma omp for schedule(static) nowait",
		"for (long i = 1; i <= 498; i++)",
		"B[i] = (A[i - 1] + A[i] + A[i + 1]) / 3.0;",
	} {
		if !strings.Contains(c, want) {
			t.Errorf("output missing %q:\n%s", want, c)
		}
	}
	for _, reject := range []string{"__kmpc", "goto", "do {"} {
		if strings.Contains(c, reject) {
			t.Errorf("output contains %q (not portable/natural):\n%s", reject, c)
		}
	}
	if res.Stats.ParallelRegions != 2 { // seed and kernel each have one
		t.Errorf("parallel regions = %d, want 2", res.Stats.ParallelRegions)
	}
	if res.Stats.DerotatedLoops < 1 {
		t.Error("no loops de-rotated")
	}
}

func TestVariantLadder(t *testing.T) {
	m := buildParallelIR(t, jacobiSrc)

	v1, err := Decompile(m, V1(), passes.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// v1 keeps the runtime calls (not portable) but restores for loops.
	if !strings.Contains(v1.C, "__kmpc_fork_call") {
		t.Error("v1 should keep runtime calls")
	}
	if !strings.Contains(v1.C, "for (") {
		t.Error("v1 should emit for loops")
	}

	v2, err := Decompile(m, Portable(), passes.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(v2.C, "__kmpc") {
		t.Error("portable output must not reference the runtime")
	}
	if !strings.Contains(v2.C, "#pragma omp") {
		t.Error("portable output must carry OpenMP pragmas")
	}
	// v2 keeps register-flavored names; full restores source names.
	full, err := Decompile(m, Full(), passes.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(full.C, "for (long i = 1") {
		t.Errorf("full output did not restore variable name i:\n%s", full.C)
	}
}

// TestRoundTripPortability is the portability experiment in miniature
// (paper §5.2): SPLENDID output must recompile with the frontend (the
// "any host compiler" stand-in) and produce results identical to the
// original program, sequentially and in parallel.
func TestRoundTripPortability(t *testing.T) {
	m := buildParallelIR(t, jacobiSrc)
	res, err := Decompile(m, Full(), passes.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}

	// Reference: the original, unparallelized program.
	ref, err := cfront.CompileSource(jacobiSrc, "ref", nil)
	if err != nil {
		t.Fatal(err)
	}
	refMach := interp.NewMachine(ref, interp.Options{})
	for _, fn := range []string{"seed", "kernel"} {
		if _, err := refMach.Run(fn); err != nil {
			t.Fatal(err)
		}
	}

	// Recompiled decompiled output, run with several team sizes.
	rec, err := cfront.CompileSource(res.C, "recompiled", nil)
	if err != nil {
		t.Fatalf("recompile of SPLENDID output failed: %v\n%s", err, res.C)
	}
	passes.Optimize(rec, passes.RunConfig{})
	for _, threads := range []int{1, 4} {
		mach := interp.NewMachine(rec, interp.Options{NumThreads: threads})
		for _, fn := range []string{"seed", "kernel"} {
			if _, err := mach.Run(fn); err != nil {
				t.Fatalf("threads=%d run %s: %v", threads, fn, err)
			}
		}
		want := refMach.GlobalMem("B")
		got := mach.GlobalMem("B")
		for i := range want.Cells {
			if want.Cells[i].F != got.Cells[i].F {
				t.Fatalf("threads=%d: B[%d] = %v, want %v", threads, i, got.Cells[i], want.Cells[i])
			}
		}
	}
}

const gemmSrc = `
#define N 30
double A[N][N];
double B[N][N];
double C[N][N];

void seed() {
  for (long i = 0; i < N; i++) {
    for (long j = 0; j < N; j++) {
      A[i][j] = i + 2 * j;
      B[i][j] = i - j;
      C[i][j] = 0.0;
    }
  }
}
void kernel(double alpha, double beta) {
  for (long i = 0; i < N; i++) {
    for (long j = 0; j < N; j++) {
      C[i][j] = C[i][j] * beta;
      for (long k = 0; k < N; k++) {
        C[i][j] = C[i][j] + alpha * A[i][k] * B[k][j];
      }
    }
  }
}
`

func TestRoundTripNestedLoops(t *testing.T) {
	m := buildParallelIR(t, gemmSrc)
	res, err := Decompile(m, Full(), passes.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Inner sequential loops must also come back as for loops.
	if strings.Contains(res.C, "do {") {
		t.Errorf("nested loops left as do-while:\n%s", res.C)
	}
	rec, err := cfront.CompileSource(res.C, "recompiled", nil)
	if err != nil {
		t.Fatalf("recompile failed: %v\n%s", err, res.C)
	}
	passes.Optimize(rec, passes.RunConfig{})

	ref, _ := cfront.CompileSource(gemmSrc, "ref", nil)
	refMach := interp.NewMachine(ref, interp.Options{})
	alpha, beta := interp.FloatV(1.5), interp.FloatV(0.5)
	if _, err := refMach.Run("seed"); err != nil {
		t.Fatal(err)
	}
	if _, err := refMach.Run("kernel", alpha, beta); err != nil {
		t.Fatal(err)
	}

	mach := interp.NewMachine(rec, interp.Options{NumThreads: 4})
	if _, err := mach.Run("seed"); err != nil {
		t.Fatal(err)
	}
	if _, err := mach.Run("kernel", alpha, beta); err != nil {
		t.Fatalf("recompiled kernel: %v\n%s", err, res.C)
	}
	want := refMach.GlobalMem("C")
	got := mach.GlobalMem("C")
	for i := range want.Cells {
		if want.Cells[i].F != got.Cells[i].F {
			t.Fatalf("C[%d] = %v, want %v", i, got.Cells[i], want.Cells[i])
		}
	}
}

func TestVariableRenamingRecoversSourceNames(t *testing.T) {
	m := buildParallelIR(t, gemmSrc)
	res, err := Decompile(m, Full(), passes.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"i", "j", "k", "alpha", "beta"} {
		if !containsWord(res.C, name) {
			t.Errorf("source variable %q not recovered:\n%s", name, res.C)
		}
	}
	if res.Stats.VarGen.Named == 0 {
		t.Error("no variables named from metadata")
	}
}

func containsWord(s, w string) bool {
	for i := 0; i+len(w) <= len(s); i++ {
		if s[i:i+len(w)] != w {
			continue
		}
		beforeOK := i == 0 || !isWordChar(s[i-1])
		afterOK := i+len(w) == len(s) || !isWordChar(s[i+len(w)])
		if beforeOK && afterOK {
			return true
		}
	}
	return false
}

func isWordChar(c byte) bool {
	return c == '_' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9'
}

// TestConflictingDefinitionRemoval reproduces the paper's Figure 5
// situation: two SSA values map to the same source variable with
// overlapping lifetimes; only one may keep the name.
func TestConflictingDefinitionRemoval(t *testing.T) {
	m := ir.MustParse(`
define i64 @f(i64 %a) {
entry:
  %x1 = add i64 %a, 1
  call void @llvm.dbg.value(metadata i64 %x1, metadata !"var")
  %x2 = add i64 %a, 2
  call void @llvm.dbg.value(metadata i64 %x2, metadata !"var")
  %use1 = mul i64 %x1, 2
  %use2 = mul i64 %x2, 3
  %sum = add i64 %use1, %use2
  ret i64 %sum
}
`)
	f := m.FuncByName("f")
	proposal, stats := GenerateVariables(f, nil)
	// Exactly one of x1/x2 may carry "var".
	named := 0
	for v, w := range proposal {
		if w == "var" {
			named++
			_ = v
		}
	}
	if named != 1 {
		t.Errorf("values named var = %d, want 1 (proposal=%v, stats=%+v)", named, proposal, stats)
	}
	if stats.Conflicts == 0 {
		t.Error("conflict not detected")
	}
}

func TestNoConflictWhenLifetimesDisjoint(t *testing.T) {
	// Figure 5's %3: a later mapping with no overlapping use keeps the name.
	m := ir.MustParse(`
define i64 @g(i64 %a) {
entry:
  %x1 = add i64 %a, 1
  call void @llvm.dbg.value(metadata i64 %x1, metadata !"var")
  %use1 = mul i64 %x1, 2
  %x2 = add i64 %use1, 2
  call void @llvm.dbg.value(metadata i64 %x2, metadata !"var")
  %use2 = mul i64 %x2, 3
  ret i64 %use2
}
`)
	f := m.FuncByName("g")
	proposal, stats := GenerateVariables(f, nil)
	if proposal[findInstr(f, "x1")] != "var" || proposal[findInstr(f, "x2")] != "var" {
		t.Errorf("disjoint lifetimes lost their names: %v (stats %+v)", proposal, stats)
	}
}

func findInstr(f *ir.Function, name string) ir.Value {
	var out ir.Value
	f.Instrs(func(in *ir.Instr) {
		if in.Nam == name {
			out = in
		}
	})
	return out
}

func TestGuardCheckEliminated(t *testing.T) {
	m := buildParallelIR(t, jacobiSrc)
	res, err := Decompile(m, Full(), passes.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// The rotation/runtime guard must not survive as an if around the loop.
	kernel := extractFunc(res.C, "kernel")
	if strings.Contains(kernel, "if (") {
		t.Errorf("guard check not eliminated:\n%s", kernel)
	}
}

func extractFunc(c, name string) string {
	idx := strings.Index(c, "void "+name)
	if idx < 0 {
		return c
	}
	return c[idx:]
}

// TestAliasCheckSurvivesNaturally: the Figure 2 case study — versioned
// loops decompile into an if with the alias check, a parallel branch,
// and a sequential fallback loop.
func TestAliasCheckSurvives(t *testing.T) {
	src := `
#define N 1000
void MayAlias(double* A, double* B, double* C) {
  for (long i = 0; i < N - 1; i++) {
    A[i+1] = M_PI * B[i] + exp(C[i]);
  }
}
`
	m := buildParallelIR(t, src)
	res, err := Decompile(m, Full(), passes.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	c := res.C
	if !strings.Contains(c, "#pragma omp") {
		t.Errorf("no pragma in versioned decompilation:\n%s", c)
	}
	if !strings.Contains(c, "if (") {
		t.Errorf("alias check not visible:\n%s", c)
	}
	// Source parameter names recovered.
	for _, w := range []string{"A", "B", "C"} {
		if !containsWord(c, w) {
			t.Errorf("parameter %s not recovered:\n%s", w, c)
		}
	}
	if !strings.Contains(c, "3.14159") {
		t.Errorf("M_PI constant lost:\n%s", c)
	}
}

func TestDecompileDoesNotMutateInput(t *testing.T) {
	m := buildParallelIR(t, jacobiSrc)
	before := m.Print()
	if _, err := Decompile(m, Full(), passes.RunConfig{}); err != nil {
		t.Fatal(err)
	}
	if m.Print() != before {
		t.Error("Decompile mutated its input module")
	}
}

func TestDerotateSequentialOnlyModule(t *testing.T) {
	// A purely sequential module: V1 restores for loops; Full round-trips.
	src := `
long trisum(long n) {
  long s = 0;
  for (long i = 0; i < n; i++) {
    for (long j = 0; j <= i; j++) {
      s = s + 1;
    }
  }
  return s;
}
`
	m, err := cfront.CompileSource(src, "seq", nil)
	if err != nil {
		t.Fatal(err)
	}
	passes.Optimize(m, passes.RunConfig{})
	res, err := Decompile(m, Full(), passes.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(res.C, "do {") || strings.Contains(res.C, "goto") {
		t.Errorf("sequential loops not restored to for:\n%s", res.C)
	}
	rec, err := cfront.CompileSource(res.C, "rec", nil)
	if err != nil {
		t.Fatalf("recompile: %v\n%s", err, res.C)
	}
	mach := interp.NewMachine(rec, interp.Options{})
	ret, err := mach.Run("trisum", interp.IntV(10))
	if err != nil {
		t.Fatal(err)
	}
	if ret.I != 55 {
		t.Errorf("trisum(10) = %d, want 55\n%s", ret.I, res.C)
	}
}

// TestFigure1Golden pins the exact emission for the paper's motivating
// example (Figure 1): any change to the decompiled text of the jacobi
// hot loop is a deliberate decision, not drift.
func TestFigure1Golden(t *testing.T) {
	src := `
#define N 4000
double A[N];
double B[N];
void kernel() {
  for (long i = 1; i < N - 1; i++) {
    B[i] = (A[i-1] + A[i] + A[i+1]) / 3.0;
  }
}
`
	m := buildParallelIR(t, src)
	res, err := Decompile(m, Full(), passes.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	want := `double A[4000];
double B[4000];

void kernel() {
  #pragma omp parallel
  {
    #pragma omp for schedule(static) nowait
    for (long i = 1; i <= 3998; i++) {
      B[i] = (A[i - 1] + A[i] + A[i + 1]) / 3.0;
    }
  }
}
`
	if res.C != want {
		t.Errorf("Figure 1 output drifted:\n--- got ---\n%s\n--- want ---\n%s", res.C, want)
	}
}

// TestInliningNameInference exercises the paper's §3.3 channel: a value
// with no debug info inside the outlined region (the region's pointer
// parameter) inherits its name from the caller's debug metadata once the
// Loop Inliner substitutes the fork-call argument.
func TestInliningNameInference(t *testing.T) {
	src := `
void compute(long n) {
  double* data = (double*) malloc(n * sizeof(double));
  for (long i = 0; i < n; i++) {
    data[i] = i * 0.5;
  }
  free(data);
}
`
	m := buildParallelIR(t, src)
	// The loop must have been parallelized for the test to mean anything.
	if !strings.Contains(m.Print(), "call void @__kmpc_fork_call") {
		t.Fatalf("malloc'd loop not parallelized:\n%s", m.Print())
	}
	res, err := Decompile(m, Full(), passes.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.C, "data[i] = ") {
		t.Errorf("caller variable name not inferred through inlining:\n%s", res.C)
	}
}
