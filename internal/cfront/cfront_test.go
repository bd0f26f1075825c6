package cfront

import (
	"strings"
	"testing"

	"repro/internal/cast"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/passes"
)

func compileRun(t *testing.T, src, fn string, opts interp.Options, optimize bool, args ...interp.Value) (interp.Value, *interp.Machine) {
	t.Helper()
	m, err := CompileSource(src, "test", nil)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if optimize {
		passes.Optimize(m, passes.RunConfig{})
		if err := m.Verify(); err != nil {
			t.Fatalf("verify after O2: %v\n%s", err, m.Print())
		}
	}
	mach := interp.NewMachine(m, opts)
	ret, err := mach.Run(fn, args...)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, m.Print())
	}
	return ret, mach
}

const sumSrc = `
long sum(long n) {
  long s = 0;
  for (long i = 0; i < n; i++) {
    s = s + i;
  }
  return s;
}
`

func TestCompileAndRunSum(t *testing.T) {
	for _, optimize := range []bool{false, true} {
		ret, _ := compileRun(t, sumSrc, "sum", interp.Options{}, optimize, interp.IntV(100))
		if ret.I != 4950 {
			t.Errorf("optimize=%v: sum(100) = %d, want 4950", optimize, ret.I)
		}
	}
}

func TestDebugMetadataEmitted(t *testing.T) {
	m, err := CompileSource(sumSrc, "test", nil)
	if err != nil {
		t.Fatal(err)
	}
	f := m.FuncByName("sum")
	names := map[string]bool{}
	f.Instrs(func(in *ir.Instr) {
		if in.Op == ir.OpDbgValue {
			names[in.VarName] = true
		}
	})
	for _, want := range []string{"n", "s", "i"} {
		if !names[want] {
			t.Errorf("no dbg declaration for %q", want)
		}
	}
}

const matSrc = `
#define N 20

double A[N][N];
double x[N];
double y[N];

void mvt() {
  for (int i = 0; i < N; i++) {
    for (int j = 0; j < N; j++) {
      y[i] = y[i] + A[i][j] * x[j];
    }
  }
}
void seed() {
  for (int i = 0; i < N; i++) {
    x[i] = i;
    y[i] = 0.0;
    for (int j = 0; j < N; j++) {
      A[i][j] = 1.0;
    }
  }
}
`

func TestCompile2DArrays(t *testing.T) {
	for _, optimize := range []bool{false, true} {
		m, err := CompileSource(matSrc, "test", nil)
		if err != nil {
			t.Fatal(err)
		}
		if optimize {
			passes.Optimize(m, passes.RunConfig{})
		}
		mach := interp.NewMachine(m, interp.Options{})
		if _, err := mach.Run("seed"); err != nil {
			t.Fatal(err)
		}
		if _, err := mach.Run("mvt"); err != nil {
			t.Fatal(err)
		}
		y := mach.GlobalMem("y")
		// y[i] = sum of x = 0+1+...+19 = 190
		for i := 0; i < 20; i++ {
			if y.Cells[i].F != 190 {
				t.Fatalf("optimize=%v: y[%d] = %v, want 190", optimize, i, y.Cells[i])
			}
		}
	}
}

const ctrlSrc = `
long clamp(long x, long lo, long hi) {
  if (x < lo) {
    return lo;
  } else if (x > hi) {
    return hi;
  }
  return x;
}
long collatzSteps(long n) {
  long steps = 0;
  while (n != 1) {
    if (n % 2 == 0) {
      n = n / 2;
    } else {
      n = 3 * n + 1;
    }
    steps++;
  }
  return steps;
}
long doWhileSum(long n) {
  long s = 0;
  long i = 0;
  do {
    s += i;
    i++;
  } while (i < n);
  return s;
}
long logic(long a, long b) {
  if (a > 0 && b > 0) {
    return 1;
  }
  if (a < 0 || b < 0) {
    return -1;
  }
  return 0;
}
long ternary(long a, long b) {
  return a > b ? a : b;
}
`

func TestControlFlowForms(t *testing.T) {
	cases := []struct {
		fn   string
		args []interp.Value
		want int64
	}{
		{"clamp", []interp.Value{interp.IntV(5), interp.IntV(0), interp.IntV(10)}, 5},
		{"clamp", []interp.Value{interp.IntV(-5), interp.IntV(0), interp.IntV(10)}, 0},
		{"clamp", []interp.Value{interp.IntV(50), interp.IntV(0), interp.IntV(10)}, 10},
		{"collatzSteps", []interp.Value{interp.IntV(6)}, 8},
		{"doWhileSum", []interp.Value{interp.IntV(10)}, 45},
		{"logic", []interp.Value{interp.IntV(1), interp.IntV(1)}, 1},
		{"logic", []interp.Value{interp.IntV(-1), interp.IntV(1)}, -1},
		{"logic", []interp.Value{interp.IntV(0), interp.IntV(0)}, 0},
		{"ternary", []interp.Value{interp.IntV(3), interp.IntV(9)}, 9},
	}
	for _, optimize := range []bool{false, true} {
		for _, c := range cases {
			ret, _ := compileRun(t, ctrlSrc, c.fn, interp.Options{}, optimize, c.args...)
			if ret.I != c.want {
				t.Errorf("optimize=%v: %s(...) = %d, want %d", optimize, c.fn, ret.I, c.want)
			}
		}
	}
}

const breakContinueSrc = `
long f(long n) {
  long s = 0;
  for (long i = 0; i < n; i++) {
    if (i % 2 == 0) {
      continue;
    }
    if (i > 10) {
      break;
    }
    s += i;
  }
  return s;
}
`

func TestBreakContinue(t *testing.T) {
	ret, _ := compileRun(t, breakContinueSrc, "f", interp.Options{}, true, interp.IntV(100))
	// odd i <= 10: 1+3+5+7+9 = 25
	if ret.I != 25 {
		t.Errorf("f(100) = %d, want 25", ret.I)
	}
}

const pointerSrc = `
double buf[16];

void fill(double* p, long n, double v) {
  for (long i = 0; i < n; i++) {
    p[i] = v + i;
  }
}
double at(long i) {
  return buf[i];
}
void run() {
  fill(buf, 16, 0.5);
}
long aliascheck(double* A, double* B) {
  if (A + 8 <= B || B + 8 <= A) {
    return 1;
  }
  return 0;
}
long callalias() {
  return aliascheck(buf, buf + 2);
}
`

func TestPointersAndAliasCheck(t *testing.T) {
	m, err := CompileSource(pointerSrc, "test", nil)
	if err != nil {
		t.Fatal(err)
	}
	passes.Optimize(m, passes.RunConfig{})
	mach := interp.NewMachine(m, interp.Options{})
	if _, err := mach.Run("run"); err != nil {
		t.Fatal(err)
	}
	ret, err := mach.Run("at", interp.IntV(3))
	if err != nil {
		t.Fatal(err)
	}
	if ret.F != 3.5 {
		t.Errorf("buf[3] = %v, want 3.5", ret.F)
	}
	// Overlapping ranges: the check must fail.
	ret2, err := mach.Run("callalias")
	if err != nil {
		t.Fatal(err)
	}
	if ret2.I != 0 {
		t.Errorf("aliascheck(buf, buf+2) = %d, want 0 (overlap)", ret2.I)
	}
}

const mallocSrc = `
double sumheap(long n) {
  double* p = (double*) malloc(n * sizeof(double));
  for (long i = 0; i < n; i++) {
    p[i] = i * 0.5;
  }
  double s = 0.0;
  for (long i = 0; i < n; i++) {
    s += p[i];
  }
  free(p);
  return s;
}
`

func TestMallocLowering(t *testing.T) {
	ret, _ := compileRun(t, mallocSrc, "sumheap", interp.Options{}, true, interp.IntV(10))
	if ret.F != 22.5 {
		t.Errorf("sumheap(10) = %v, want 22.5", ret.F)
	}
}

const ompSrc = `
#define N 256

double A[N];
double B[N];

void kernel() {
  #pragma omp parallel
  {
    #pragma omp for schedule(static) nowait
    for (long i = 0; i < N; i = i + 1) {
      A[i] = B[i] * 2.0 + 1.0;
    }
  }
}
void seed() {
  for (long i = 0; i < N; i++) {
    B[i] = i;
  }
}
`

func TestOmpParallelForLowering(t *testing.T) {
	m, err := CompileSource(ompSrc, "test", nil)
	if err != nil {
		t.Fatal(err)
	}
	// The lowering must produce a fork call and an outlined microtask with
	// static-init bounds.
	kernel := m.FuncByName("kernel")
	var hasFork bool
	kernel.Instrs(func(in *ir.Instr) {
		if in.Op == ir.OpCall {
			if f, ok := in.Callee.(*ir.Function); ok && f.Nam == "__kmpc_fork_call" {
				hasFork = true
			}
		}
	})
	if !hasFork {
		t.Fatalf("no fork call emitted:\n%s", kernel.Print())
	}
	var outlined *ir.Function
	for _, f := range m.Funcs {
		if f.Outlined {
			outlined = f
		}
	}
	if outlined == nil {
		t.Fatal("no outlined microtask")
	}
	var hasInit, hasFini bool
	outlined.Instrs(func(in *ir.Instr) {
		if in.Op == ir.OpCall {
			if f, ok := in.Callee.(*ir.Function); ok {
				switch f.Nam {
				case "__kmpc_for_static_init_8":
					hasInit = true
				case "__kmpc_for_static_fini":
					hasFini = true
				}
			}
		}
	})
	if !hasInit || !hasFini {
		t.Errorf("static init/fini missing (init=%v fini=%v):\n%s", hasInit, hasFini, outlined.Print())
	}
}

func TestOmpExecutionMatchesSequential(t *testing.T) {
	for _, optimize := range []bool{false, true} {
		for _, threads := range []int{1, 4} {
			m, err := CompileSource(ompSrc, "test", nil)
			if err != nil {
				t.Fatal(err)
			}
			if optimize {
				passes.Optimize(m, passes.RunConfig{})
			}
			mach := interp.NewMachine(m, interp.Options{NumThreads: threads})
			if _, err := mach.Run("seed"); err != nil {
				t.Fatal(err)
			}
			if _, err := mach.Run("kernel"); err != nil {
				t.Fatalf("optimize=%v threads=%d: %v", optimize, threads, err)
			}
			a := mach.GlobalMem("A")
			for i := 0; i < 256; i++ {
				want := float64(i)*2 + 1
				if a.Cells[i].F != want {
					t.Fatalf("optimize=%v threads=%d: A[%d] = %v, want %v",
						optimize, threads, i, a.Cells[i], want)
				}
			}
		}
	}
}

const ompSharedScalarSrc = `
#define N 64
double A[N];

void kernel(long lo, long hi) {
  #pragma omp parallel
  {
    #pragma omp for schedule(static) nowait
    for (long i = lo; i < hi; i = i + 1) {
      A[i] = 7.0;
    }
  }
}
`

func TestOmpCapturesSharedScalars(t *testing.T) {
	m, err := CompileSource(ompSharedScalarSrc, "test", nil)
	if err != nil {
		t.Fatal(err)
	}
	passes.Optimize(m, passes.RunConfig{})
	mach := interp.NewMachine(m, interp.Options{NumThreads: 3})
	if _, err := mach.Run("kernel", interp.IntV(8), interp.IntV(40)); err != nil {
		t.Fatal(err)
	}
	a := mach.GlobalMem("A")
	for i := 0; i < 64; i++ {
		want := 0.0
		if i >= 8 && i < 40 {
			want = 7.0
		}
		if a.Cells[i].F != want {
			t.Errorf("A[%d] = %v, want %v", i, a.Cells[i], want)
		}
	}
}

func TestParsePrintRoundTrip(t *testing.T) {
	f, err := ParseC(ompSrc)
	if err != nil {
		t.Fatal(err)
	}
	printed := cast.Print(f)
	if !strings.Contains(printed, "#pragma omp parallel") {
		t.Errorf("pragma lost in printing:\n%s", printed)
	}
	f2, err := ParseC(printed)
	if err != nil {
		t.Fatalf("reparse of printed output failed: %v\n%s", err, printed)
	}
	printed2 := cast.Print(f2)
	if printed != printed2 {
		t.Errorf("print not stable:\n--- first ---\n%s\n--- second ---\n%s", printed, printed2)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"long f( {",
		"long f() { return 1 }",
		"#define X Y\nlong f() { return 0; }",
		"long f() { unknown_t x; }",
		"long f() { for (;;) {} break; }",
	}
	for _, src := range bad {
		if _, err := CompileSource(src, "bad", nil); err == nil {
			t.Errorf("CompileSource(%q) succeeded, want error", src)
		}
	}
}

func TestOmpForRequiresCanonicalLoop(t *testing.T) {
	src := `
double A[10];
void k() {
  #pragma omp parallel
  {
    #pragma omp for schedule(static)
    for (long i = 0; A[i] < 5.0; i = i + 1) {
      A[i] = 1.0;
    }
  }
}
`
	if _, err := CompileSource(src, "bad", nil); err == nil {
		t.Error("non-canonical omp for accepted")
	}
}

func TestMathCallsAndMPi(t *testing.T) {
	src := `
double f(double x) {
  return M_PI * exp(x) + sqrt(4.0);
}
`
	ret, _ := compileRun(t, src, "f", interp.Options{}, true, interp.FloatV(0))
	want := 3.141592653589793 + 2
	if diff := ret.F - want; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("f(0) = %v, want %v", ret.F, want)
	}
}

const dynamicSrc = `
#define N 300
double A[N];
double B[N];

void seed() {
  for (long i = 0; i < N; i++) {
    B[i] = i % 23;
  }
}
void kernel() {
  #pragma omp parallel
  {
    #pragma omp for schedule(dynamic, 8)
    for (long i = 0; i < N; i++) {
      A[i] = B[i] * 3.0 + 1.0;
    }
  }
}
double dynsum() {
  double s = 0.0;
  #pragma omp parallel
  {
    #pragma omp for schedule(dynamic, 16) reduction(+: s)
    for (long i = 0; i < N; i++) {
      s = s + B[i];
    }
  }
  return s;
}
`

func TestDynamicScheduleLowering(t *testing.T) {
	m, err := CompileSource(dynamicSrc, "dyn", nil)
	if err != nil {
		t.Fatal(err)
	}
	text := m.Print()
	for _, want := range []string{"__kmpc_dispatch_init_8", "__kmpc_dispatch_next_8"} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in lowered IR", want)
		}
	}
}

func TestDynamicScheduleExecution(t *testing.T) {
	for _, threads := range []int{1, 3, 8} {
		m, err := CompileSource(dynamicSrc, "dyn", nil)
		if err != nil {
			t.Fatal(err)
		}
		passes.Optimize(m, passes.RunConfig{})
		mach := interp.NewMachine(m, interp.Options{NumThreads: threads})
		if _, err := mach.Run("seed"); err != nil {
			t.Fatal(err)
		}
		if _, err := mach.Run("kernel"); err != nil {
			t.Fatalf("threads=%d: %v", threads, err)
		}
		a := mach.GlobalMem("A")
		for i := 0; i < 300; i++ {
			want := float64(i%23)*3 + 1
			if a.Cells[i].F != want {
				t.Fatalf("threads=%d: A[%d] = %v, want %v", threads, i, a.Cells[i], want)
			}
		}
		// Dynamic reduction: tolerance compare against the exact sum.
		got, err := mach.Run("dynsum")
		if err != nil {
			t.Fatal(err)
		}
		want := 0.0
		for i := 0; i < 300; i++ {
			want += float64(i % 23)
		}
		diff := got.F - want
		if diff < 0 {
			diff = -diff
		}
		if diff > 1e-9*(1+want) {
			t.Errorf("threads=%d: dynsum = %v, want %v", threads, got.F, want)
		}
	}
}

func TestDynamicNowaitRejected(t *testing.T) {
	src := `
double A[10];
void k() {
  #pragma omp parallel
  {
    #pragma omp for schedule(dynamic) nowait
    for (long i = 0; i < 10; i++) {
      A[i] = 1.0;
    }
  }
}
`
	if _, err := CompileSource(src, "bad", nil); err == nil {
		t.Error("schedule(dynamic) nowait accepted")
	}
}

func TestRecursionAndDepthGuard(t *testing.T) {
	src := `
long fib(long n) {
  if (n < 2) {
    return n;
  }
  return fib(n - 1) + fib(n - 2);
}
long blowup(long n) {
  return blowup(n + 1);
}
`
	ret, _ := compileRun(t, src, "fib", interp.Options{}, true, interp.IntV(15))
	if ret.I != 610 {
		t.Errorf("fib(15) = %d, want 610", ret.I)
	}
	m, err := CompileSource(src, "rec", nil)
	if err != nil {
		t.Fatal(err)
	}
	mach := interp.NewMachine(m, interp.Options{})
	_, err = mach.Run("blowup", interp.IntV(0))
	if err == nil || !strings.Contains(err.Error(), "depth") {
		t.Errorf("runaway recursion err = %v, want depth trap", err)
	}
}
