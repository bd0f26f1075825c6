package vm

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/omp"
)

// runBoth executes fn on the tree-walker and the bytecode engine and
// checks the full observable surface agrees: return value, trap kind,
// printed output, step/span totals, and every global cell bitwise.
func runBoth(t *testing.T, src, fn string, opts interp.Options, args ...interp.Value) (interp.Value, error) {
	t.Helper()
	mod, err := ir.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	omp.DeclareRuntime(mod)
	if err := mod.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}

	topts := opts
	topts.Body = nil
	tm := interp.NewMachine(mod, topts)
	tret, terr := tm.Run(fn, args...)

	bopts := opts
	bopts.Body = New()
	bm := interp.NewMachine(mod, bopts)
	bret, berr := bm.Run(fn, args...)

	if (terr == nil) != (berr == nil) {
		t.Fatalf("engines disagree on trapping: tree=%v bytecode=%v", terr, berr)
	}
	if terr != nil {
		tk, _ := interp.TrapKindOf(terr)
		bk, _ := interp.TrapKindOf(berr)
		if tk != bk {
			t.Fatalf("trap kinds differ: tree=%v (%v) bytecode=%v (%v)", tk, terr, bk, berr)
		}
		return tret, terr
	}
	if tret.K != bret.K || tret.I != bret.I ||
		math.Float64bits(tret.F) != math.Float64bits(bret.F) {
		t.Fatalf("return values differ: tree=%v bytecode=%v", tret, bret)
	}
	if tm.Output() != bm.Output() {
		t.Fatalf("outputs differ:\ntree:     %q\nbytecode: %q", tm.Output(), bm.Output())
	}
	if tm.Steps() != bm.Steps() {
		t.Fatalf("step totals differ: tree=%d bytecode=%d", tm.Steps(), bm.Steps())
	}
	if tm.SimSteps() != bm.SimSteps() {
		t.Fatalf("simulated spans differ: tree=%d bytecode=%d", tm.SimSteps(), bm.SimSteps())
	}
	for _, g := range mod.Globals {
		a, b := tm.GlobalMem(g.Nam), bm.GlobalMem(g.Nam)
		if len(a.Cells) != len(b.Cells) {
			t.Fatalf("global %s sized %d vs %d", g.Nam, len(a.Cells), len(b.Cells))
		}
		for i := range a.Cells {
			if a.Cells[i].K != b.Cells[i].K ||
				a.Cells[i].I != b.Cells[i].I ||
				math.Float64bits(a.Cells[i].F) != math.Float64bits(b.Cells[i].F) {
				t.Fatalf("global %s[%d] differs: tree=%v bytecode=%v", g.Nam, i, a.Cells[i], b.Cells[i])
			}
		}
	}
	return tret, nil
}

const loopSrc = `
define i64 @sumto(i64 %n) {
entry:
  br label %loop
loop:
  %i = phi i64 [ 0, %entry ], [ %i.next, %loop ]
  %s = phi i64 [ 0, %entry ], [ %s.next, %loop ]
  %s.next = add i64 %s, %i
  %i.next = add i64 %i, 1
  %c = icmp slt i64 %i.next, %n
  br i1 %c, label %loop, label %done
done:
  %r = phi i64 [ %s.next, %loop ]
  ret i64 %r
}
`

func TestParityLoopAndPhis(t *testing.T) {
	ret, _ := runBoth(t, loopSrc, "sumto", interp.Options{}, interp.IntV(100))
	if ret.I != 4950 {
		t.Errorf("sumto(100) = %d, want 4950", ret.I)
	}
}

// Phi swap: both phis read each other across the back edge, exercising
// the two-phase (staged) move path.
func TestParityPhiSwap(t *testing.T) {
	src := `
define i64 @swap(i64 %n) {
entry:
  br label %loop
loop:
  %a = phi i64 [ 1, %entry ], [ %b, %loop ]
  %b = phi i64 [ 2, %entry ], [ %a, %loop ]
  %i = phi i64 [ 0, %entry ], [ %i.next, %loop ]
  %i.next = add i64 %i, 1
  %c = icmp slt i64 %i.next, %n
  br i1 %c, label %loop, label %done
done:
  %r = mul i64 %a, 10
  %r2 = add i64 %r, %b
  ret i64 %r2
}
`
	odd, _ := runBoth(t, src, "swap", interp.Options{}, interp.IntV(3))
	if odd.I != 12 {
		t.Errorf("swap(3) = %d, want 12", odd.I)
	}
	even, _ := runBoth(t, src, "swap", interp.Options{}, interp.IntV(4))
	if even.I != 21 {
		t.Errorf("swap(4) = %d, want 21", even.I)
	}
}

const matSrc = `
@A = global [8 x [8 x double]] zeroinitializer
@v = global double 0.0
define void @fill() {
entry:
  br label %i.loop
i.loop:
  %i = phi i64 [ 0, %entry ], [ %i.next, %i.latch ]
  br label %j.loop
j.loop:
  %j = phi i64 [ 0, %i.loop ], [ %j.next, %j.loop ]
  %g = getelementptr [8 x [8 x double]], [8 x [8 x double]]* @A, i64 0, i64 %i, i64 %j
  %fi = sitofp i64 %i to double
  %fj = sitofp i64 %j to double
  %prod = fmul double %fi, %fj
  %sum = fadd double %prod, 1.5
  store double %sum, double* %g
  %j.next = add i64 %j, 1
  %jc = icmp slt i64 %j.next, 8
  br i1 %jc, label %j.loop, label %i.latch
i.latch:
  %i.next = add i64 %i, 1
  %ic = icmp slt i64 %i.next, 8
  br i1 %ic, label %i.loop, label %done
done:
  br label %acc.loop
acc.loop:
  %k = phi i64 [ 0, %done ], [ %k.next, %acc.loop ]
  %acc = phi double [ 0.0, %done ], [ %acc.next, %acc.loop ]
  %gk = getelementptr [8 x [8 x double]], [8 x [8 x double]]* @A, i64 0, i64 %k, i64 %k
  %vk = load double, double* %gk
  %acc.next = fadd double %acc, %vk
  %k.next = add i64 %k, 1
  %kc = icmp slt i64 %k.next, 8
  br i1 %kc, label %acc.loop, label %out
out:
  %r = phi double [ %acc.next, %acc.loop ]
  store double %r, double* @v
  ret void
}
`

// Exercises gep+load/gep+store/fmul+fadd fusion and the 2-D index
// superinstructions against the tree-walker, bitwise.
func TestParityArraysAndFusion(t *testing.T) {
	runBoth(t, matSrc, "fill", interp.Options{})
}

func TestParityCallsAndRecursion(t *testing.T) {
	src := `
define i64 @fib(i64 %n) {
entry:
  %c = icmp sle i64 %n, 1
  br i1 %c, label %base, label %rec
base:
  ret i64 %n
rec:
  %n1 = sub i64 %n, 1
  %n2 = sub i64 %n, 2
  %f1 = call i64 @fib(i64 %n1)
  %f2 = call i64 @fib(i64 %n2)
  %s = add i64 %f1, %f2
  ret i64 %s
}
define i64 @main() {
entry:
  %r = call i64 @fib(i64 12)
  call void @print_i64(i64 %r)
  ret i64 %r
}
declare void @print_i64(i64)
`
	ret, _ := runBoth(t, src, "main", interp.Options{})
	if ret.I != 144 {
		t.Errorf("fib(12) = %d, want 144", ret.I)
	}
}

func TestParityTraps(t *testing.T) {
	cases := []struct {
		name string
		src  string
		kind interp.TrapKind
	}{
		{"div-by-zero", `
define i64 @main(i64 %z) {
entry:
  %r = sdiv i64 7, %z
  ret i64 %r
}
`, interp.TrapDivByZero},
		{"rem-by-zero", `
define i64 @main(i64 %z) {
entry:
  %r = srem i64 7, %z
  ret i64 %r
}
`, interp.TrapRemByZero},
		{"shift-oob", `
define i64 @main(i64 %z) {
entry:
  %s = add i64 %z, 70
  %r = shl i64 1, %s
  ret i64 %r
}
`, interp.TrapShiftOOB},
		{"load-oob", `
@A = global [4 x i64] zeroinitializer
define i64 @main(i64 %z) {
entry:
  %i = add i64 %z, 9
  %g = getelementptr [4 x i64], [4 x i64]* @A, i64 0, i64 %i
  %r = load i64, i64* %g
  ret i64 %r
}
`, interp.TrapMemOOB},
		{"store-oob", `
@A = global [4 x i64] zeroinitializer
define void @main(i64 %z) {
entry:
  %i = sub i64 %z, 5
  %g = getelementptr [4 x i64], [4 x i64]* @A, i64 0, i64 %i
  store i64 1, i64* %g
  ret void
}
`, interp.TrapMemOOB},
		{"null-deref", `
define i64 @main(i64 %z) {
entry:
  %r = load i64, i64* null
  ret i64 %r
}
`, interp.TrapNullDeref},
		{"call-depth", `
define i64 @main(i64 %z) {
entry:
  %r = call i64 @main(i64 %z)
  ret i64 %r
}
`, interp.TrapCallDepth},
		// Objects past interp.MaxObjectCells trap instead of reaching the
		// Go allocator (which panicked on the first one).
		{"alloc-limit-global", `
@A = global [9223372036854775807 x double] zeroinitializer
define i64 @main(i64 %z) {
entry:
  ret i64 %z
}
`, interp.TrapAllocLimit},
		{"alloc-limit-wrapping-global", `
@A = global [4611686018427387904 x [4 x double]] zeroinitializer
define i64 @main(i64 %z) {
entry:
  ret i64 %z
}
`, interp.TrapAllocLimit},
		{"alloc-limit-alloca", fmt.Sprintf(`
define i64 @main(i64 %%z) {
entry:
  %%a = alloca [%d x i64]
  ret i64 %%z
}
`, interp.MaxObjectCells+1), interp.TrapAllocLimit},
		{"alloc-limit-malloc", `
declare i8* @malloc(i64)
define i64 @main(i64 %z) {
entry:
  %n = add i64 %z, 9223372036854775807
  %p = call i8* @malloc(i64 %n)
  ret i64 %z
}
`, interp.TrapAllocLimit},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := runBoth(t, tc.src, "main", interp.Options{}, interp.IntV(0))
			if err == nil {
				t.Fatalf("expected a trap")
			}
			if k, ok := interp.TrapKindOf(err); !ok || k != tc.kind {
				t.Errorf("trap kind = %v, want %v (err %v)", k, tc.kind, err)
			}
		})
	}
}

// Fuel parity: sweep the budget across the whole range of a small run's
// step count. For every budget both engines must agree on whether the
// run traps, and the trap must be the fuel kind — the batched step
// accounting may not let a later instruction trap (or succeed) where the
// walker ran dry.
func TestParityFuelSweep(t *testing.T) {
	for fuel := int64(1); fuel <= 80; fuel++ {
		_, err := runBoth(t, loopSrc, "sumto", interp.Options{Fuel: fuel}, interp.IntV(10))
		if err != nil {
			if k, _ := interp.TrapKindOf(err); k != interp.TrapFuel {
				t.Fatalf("fuel=%d: trap kind %v, want fuel", fuel, k)
			}
		}
	}
}

// Fuel sweep over a program whose tail is a division that traps when it
// executes: near the boundary, both engines must pick the same trap
// (fuel before the division is reached, div-by-zero at it).
func TestParityFuelVsOwnTrap(t *testing.T) {
	src := `
define i64 @main(i64 %z) {
entry:
  br label %loop
loop:
  %i = phi i64 [ 0, %entry ], [ %i.next, %loop ]
  %i.next = add i64 %i, 1
  %c = icmp slt i64 %i.next, 4
  br i1 %c, label %loop, label %done
done:
  %r = sdiv i64 7, %z
  ret i64 %r
}
`
	for fuel := int64(1); fuel <= 20; fuel++ {
		_, err := runBoth(t, src, "main", interp.Options{Fuel: fuel}, interp.IntV(0))
		if err == nil {
			t.Fatalf("fuel=%d: expected fuel or div trap", fuel)
		}
	}
}

const parallelSrc = `
@A = global [64 x double] zeroinitializer
declare void @__kmpc_fork_call(i32, ...)
declare void @__kmpc_for_static_init_8(i32, i32, i64*, i64*, i64*, i64*, i64, i64)
declare void @__kmpc_for_static_fini(i32)
define void @body.omp(i32* %gtid.ptr, i32* %btid.ptr) outlined {
entry:
  %gtid = load i32, i32* %gtid.ptr
  %lower = alloca i64
  %upper = alloca i64
  %stride = alloca i64
  %last = alloca i64
  store i64 0, i64* %lower
  store i64 63, i64* %upper
  call void @__kmpc_for_static_init_8(i32 %gtid, i32 34, i64* %last, i64* %lower, i64* %upper, i64* %stride, i64 1, i64 1)
  %lo = load i64, i64* %lower
  %hi = load i64, i64* %upper
  %empty = icmp sgt i64 %lo, %hi
  br i1 %empty, label %done, label %loop
loop:
  %i = phi i64 [ %lo, %entry ], [ %i.next, %loop ]
  %g = getelementptr [64 x double], [64 x double]* @A, i64 0, i64 %i
  %fi = sitofp i64 %i to double
  %sq = fmul double %fi, %fi
  %v = fadd double %sq, 0.5
  store double %v, double* %g
  %i.next = add i64 %i, 1
  %c = icmp sle i64 %i.next, %hi
  br i1 %c, label %loop, label %done
done:
  call void @__kmpc_for_static_fini(i32 %gtid)
  ret void
}
define void @main() {
entry:
  call void @__kmpc_fork_call(i32 0, void (i32*, i32*) @body.omp)
  ret void
}
`

// The goroutine team, static scheduling, and work-span clock are
// engine-neutral: a forked parallel region must land bitwise-identical
// memory and identical step/span totals on both engines.
func TestParityParallelRegion(t *testing.T) {
	for _, threads := range []int{1, 4} {
		runBoth(t, parallelSrc, "main", interp.Options{NumThreads: threads})
	}
}

// The conflict checker must see the same accesses from bytecode workers
// as from tree workers.
func TestParityRaceChecker(t *testing.T) {
	mod, err := ir.Parse(parallelSrc)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	omp.DeclareRuntime(mod)
	mach := interp.NewMachine(mod, interp.Options{NumThreads: 4, CheckRaces: true, Body: New()})
	if _, err := mach.Run("main"); err != nil {
		t.Fatalf("run: %v", err)
	}
	rep := mach.Races()
	if rep == nil {
		t.Fatal("no race report")
	}
	if rep.RegionsChecked != 1 {
		t.Fatalf("checked regions = %d, want 1", rep.RegionsChecked)
	}
	if rep.Total != 0 {
		t.Errorf("conflicts = %d, want 0 (disjoint static chunks)", rep.Total)
	}
}

// Lowering is per-machine: globals resolve to the executing machine's
// memory, so one engine value must not leak a previous machine's
// objects. (The engine resets its cache when rebound.)
func TestEngineRebindsAcrossMachines(t *testing.T) {
	mod, err := ir.Parse(matSrc)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	omp.DeclareRuntime(mod)
	eng := New()
	var vals []float64
	for i := 0; i < 2; i++ {
		mach := interp.NewMachine(mod, interp.Options{Body: eng})
		if _, err := mach.Run("fill"); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		vals = append(vals, mach.GlobalMem("v").Cells[0].F)
	}
	if vals[0] != vals[1] {
		t.Errorf("machines diverged: %v", vals)
	}
}

func TestParitySelectAndIndirectCall(t *testing.T) {
	src := `
define i64 @double(i64 %x) {
entry:
  %r = mul i64 %x, 2
  ret i64 %r
}
define i64 @main(i64 %n) {
entry:
  %big = icmp sgt i64 %n, 10
  %v = select i1 %big, i64 %n, i64 10
  %r = call i64 @double(i64 %v)
  ret i64 %r
}
`
	ret, _ := runBoth(t, src, "main", interp.Options{}, interp.IntV(3))
	if ret.I != 20 {
		t.Errorf("main(3) = %d, want 20", ret.I)
	}
}
