package polybench

import (
	"testing"

	"repro/internal/driver"
	"repro/internal/interp"
	"repro/internal/ir"
)

// TestEngineDeterminism is the golden engine-parity gate: every
// PolyBench kernel (compiled through O2 + automatic parallelization)
// must produce bitwise-identical output arrays and identical
// work/span totals on the tree-walker and the bytecode register VM,
// single-threaded and with an 8-thread team. Any divergence — a
// lowering bug, a fused superinstruction rounding differently, a
// misplaced step charge — fails here before it can contaminate the
// differential oracle.
func TestEngineDeterminism(t *testing.T) {
	s := driver.New(driver.Options{})
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			m, _, err := b.CompileParallelIR(s)
			if err != nil {
				t.Fatal(err)
			}
			for _, threads := range []int{1, 8} {
				tree, err := b.RunWith(m, interp.Options{NumThreads: threads, Body: engine(t, "tree")})
				if err != nil {
					t.Fatalf("tree %d threads: %v", threads, err)
				}
				bvm, err := b.RunWith(m, interp.Options{NumThreads: threads, Body: engine(t, "bytecode")})
				if err != nil {
					t.Fatalf("bytecode %d threads: %v", threads, err)
				}
				if eq, diff := b.OutputsEqual(tree, bvm); !eq {
					t.Errorf("%d threads: outputs differ: %s", threads, diff)
				}
				if tree.Steps() != bvm.Steps() {
					t.Errorf("%d threads: work differs: tree %d vs bytecode %d",
						threads, tree.Steps(), bvm.Steps())
				}
				if tree.SimSteps() != bvm.SimSteps() {
					t.Errorf("%d threads: span differs: tree %d vs bytecode %d",
						threads, tree.SimSteps(), bvm.SimSteps())
				}
			}
		})
	}
}

// TestEngineDeterminismSchedules extends the engine-parity gate to the
// dispatch-scheduled worksharing kinds on the triangular imbalanced
// kernel. The contract is weaker than the static gate on purpose:
// outputs must be bitwise-identical across engines and thread counts
// under every schedule (the loop is DOALL, so any chunk-to-worker
// assignment computes the same cells), but work/span totals are only
// compared at 1 thread — the shared cursor of guided and auto makes the
// multi-thread chunk assignment timing-dependent, which legitimately
// moves step counts between workers.
func TestEngineDeterminismSchedules(t *testing.T) {
	s := driver.New(driver.Options{})
	for _, sched := range ImbalancedSchedules {
		b := ImbalancedKernel(sched)
		t.Run(b.Name, func(t *testing.T) {
			m, err := CompileVariant(s, b.Seq, b.Name)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := b.RunWith(m, interp.Options{NumThreads: 1, Body: engine(t, "tree")})
			if err != nil {
				t.Fatalf("tree 1 thread: %v", err)
			}
			for _, threads := range []int{1, 8} {
				tree, err := b.RunWith(m, interp.Options{NumThreads: threads, Body: engine(t, "tree")})
				if err != nil {
					t.Fatalf("tree %d threads: %v", threads, err)
				}
				bvm, err := b.RunWith(m, interp.Options{NumThreads: threads, Body: engine(t, "bytecode")})
				if err != nil {
					t.Fatalf("bytecode %d threads: %v", threads, err)
				}
				if eq, diff := b.OutputsEqual(tree, bvm); !eq {
					t.Errorf("%d threads: engines differ: %s", threads, diff)
				}
				if eq, diff := b.OutputsEqual(ref, tree); !eq {
					t.Errorf("%d threads vs 1 thread: outputs differ: %s", threads, diff)
				}
				if threads == 1 {
					if tree.Steps() != bvm.Steps() {
						t.Errorf("1 thread: work differs: tree %d vs bytecode %d",
							tree.Steps(), bvm.Steps())
					}
					if tree.SimSteps() != bvm.SimSteps() {
						t.Errorf("1 thread: span differs: tree %d vs bytecode %d",
							tree.SimSteps(), bvm.SimSteps())
					}
				}
			}
		})
	}
}

// TestScaleSource pins the size knob's rewrite: integer #define lines
// scale by the factor, everything else (expressions, code) is left
// alone, and mini is the identity.
func TestScaleSource(t *testing.T) {
	src := "#define N 220\n#define TSTEPS 16\ndouble A[N][N];\nint k = 7;\n"
	got := ScaleSource(src, 4)
	want := "#define N 880\n#define TSTEPS 64\ndouble A[N][N];\nint k = 7;\n"
	if got != want {
		t.Errorf("ScaleSource x4:\ngot  %q\nwant %q", got, want)
	}
	if ScaleSource(src, 1) != src {
		t.Errorf("factor 1 must be identity")
	}
	if SizeMini.Factor() != 1 || SizeStd.Factor() != 4 || SizeLarge.Factor() != 8 {
		t.Errorf("unexpected size factors: %d %d %d",
			SizeMini.Factor(), SizeStd.Factor(), SizeLarge.Factor())
	}
	if _, err := ParseSize("huge"); err == nil {
		t.Errorf("ParseSize(huge) should fail")
	}
	if sz, err := ParseSize(""); err != nil || sz != SizeMini {
		t.Errorf("ParseSize(\"\") = %v, %v; want mini", sz, err)
	}
}

// TestSizedCompileDistinct checks scaled compilation flows through the
// session memo under a distinct key: std dimensions really grow the
// module's global arrays rather than hitting the mini cache entry.
func TestSizedCompileDistinct(t *testing.T) {
	s := driver.New(driver.Options{})
	b := ByName("atax")
	mini, _, err := b.CompileParallelIRSized(s, SizeMini)
	if err != nil {
		t.Fatal(err)
	}
	std, _, err := b.CompileParallelIRSized(s, SizeStd)
	if err != nil {
		t.Fatal(err)
	}
	var miniCells, stdCells int
	for _, g := range mini.Globals {
		if g.Nam == "x" {
			miniCells = ir.SizeOfElems(g.Elem)
		}
	}
	for _, g := range std.Globals {
		if g.Nam == "x" {
			stdCells = ir.SizeOfElems(g.Elem)
		}
	}
	if stdCells != 4*miniCells {
		t.Errorf("std @x has %d cells, want 4x mini's %d", stdCells, miniCells)
	}
}
