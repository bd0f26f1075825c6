package splendid

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cfront"
	"repro/internal/interp"
	"repro/internal/parallel"
	"repro/internal/passes"
)

// The pipeline property: for any generated affine kernel,
//
//	decompile(parallelize(O2(compile(src)))) recompiles, and running it
//	with any team size produces the sequential program's exact outputs.
//
// Kernels are generated from a deterministic PRNG: 1-2 loop nests over
// three arrays with small constant subscript offsets, safe margins, and
// a mix of int and float arithmetic.

type prng struct{ s uint64 }

func (r *prng) next() uint64 {
	r.s = r.s*6364136223846793005 + 1442695040888963407
	return r.s >> 17
}

func (r *prng) intn(n int) int { return int(r.next() % uint64(n)) }

func genKernel(seed uint64) string {
	r := &prng{s: seed*2654435761 + 1}
	n := 64 + r.intn(3)*32

	var b strings.Builder
	fmt.Fprintf(&b, "#define N %d\n", n)
	b.WriteString("double A[N];\ndouble B[N];\ndouble C[N];\n\n")
	b.WriteString("void seed() {\n  for (long i = 0; i < N; i++) {\n")
	b.WriteString("    A[i] = (i * 7 + 3) % 13;\n")
	b.WriteString("    B[i] = (i * 5 + 1) % 11;\n")
	b.WriteString("    C[i] = (i * 3 + 2) % 7;\n  }\n}\n\n")

	arrays := []string{"A", "B", "C"}
	ops := []string{"+", "-", "*"}
	b.WriteString("void kernel() {\n")
	loops := 1 + r.intn(2)
	for l := 0; l < loops; l++ {
		dst := arrays[r.intn(3)]
		src1 := arrays[r.intn(3)]
		src2 := arrays[r.intn(3)]
		// Keep the write subscript plain and reads offset: guaranteed
		// DOALL when dst differs from both sources; otherwise the read
		// offsets are zero so the access set stays per-iteration.
		off1, off2 := r.intn(5)-2, r.intn(5)-2
		if src1 == dst {
			off1 = 0
		}
		if src2 == dst {
			off2 = 0
		}
		op := ops[r.intn(3)]
		scale := []string{"0.5", "1.5", "2.0", "3.0"}[r.intn(4)]
		fmt.Fprintf(&b, "  for (long i = 2; i < N - 2; i++) {\n")
		fmt.Fprintf(&b, "    %s[i] = %s[i%s] %s %s[i%s] * %s;\n",
			dst, src1, offStr(off1), op, src2, offStr(off2), scale)
		fmt.Fprintf(&b, "  }\n")
	}
	b.WriteString("}\n")
	return b.String()
}

func offStr(k int) string {
	switch {
	case k > 0:
		return fmt.Sprintf("+%d", k)
	case k < 0:
		return fmt.Sprintf("%d", k)
	}
	return ""
}

func TestPipelinePropertyOnGeneratedKernels(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		src := genKernel(seed)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			// Sequential reference.
			ref, err := cfront.CompileSource(src, "ref", nil)
			if err != nil {
				t.Fatalf("compile: %v\n%s", err, src)
			}
			refMach := interp.NewMachine(ref, interp.Options{})
			mustRunFns(t, refMach, "seed", "kernel")

			// Pipeline.
			m, err := cfront.CompileSource(src, "gen", nil)
			if err != nil {
				t.Fatal(err)
			}
			passes.Optimize(m, passes.RunConfig{})
			parallel.Parallelize(m, parallel.Options{})
			if err := m.Verify(); err != nil {
				t.Fatalf("verify parallel IR: %v\n%s", err, src)
			}
			res, err := Decompile(m, Full(), passes.RunConfig{})
			if err != nil {
				t.Fatalf("decompile: %v\n%s", err, src)
			}
			rec, err := cfront.CompileSource(res.C, "rec", nil)
			if err != nil {
				t.Fatalf("recompile: %v\n--- source ---\n%s\n--- decompiled ---\n%s", err, src, res.C)
			}
			passes.Optimize(rec, passes.RunConfig{})

			for _, threads := range []int{1, 3} {
				mach := interp.NewMachine(rec, interp.Options{NumThreads: threads})
				mustRunFns(t, mach, "seed", "kernel")
				for _, g := range []string{"A", "B", "C"} {
					want := refMach.GlobalMem(g)
					got := mach.GlobalMem(g)
					for i := range want.Cells {
						if want.Cells[i].F != got.Cells[i].F {
							t.Fatalf("threads=%d: %s[%d] = %v, want %v\n--- source ---\n%s\n--- decompiled ---\n%s",
								threads, g, i, got.Cells[i].F, want.Cells[i].F, src, res.C)
						}
					}
				}
			}
		})
	}
}

// TestNegativeStepPipeline covers descending loops through the whole
// pipeline (parallelize, decompile, recompile).
func TestNegativeStepPipeline(t *testing.T) {
	src := `
#define N 400
double A[N];
double B[N];
void seed() {
  for (long i = 0; i < N; i++) {
    B[i] = (i % 9) * 1.5;
  }
}
void kernel() {
  for (long i = N - 1; i >= 0; i--) {
    A[i] = B[i] * 2.0;
  }
}
`
	ref, _ := cfront.CompileSource(src, "ref", nil)
	refMach := interp.NewMachine(ref, interp.Options{})
	mustRunFns(t, refMach, "seed", "kernel")

	m, err := cfront.CompileSource(src, "neg", nil)
	if err != nil {
		t.Fatal(err)
	}
	passes.Optimize(m, passes.RunConfig{})
	pres := parallel.Parallelize(m, parallel.Options{})
	if pres.Parallelized["kernel"] != 1 {
		t.Fatalf("descending loop not parallelized:\n%s", m.Print())
	}
	res, err := Decompile(m, Full(), passes.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.C, "i--") && !strings.Contains(res.C, "i = i - 1") {
		t.Errorf("descending for loop not restored:\n%s", res.C)
	}
	rec, err := cfront.CompileSource(res.C, "rec", nil)
	if err != nil {
		t.Fatalf("recompile: %v\n%s", err, res.C)
	}
	passes.Optimize(rec, passes.RunConfig{})
	mach := interp.NewMachine(rec, interp.Options{NumThreads: 4})
	mustRunFns(t, mach, "seed", "kernel")
	want := refMach.GlobalMem("A")
	got := mach.GlobalMem("A")
	for i := range want.Cells {
		if want.Cells[i].F != got.Cells[i].F {
			t.Fatalf("A[%d] = %v, want %v\n%s", i, got.Cells[i].F, want.Cells[i].F, res.C)
		}
	}
}

// TestConditionalBodyPipeline: control flow inside a parallelized loop
// body must survive decompilation as a structured if and round-trip.
func TestConditionalBodyPipeline(t *testing.T) {
	src := `
#define N 500
double A[N];
double B[N];
void seed() {
  for (long i = 0; i < N; i++) {
    B[i] = i % 17;
  }
}
void kernel() {
  for (long i = 0; i < N; i++) {
    if (B[i] > 8.0) {
      A[i] = B[i] * 2.0;
    } else {
      A[i] = B[i] + 1.0;
    }
  }
}
`
	ref, _ := cfront.CompileSource(src, "ref", nil)
	refMach := interp.NewMachine(ref, interp.Options{})
	mustRunFns(t, refMach, "seed", "kernel")

	m, err := cfront.CompileSource(src, "cond", nil)
	if err != nil {
		t.Fatal(err)
	}
	passes.Optimize(m, passes.RunConfig{})
	pres := parallel.Parallelize(m, parallel.Options{})
	if pres.Parallelized["kernel"] != 1 {
		t.Fatalf("conditional-body loop not parallelized:\n%s", m.Print())
	}
	res, err := Decompile(m, Full(), passes.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.C, "if (") || strings.Contains(res.C, "goto") {
		t.Errorf("conditional not structured:\n%s", res.C)
	}
	rec, err := cfront.CompileSource(res.C, "rec", nil)
	if err != nil {
		t.Fatalf("recompile: %v\n%s", err, res.C)
	}
	passes.Optimize(rec, passes.RunConfig{})
	mach := interp.NewMachine(rec, interp.Options{NumThreads: 4})
	mustRunFns(t, mach, "seed", "kernel")
	want := refMach.GlobalMem("A")
	got := mach.GlobalMem("A")
	for i := range want.Cells {
		if want.Cells[i].F != got.Cells[i].F {
			t.Fatalf("A[%d] = %v, want %v\n%s", i, got.Cells[i].F, want.Cells[i].F, res.C)
		}
	}
}
