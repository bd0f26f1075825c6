package polybench

import (
	"testing"

	"repro/internal/driver"
	"repro/internal/interp"
	"repro/internal/passes"
	"repro/internal/splendid"
)

// testSession is shared by the package's tests: its memo compiles each
// benchmark variant once however many tests ask for it.
var testSession = driver.New(driver.Options{})

func TestRegistryComplete(t *testing.T) {
	if len(All()) != 16 {
		t.Fatalf("benchmarks = %d, want 16", len(All()))
	}
	want := map[string]bool{
		"2mm": true, "3mm": true, "adi": true, "atax": true, "bicg": true,
		"doitgen": true, "fdtd-2d": true, "floyd-warshall": true,
		"gemm": true, "gemver": true, "gesummv": true,
		"jacobi-1d-imper": true, "jacobi-2d-imper": true,
		"mvt": true, "syr2k": true, "syrk": true,
	}
	for _, b := range All() {
		if !want[b.Name] {
			t.Errorf("unexpected benchmark %q", b.Name)
		}
		delete(want, b.Name)
		if b.Seq == "" || b.Ref == "" || b.Manual == "" {
			t.Errorf("%s: missing a source variant", b.Name)
		}
		if len(b.RunFuncs) == 0 || len(b.KernelFuncs) == 0 || len(b.Outputs) == 0 {
			t.Errorf("%s: missing run metadata", b.Name)
		}
	}
	for name := range want {
		t.Errorf("missing benchmark %q", name)
	}
	collab := 0
	for _, b := range All() {
		if b.Collab != "" {
			collab++
			if b.CollabLoC == 0 {
				t.Errorf("%s: collaborative variant without LoC annotation", b.Name)
			}
		}
	}
	if collab != 7 {
		t.Errorf("collaborative subjects = %d, want 7 (paper Figure 9)", collab)
	}
}

// TestAllVariantsCompile compiles every variant of every benchmark.
func TestAllVariantsCompile(t *testing.T) {
	for _, b := range All() {
		for _, v := range []struct{ tag, src string }{
			{"seq", b.Seq}, {"ref", b.Ref}, {"manual", b.Manual}, {"collab", b.Collab},
		} {
			if v.src == "" {
				continue
			}
			if _, err := CompileVariant(testSession, v.src, b.Name+"/"+v.tag); err != nil {
				t.Errorf("%s %s: %v", b.Name, v.tag, err)
			}
		}
	}
}

// TestVariantsAgreeSequentially runs every variant with one thread and
// requires bitwise-identical outputs (the variants differ only in
// parallel structure, never in arithmetic).
func TestVariantsAgreeSequentially(t *testing.T) {
	for _, b := range All() {
		seqM, err := CompileVariant(testSession, b.Seq, b.Name)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		ref, err := b.RunWith(seqM, interp.Options{NumThreads: 1})
		if err != nil {
			t.Fatalf("%s seq: %v", b.Name, err)
		}
		for _, v := range []struct{ tag, src string }{
			{"ref", b.Ref}, {"manual", b.Manual}, {"collab", b.Collab},
		} {
			if v.src == "" {
				continue
			}
			m, err := CompileVariant(testSession, v.src, b.Name+"/"+v.tag)
			if err != nil {
				t.Fatalf("%s %s: %v", b.Name, v.tag, err)
			}
			mach, err := b.RunWith(m, interp.Options{NumThreads: 1})
			if err != nil {
				t.Fatalf("%s %s run: %v", b.Name, v.tag, err)
			}
			if ok, diff := b.OutputsEqual(ref, mach); !ok {
				t.Errorf("%s %s diverges sequentially: %s", b.Name, v.tag, diff)
			}
		}
	}
}

// TestParallelCorrectness runs the reference and collaborative variants
// with several threads against the sequential result.
func TestParallelCorrectness(t *testing.T) {
	for _, b := range All() {
		seqM, err := CompileVariant(testSession, b.Seq, b.Name)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		ref, err := b.RunWith(seqM, interp.Options{NumThreads: 1})
		if err != nil {
			t.Fatalf("%s seq: %v", b.Name, err)
		}
		for _, v := range []struct{ tag, src string }{
			{"ref", b.Ref}, {"collab", b.Collab},
		} {
			if v.src == "" {
				continue
			}
			m, err := CompileVariant(testSession, v.src, b.Name+"/"+v.tag)
			if err != nil {
				t.Fatal(err)
			}
			mach, err := b.RunWith(m, interp.Options{NumThreads: 4})
			if err != nil {
				t.Fatalf("%s %s parallel: %v", b.Name, v.tag, err)
			}
			if ok, diff := b.OutputsEqual(ref, mach); !ok {
				t.Errorf("%s %s parallel diverges: %s", b.Name, v.tag, diff)
			}
		}
	}
}

// TestAutoParallelizePipeline pushes each benchmark through -O2 and the
// parallelizer and checks that results still match the sequential run,
// in parallel execution.
func TestAutoParallelizePipeline(t *testing.T) {
	totalParallelized := 0
	for _, b := range All() {
		m, res, err := b.CompileParallelIR(testSession)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		for _, n := range res.Parallelized {
			totalParallelized += n
		}
		seqM, _ := CompileVariant(testSession, b.Seq, b.Name)
		ref, err := b.RunWith(seqM, interp.Options{NumThreads: 1})
		if err != nil {
			t.Fatal(err)
		}
		mach, err := b.RunWith(m, interp.Options{NumThreads: 4})
		if err != nil {
			t.Fatalf("%s parallelized run: %v", b.Name, err)
		}
		if ok, diff := b.OutputsEqual(ref, mach); !ok {
			t.Errorf("%s: auto-parallelized output diverges: %s", b.Name, diff)
		}
	}
	// The suite as a whole must be heavily parallelizable (paper Table 3
	// reports 37 compiler-parallelized loops at the source level).
	if totalParallelized < 16 {
		t.Errorf("compiler parallelized only %d loops across the suite", totalParallelized)
	}
}

// TestSplendidDecompilesSuite decompiles every benchmark's parallel IR
// and recompiles the result — the portability property, suite-wide.
func TestSplendidDecompilesSuite(t *testing.T) {
	for _, b := range All() {
		m, _, err := b.CompileParallelIR(testSession)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		res, err := splendid.Decompile(m, splendid.Full(), passes.RunConfig{})
		if err != nil {
			t.Fatalf("%s: decompile: %v", b.Name, err)
		}
		rec, err := CompileVariant(testSession, res.C, b.Name+"/splendid")
		if err != nil {
			t.Fatalf("%s: SPLENDID output does not recompile: %v\n%s", b.Name, err, res.C)
		}
		seqM, _ := CompileVariant(testSession, b.Seq, b.Name)
		ref, err := b.RunWith(seqM, interp.Options{NumThreads: 1})
		if err != nil {
			t.Fatal(err)
		}
		mach, err := b.RunWith(rec, interp.Options{NumThreads: 4})
		if err != nil {
			t.Fatalf("%s: recompiled SPLENDID run: %v\n%s", b.Name, err, res.C)
		}
		if ok, diff := b.OutputsEqual(ref, mach); !ok {
			t.Errorf("%s: recompiled SPLENDID output diverges: %s", b.Name, diff)
		}
	}
}

func TestPragmaCount(t *testing.T) {
	if n := PragmaCount(gemm.Manual); n != 1 {
		t.Errorf("gemm manual pragmas = %d, want 1", n)
	}
	if n := PragmaCount(gemm.Seq); n != 0 {
		t.Errorf("gemm seq pragmas = %d, want 0", n)
	}
	if n := PragmaCount(gemver.Manual); n != 3 {
		t.Errorf("gemver manual pragmas = %d, want 3", n)
	}
}
