// Quickstart walks the paper's Figure 1 end to end: the jacobi-1d hot
// loop is compiled, optimized, automatically parallelized into
// __kmpc_* runtime calls, decompiled with the Rellic-style baseline and
// with SPLENDID, recompiled from the SPLENDID output, and executed —
// demonstrating that the decompiled source is both natural and portable.
package main

import (
	"fmt"
	"log"

	"repro/internal/cast"
	"repro/internal/decomp/rellic"
	"repro/internal/driver"
	"repro/internal/interp"
	"repro/internal/splendid"
)

const source = `
#define N 4000

double A[N];
double B[N];

void init() {
  for (long i = 0; i < N; i++) {
    A[i] = i % 17 * 0.5;
  }
}
void kernel() {
  for (long i = 1; i < N - 1; i++) {
    B[i] = (A[i-1] + A[i] + A[i+1]) / 3.0;
  }
}
`

func main() {
	fmt.Println("=== 1. Original sequential source ===")
	fmt.Print(source)

	// One driver session runs the whole pipeline: compile, -O2, the
	// Polly stand-in auto-parallelizer, then the decompilers below.
	s := driver.New(driver.Options{})
	m, res, err := s.ParallelIR("jacobi", source)
	if err != nil {
		log.Fatal(err)
	}
	total := 0
	for _, n := range res.Parallelized {
		total += n
	}
	fmt.Printf("\n=== 2. Auto-parallelizer converted %d loops to __kmpc fork calls ===\n", total)
	fmt.Println(m.FuncByName("kernel").Print())

	// Baseline decompilation: unportable, unnatural.
	fmt.Println("=== 3. Rellic-style baseline decompilation (kernel region) ===")
	mt := findMicrotask(m, "kernel")
	fmt.Println(cast.ExcerptFunc(rellic.Decompile(m), mt))

	// SPLENDID decompilation: portable OpenMP C.
	full, err := s.Decompile(m, splendid.Full())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== 4. SPLENDID decompilation ===")
	fmt.Print(full.C)

	// Recompile the SPLENDID output and run it in parallel.
	rec, err := s.OptimizedIR("recompiled", full.C)
	if err != nil {
		log.Fatal(err)
	}

	// Both runs use the default engine, the bytecode VM.
	seqVM, _ := driver.EngineFor("")
	seqMach := interp.NewMachine(m, interp.Options{NumThreads: 1, Body: seqVM})
	mustRun(seqMach, "init", "kernel")
	parVM, _ := driver.EngineFor("")
	parMach := interp.NewMachine(rec, interp.Options{NumThreads: 8, Body: parVM})
	mustRun(parMach, "init", "kernel")

	same := true
	a, b := seqMach.GlobalMem("B"), parMach.GlobalMem("B")
	for i := range a.Cells {
		if a.Cells[i].F != b.Cells[i].F {
			same = false
			break
		}
	}
	fmt.Printf("\n=== 5. Round trip ===\nrecompiled output matches original: %v\n", same)
	fmt.Printf("sequential span: %d simulated instructions\n", seqMach.SimSteps())
	fmt.Printf("parallel span (8 workers): %d simulated instructions (%.1fx speedup)\n",
		parMach.SimSteps(), float64(seqMach.SimSteps())/float64(parMach.SimSteps()))
}

func mustRun(mach *interp.Machine, fns ...string) {
	for _, fn := range fns {
		if _, err := mach.Run(fn); err != nil {
			log.Fatal(err)
		}
	}
}

func findMicrotask(m interface{ Print() string }, prefix string) string {
	return prefix + ".parallel_region"
}
