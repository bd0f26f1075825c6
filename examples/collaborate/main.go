// Collaborate reproduces the paper's Figure 2 case study: the compiler
// can only parallelize MayAlias behind a runtime aliasing check; the
// decompiled source makes the check visible; the programmer, knowing the
// pointers never alias, replaces the function with a restrict-qualified
// NoAlias version — eliminating the fallback and the check.
package main

import (
	"fmt"
	"log"

	"repro/internal/driver"
	"repro/internal/interp"
	"repro/internal/splendid"
)

const original = `
#define N 1000

double bufA[N];
double bufB[N];
double bufC[N];

void MayAlias(double* A, double* B, double* C) {
  for (long i = 0; i < N - 1; i++) {
    A[i+1] = M_PI * B[i] + exp(C[i]);
  }
}
void init() {
  for (long i = 0; i < N; i++) {
    bufB[i] = i % 13;
    bufC[i] = (i % 7) * 0.1;
  }
}
void runDistinct() {
  MayAlias(bufA, bufB, bufC);
}
`

// specialized is what the programmer writes after reading the SPLENDID
// output (Figure 2c): A is promised not to alias, so the check and the
// sequential fallback disappear.
const specialized = `
#define N 1000

double bufA[N];
double bufB[N];
double bufC[N];

void NoAlias(double* A, double* B, double* C) {
  #pragma omp parallel
  {
    #pragma omp for schedule(static) nowait
    for (long i = 0; i < N - 1; i++) {
      A[i+1] = M_PI * B[i] + exp(C[i]);
    }
  }
}
void init() {
  for (long i = 0; i < N; i++) {
    bufB[i] = i % 13;
    bufC[i] = (i % 7) * 0.1;
  }
}
void runDistinct() {
  NoAlias(bufA, bufB, bufC);
}
`

func main() {
	s := driver.New(driver.Options{})
	m, res, err := s.ParallelIR("mayalias", original)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("=== 1. Parallelizer: %d loops parallelized, %d behind runtime alias checks ===\n\n",
		count(res.Parallelized), res.Versioned)

	dec, err := s.Decompile(m, splendid.Full())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== 2. SPLENDID output (the aliasing check is now source-visible) ===")
	fmt.Print(dec.C)

	// Compare: the compiler's checked version vs the programmer's
	// specialized version.
	spec, err := s.OptimizedIR("noalias", specialized)
	if err != nil {
		log.Fatal(err)
	}

	run := func(mod interface {
		GlobalByName(string) interface{ Ident() string }
	}) {
	}
	_ = run

	// Both runs use the default engine, the bytecode VM.
	checkedVM, _ := driver.EngineFor("")
	checked := interp.NewMachine(m, interp.Options{NumThreads: 8, Body: checkedVM})
	mustRun(checked, "init", "runDistinct")
	specialVM, _ := driver.EngineFor("")
	special := interp.NewMachine(spec, interp.Options{NumThreads: 8, Body: specialVM})
	mustRun(special, "init", "runDistinct")

	same := true
	a, b := checked.GlobalMem("bufA"), special.GlobalMem("bufA")
	for i := range a.Cells {
		if a.Cells[i].F != b.Cells[i].F {
			same = false
		}
	}
	fmt.Printf("\n=== 3. Programmer's specialized NoAlias vs compiler's checked version ===\n")
	fmt.Printf("results identical: %v\n", same)
	fmt.Printf("checked span:      %d simulated instructions (check + parallel loop)\n", checked.SimSteps())
	fmt.Printf("specialized span:  %d simulated instructions (no check, no fallback)\n", special.SimSteps())
}

func count(m map[string]int) int {
	t := 0
	for _, n := range m {
		t += n
	}
	return t
}

func mustRun(mach *interp.Machine, fns ...string) {
	for _, fn := range fns {
		if _, err := mach.Run(fn); err != nil {
			log.Fatal(err)
		}
	}
}
