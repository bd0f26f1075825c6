// Loopopts reproduces the paper's Figure 3: SPLENDID deliberately leaves
// performance-relevant transformations — loop unrolling and loop
// distribution — visible in the decompiled source, so a performance
// engineer can read unroll factors and fission structure directly.
package main

import (
	"fmt"
	"log"

	"repro/internal/analysis"
	"repro/internal/cfront"
	"repro/internal/passes"
	"repro/internal/splendid"
)

const unrollSrc = `
#define N 1000
double A[N];
double B[N];
double C[N];
void kernel() {
  for (long i = 0; i < N; i++) {
    A[i] = B[i] + C[i];
  }
}
`

const distSrc = `
#define N 100
double A[N][N];
double B[N][N];
void kernel() {
  for (long i = 1; i < N; i++) {
    for (long j = 0; j < N; j++) {
      A[i][j] = i + j;
      B[i][j] = i * j - A[i-1][j];
    }
  }
}
`

func main() {
	fmt.Println("=== Loop unrolling stays visible ===")
	fmt.Println("original:")
	fmt.Print(unrollSrc)
	m, err := cfront.CompileSource(unrollSrc, "unroll", nil)
	if err != nil {
		log.Fatal(err)
	}
	// Unroll by 4 before the rest of the pipeline.
	f := m.FuncByName("kernel")
	li := analysis.FindLoops(f, analysis.NewDomTree(f))
	passes.Mem2Reg(f)
	passes.SimplifyCFG(f)
	li = analysis.FindLoops(f, analysis.NewDomTree(f))
	if !passes.UnrollLoop(f, li.All[0], 4) {
		log.Fatal("unroll refused")
	}
	if err := passes.Optimize(m, passes.RunConfig{}); err != nil {
		log.Fatal(err)
	}
	dec, err := splendid.Decompile(m, splendid.Full(), passes.RunConfig{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ndecompiled (unroll factor 4 readable in the source):")
	fmt.Print(dec.C)

	fmt.Println("\n=== Loop distribution stays visible ===")
	fmt.Println("original:")
	fmt.Print(distSrc)
	m2, err := cfront.CompileSource(distSrc, "dist", nil)
	if err != nil {
		log.Fatal(err)
	}
	f2 := m2.FuncByName("kernel")
	passes.Mem2Reg(f2)
	passes.SimplifyCFG(f2)
	passes.DCE(f2)
	li2 := analysis.FindLoops(f2, analysis.NewDomTree(f2))
	// Distribute the inner loop (splits the A and B statement groups).
	var inner *analysis.Loop
	for _, l := range li2.All {
		if len(l.Children) == 0 {
			inner = l
		}
	}
	if !passes.DistributeLoop(f2, inner) {
		log.Fatal("distribution refused")
	}
	if err := passes.Optimize(m2, passes.RunConfig{}); err != nil {
		log.Fatal(err)
	}
	dec2, err := splendid.Decompile(m2, splendid.Full(), passes.RunConfig{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ndecompiled (two fissioned loops readable in the source):")
	fmt.Print(dec2.C)
}
