// Polybench drives any of the 16 benchmarks through the whole pipeline:
// sequential baseline, automatic parallelization, SPLENDID
// decompilation, recompilation, and parallel execution with result
// verification.
//
// Usage:
//
//	go run ./examples/polybench [-bench gemm] [-threads 8] [-print]
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/driver"
	"repro/internal/interp"
	"repro/internal/polybench"
	"repro/internal/splendid"
)

func main() {
	name := flag.String("bench", "gemm", "benchmark name (see -list)")
	threads := flag.Int("threads", 8, "OpenMP team size")
	list := flag.Bool("list", false, "list benchmark names")
	show := flag.Bool("print", false, "print the SPLENDID decompilation")
	flag.Parse()

	if *list {
		for _, n := range polybench.Names() {
			fmt.Println(n)
		}
		return
	}
	b := polybench.ByName(*name)
	if b == nil {
		log.Fatalf("unknown benchmark %q", *name)
	}

	s := driver.New(driver.Options{})
	seqM, err := polybench.CompileVariant(s, b.Seq, b.Name)
	if err != nil {
		log.Fatal(err)
	}
	// Both runs use the default engine, the bytecode VM.
	seqVM, _ := driver.EngineFor("")
	seq, err := b.RunWith(seqM, interp.Options{NumThreads: 1, Body: seqVM})
	if err != nil {
		log.Fatal(err)
	}

	parIR, pres, err := b.CompileParallelIR(s)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: parallelizer converted %d loops\n", b.Name, total(pres.Parallelized))

	dec, err := s.Decompile(parIR, splendid.Full())
	if err != nil {
		log.Fatal(err)
	}
	if *show {
		fmt.Println(dec.C)
	}

	rec, err := polybench.CompileVariant(s, dec.C, b.Name+".splendid")
	if err != nil {
		log.Fatal(err)
	}
	parVM, _ := driver.EngineFor("")
	par, err := b.RunWith(rec, interp.Options{NumThreads: *threads, Body: parVM})
	if err != nil {
		log.Fatal(err)
	}
	ok, diff := b.OutputsEqual(seq, par)
	fmt.Printf("decompiled+recompiled output matches sequential: %v %s\n", ok, diff)
	fmt.Printf("sequential span: %d, parallel span (%d workers): %d  =>  %.2fx speedup\n",
		seq.SimSteps(), *threads, par.SimSteps(),
		float64(seq.SimSteps())/float64(par.SimSteps()))
}

func total(m map[string]int) int {
	t := 0
	for _, n := range m {
		t += n
	}
	return t
}
