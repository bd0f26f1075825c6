package difftest

import (
	"strings"
	"testing"

	"repro/internal/driver"
)

// FuzzRoundTripExec drives the full differential oracle from a fuzzed
// generator seed: generate a C program, round-trip it through the
// pipeline (optimize → parallelize → decompile → re-frontend),
// execute every stage at 1 and 8 threads, and cross-check the
// reference tree-walker against the golden evaluator. Any divergence
// crashes the fuzzer with the seed as the reproducer; `cmd/difftest
// -seed N -reduce` then shrinks it.
func FuzzRoundTripExec(f *testing.F) {
	for _, seed := range []uint64{0, 1, 7, 42, 1023, 0xdeadbeef} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		s := driver.New(driver.Options{Jobs: 1})
		rep, err := CheckSeed(s, seed, driver.RoundTripOptions{Threads: 8})
		if err != nil {
			t.Fatalf("seed %d: infrastructure failure: %v", seed, err)
		}
		if rep.Skipped() {
			t.Skip("fuel backstop")
		}
		if rep.Failed() {
			var lines []string
			for _, d := range rep.Divergences {
				lines = append(lines, d.String())
			}
			t.Fatalf("seed %d diverged:\n  %s\nsource:\n%s",
				seed, strings.Join(lines, "\n  "), rep.Program.Source)
		}
	})
}
