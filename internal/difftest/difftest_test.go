package difftest

import (
	"strings"
	"testing"

	"repro/internal/cgen"
	"repro/internal/driver"
	"repro/internal/interp"
	"repro/internal/ir"
)

// The golden evaluator and the reference tree-walker must agree on
// every generated program's sequential behaviour: output, trap
// category, and the bit pattern of every global. Any disagreement here
// is a semantics bug in one of them, which would poison the oracle.
func TestGoldenMatchesInterpOnGeneratedSeeds(t *testing.T) {
	s := driver.New(driver.Options{Jobs: 1})
	for seed := uint64(0); seed < 40; seed++ {
		p := cgen.Generate(cgen.Default(seed))
		m, err := s.Frontend(p.Source, "gen")
		if err != nil {
			t.Fatalf("seed %d: frontend: %v", seed, err)
		}
		var globals []string
		for _, g := range m.Globals {
			globals = append(globals, g.Nam)
		}
		tree, _ := driver.EngineFor("tree")
		got, _ := driver.RunForOutcome(m, p.Entries, globals, interp.Options{NumThreads: 1, Fuel: 16_000_000, Body: tree})
		want := GoldenRun(m, p.Entries, globals, 16_000_000)
		if diffs := want.Diff(got); len(diffs) > 0 {
			t.Errorf("seed %d: interpreter departs from golden evaluator:\n  %s\nsource:\n%s",
				seed, strings.Join(diffs, "\n  "), p.Source)
		}
	}
}

// Every seed must survive the full oracle: optimize, parallelize,
// decompile, recompile, execute at 1 and 8 threads, golden cross-check.
func TestCheckSeedsClean(t *testing.T) {
	s := driver.New(driver.Options{Jobs: 1})
	parallelized, trapping := 0, 0
	for seed := uint64(0); seed < 25; seed++ {
		rep, err := CheckSeed(s, seed, driver.RoundTripOptions{Threads: 8})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rep.Skipped() {
			continue
		}
		if rep.Failed() {
			var lines []string
			for _, d := range rep.Divergences {
				lines = append(lines, d.String())
			}
			t.Errorf("seed %d diverged:\n  %s\nsource:\n%s",
				seed, strings.Join(lines, "\n  "), rep.Program.Source)
		}
		if rep.Result.ParallelizedLoops > 0 {
			parallelized++
		}
		if rep.Result.Ref.Trapped {
			trapping++
		}
	}
	// The oracle is only meaningful if the generator actually drives the
	// parallel and trapping paths.
	if parallelized == 0 {
		t.Error("no seed in 0..24 exercised the parallelizer")
	}
	t.Logf("25 seeds: %d parallelized, %d trapping", parallelized, trapping)
}

// noisyShiftRepro buries one out-of-range shift in two irrelevant
// functions and a dead-on-one-arm branch — the shapes each reducer
// strategy exists to strip.
const noisyShiftRepro = `
define i64 @helper(i64 %x) {
entry:
  %a = mul i64 %x, 3
  %b = add i64 %a, 7
  ret i64 %b
}

define i64 @noise(i64 %n) {
entry:
  br label %header
header:
  %i = phi i64 [ 0, %entry ], [ %inc, %body ]
  %acc = phi i64 [ 0, %entry ], [ %sum, %body ]
  %cmp = icmp slt i64 %i, %n
  br i1 %cmp, label %body, label %exit
body:
  %sq = mul i64 %i, %i
  %sum = add i64 %acc, %sq
  %inc = add i64 %i, 1
  br label %header
exit:
  ret i64 %acc
}

define i64 @main() {
entry:
  %h = call i64 @helper(i64 5)
  %n = call i64 @noise(i64 %h)
  %c = icmp sgt i64 %n, 0
  br i1 %c, label %then, label %else
then:
  %bad = shl i64 %h, 64
  ret i64 %bad
else:
  ret i64 0
}
`

func TestReduceShrinksShiftRepro(t *testing.T) {
	failing := func(m *ir.Module) bool {
		out := GoldenRun(m, []string{"main"}, nil, 1_000_000)
		return out.Trapped && out.TrapKind == interp.TrapShiftOOB
	}
	res, err := Reduce(noisyShiftRepro, failing, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Instrs >= res.InputInstrs {
		t.Errorf("no shrink: %d -> %d instructions", res.InputInstrs, res.Instrs)
	}
	if res.Instrs > 20 {
		t.Errorf("reduced reproducer has %d instructions, want <= 20:\n%s", res.Instrs, res.IR)
	}
	for _, gone := range []string{"@noise", "@helper"} {
		if strings.Contains(res.IR, gone) {
			t.Errorf("irrelevant function %s survived reduction:\n%s", gone, res.IR)
		}
	}
	if !strings.Contains(res.IR, "shl") {
		t.Errorf("the culprit shift was reduced away:\n%s", res.IR)
	}
	final, err := parseValid(res.IR)
	if err != nil {
		t.Fatalf("reduced IR invalid: %v", err)
	}
	if !failing(final) {
		t.Errorf("reduced IR no longer fails:\n%s", res.IR)
	}
	t.Logf("reduced %d -> %d instructions in %d rounds (%d candidates)",
		res.InputInstrs, res.Instrs, res.Rounds, res.Tries)
}

func TestReduceRejectsNonFailingInput(t *testing.T) {
	if _, err := Reduce("define i64 @main() {\nentry:\n  ret i64 0\n}\n",
		func(*ir.Module) bool { return false }, 0); err == nil {
		t.Fatal("Reduce accepted an input that does not fail the predicate")
	}
}

// The golden evaluator's strictness must cover the trap taxonomy the
// generator can emit, with the interpreter agreeing on each kind.
func TestGoldenTrapKinds(t *testing.T) {
	for _, tc := range []struct {
		name, body string
		kind       interp.TrapKind
	}{
		{"shl-oob", "%r = shl i64 1, 64\n  ret i64 %r", interp.TrapShiftOOB},
		{"ashr-neg", "%r = ashr i64 1, -1\n  ret i64 %r", interp.TrapShiftOOB},
		{"div-zero", "%r = sdiv i64 1, 0\n  ret i64 %r", interp.TrapDivByZero},
		{"rem-zero", "%r = srem i64 1, 0\n  ret i64 %r", interp.TrapRemByZero},
	} {
		m := ir.MustParse("define i64 @main() {\nentry:\n  " + tc.body + "\n}\n")
		out := GoldenRun(m, []string{"main"}, nil, 1000)
		if !out.Trapped || out.TrapKind != tc.kind {
			t.Errorf("%s: golden outcome %+v, want trap kind %s", tc.name, out, tc.kind)
		}
		tree, _ := driver.EngineFor("tree")
		got, _ := driver.RunForOutcome(m, []string{"main"}, nil, interp.Options{NumThreads: 1, Body: tree})
		if diffs := out.Diff(got); len(diffs) > 0 {
			t.Errorf("%s: interpreter disagrees with golden: %v", tc.name, diffs)
		}
	}
}
