package difftest

import (
	"path/filepath"
	"testing"

	"repro/internal/driver"
	"repro/internal/interp"
	"repro/internal/ir"
)

// TestRegressionCorpus replays every checked-in repro dir under
// testdata/corpus — the standing regression corpus seeded with the
// bugs the differential oracle has caught (and the fleet appends to).
// "clean" entries run the full round trip, which executes the module
// on both engines (the tree-walker reference/optimized runs and the
// bytecode VM trust boundary) at 1 and N threads, plus the module
// self-consistency check on the reduced reproducer when one is
// present. "trap" entries additionally require source.c to end in one
// categorized trap on the golden evaluator and both engines.
// "parse-reject" entries pin degenerate IR text the parser must keep
// refusing. A bug fixed once can never silently return.
func TestRegressionCorpus(t *testing.T) {
	repros, err := LoadCorpus(filepath.Join("testdata", "corpus"))
	if err != nil {
		t.Fatal(err)
	}
	if len(repros) == 0 {
		t.Fatal("testdata/corpus is empty; the regression corpus must ship with entries")
	}
	s := driver.New(driver.Options{Jobs: 1})
	for _, r := range repros {
		r := r
		t.Run(r.Name, func(t *testing.T) {
			switch r.Meta.Expect {
			case "parse-reject":
				if r.IR == "" {
					t.Fatal("parse-reject entry has no reduced.ll")
				}
				if _, err := ir.Parse(r.IR); err == nil {
					t.Fatalf("parser accepted degenerate text this entry pins as rejected:\n%s", r.IR)
				}
			case "clean", "trap":
				threads := r.Meta.Threads
				if threads <= 0 {
					threads = 8
				}
				if r.Source == "" && r.IR == "" {
					t.Fatal("clean entry has neither source.c nor reduced.ll")
				}
				if r.Source != "" {
					res, err := s.RoundTrip("corpus/"+r.Name, r.Source,
						driver.RoundTripOptions{Entries: r.Meta.Entries, Threads: threads})
					if err != nil {
						t.Fatalf("round trip: %v", err)
					}
					if res.FuelExhausted {
						t.Fatal("corpus entry exhausted fuel; repro must be cheap enough to replay")
					}
					if res.Failed() {
						for _, d := range res.Divergences {
							t.Errorf("regressed: %s", d)
						}
					}
				}
				if r.IR != "" {
					m, err := ir.Parse(r.IR)
					if err != nil {
						t.Fatalf("reduced.ll does not parse: %v", err)
					}
					entries := r.Meta.Entries
					if len(entries) == 0 {
						entries = []string{"main"}
					}
					if ModuleDiverges(m, entries, threads) {
						t.Error("reduced reproducer diverges again (golden vs tree vs bytecode vs N threads)")
					}
				}
				if r.Meta.Expect == "trap" {
					requireSameTrap(t, s, r)
				}
			default:
				t.Fatalf("unknown expect %q", r.Meta.Expect)
			}
		})
	}
}

// requireSameTrap runs source.c's frontend module at 1 thread on the
// golden evaluator, the tree-walker and the bytecode VM: all three must
// trap, with the same categorized kind in the same entry.
func requireSameTrap(t *testing.T, s *driver.Session, r *Repro) {
	t.Helper()
	if r.Source == "" {
		t.Fatal("trap entry has no source.c")
	}
	m, err := s.Frontend(r.Source, "corpus/"+r.Name)
	if err != nil {
		t.Fatalf("frontend: %v", err)
	}
	const fuel = 16_000_000
	byt, err := driver.EngineFor("bytecode")
	if err != nil {
		t.Fatal(err)
	}
	golden := GoldenRun(m, r.Meta.Entries, nil, fuel)
	tree, _ := driver.RunForOutcome(m, r.Meta.Entries, nil, interp.Options{NumThreads: 1, Fuel: fuel})
	bvm, _ := driver.RunForOutcome(m, r.Meta.Entries, nil, interp.Options{NumThreads: 1, Fuel: fuel, Body: byt})
	for _, o := range []struct {
		name string
		out  *driver.Outcome
	}{{"golden", golden}, {"tree", tree}, {"bytecode", bvm}} {
		if !o.out.Trapped || o.out.TrapKind == interp.TrapGeneric {
			t.Errorf("%s: trapped=%v kind=%s err=%q, want a categorized trap",
				o.name, o.out.Trapped, o.out.TrapKind, o.out.Err)
		}
	}
	for _, d := range append(golden.Diff(tree), tree.Diff(bvm)...) {
		t.Errorf("engines disagree: %s", d)
	}
}

// TestCorpusEntriesStillTrigger sanity-checks the "clean" C entries:
// they must still exercise the code paths they pin — compile, run, and
// produce output — so a corpus entry cannot rot into a no-op that
// passes vacuously.
func TestCorpusEntriesStillTrigger(t *testing.T) {
	repros, err := LoadCorpus(filepath.Join("testdata", "corpus"))
	if err != nil {
		t.Fatal(err)
	}
	s := driver.New(driver.Options{Jobs: 1})
	for _, r := range repros {
		if r.Meta.Expect != "clean" || r.Source == "" {
			continue
		}
		m, err := s.Frontend(r.Source, "corpus/"+r.Name)
		if err != nil {
			t.Errorf("%s: no longer compiles: %v", r.Name, err)
			continue
		}
		var globals []string
		for _, g := range m.Globals {
			globals = append(globals, g.Nam)
		}
		out, _ := driver.RunForOutcome(m, r.Meta.Entries, globals,
			interp.Options{NumThreads: 1, Fuel: 16_000_000})
		if out.Err != "" || out.Trapped {
			t.Errorf("%s: reference run failed: trapped=%v err=%q", r.Name, out.Trapped, out.Err)
		}
		if out.Output == "" {
			t.Errorf("%s: produces no output; the comparison would be vacuous", r.Name)
		}
	}
}
