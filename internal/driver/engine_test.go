package driver

import "testing"

// TestDefaultEngine pins where execution lands by default: the empty
// engine name, and therefore a zero-option Session.Execute, run on the
// bytecode VM, while "tree" still selects the reference tree-walker.
func TestDefaultEngine(t *testing.T) {
	for name, want := range map[string]string{"": "bytecode", "bytecode": "bytecode", "tree": "tree"} {
		body, err := EngineFor(name)
		if err != nil {
			t.Fatalf("EngineFor(%q): %v", name, err)
		}
		if body == nil || body.Name() != want {
			t.Errorf("EngineFor(%q) = %v, want an engine named %q", name, body, want)
		}
	}
	if _, err := EngineFor("jit"); err == nil {
		t.Error(`EngineFor("jit") accepted an unknown engine`)
	}

	s := New(Options{Jobs: 1})
	m, err := s.OptimizedIR("default-engine", flightSource)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Execute(m, ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	jobs := s.Recorder().Snapshot().Jobs
	exec := jobs[len(jobs)-1]
	if exec.Kind != "execute" || exec.Engine != "bytecode" {
		t.Errorf("zero-option Execute recorded %s on engine %q, want execute on \"bytecode\"", exec.Kind, exec.Engine)
	}
}

// TestRoundTripEngines pins the oracle's engine assignment: every
// reference run (unoptimized, optimized, recompiled) is tree-walked and
// only the bytecode trust boundary runs on the VM, so a change of the
// default engine cannot turn the oracle into a VM-vs-VM comparison.
func TestRoundTripEngines(t *testing.T) {
	s := New(Options{Jobs: 1})
	res, err := s.RoundTrip("engines", flightSource, RoundTripOptions{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() {
		t.Fatalf("round trip diverged: %v", res.Divergences)
	}
	for _, c := range []struct {
		run  string
		out  *Outcome
		want string
	}{
		{"Ref", res.Ref, "tree"},
		{"Opt1", res.Opt1, "tree"},
		{"OptN", res.OptN, "tree"},
		{"Rec1", res.Rec1, "tree"},
		{"RecN", res.RecN, "tree"},
		{"Byt1", res.Byt1, "bytecode"},
		{"BytN", res.BytN, "bytecode"},
	} {
		if c.out == nil {
			t.Errorf("%s: no outcome", c.run)
			continue
		}
		if c.out.Engine != c.want {
			t.Errorf("%s ran on %q, want %q", c.run, c.out.Engine, c.want)
		}
	}
}
