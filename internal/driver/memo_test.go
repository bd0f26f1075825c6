package driver_test

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/driver"
	"repro/internal/ir"
	"repro/internal/polybench"
	"repro/internal/splendid"
)

// lastProbes returns the memo probes of the session's most recent job.
func lastProbes(t *testing.T, s *driver.Session) []driver.CacheLookup {
	t.Helper()
	jobs := s.Recorder().Snapshot().Jobs
	if len(jobs) == 0 {
		t.Fatal("no job recorded")
	}
	return jobs[len(jobs)-1].Cache
}

// wantProbe fails unless the session's last job made exactly one
// decompile-memo probe with the given outcome.
func wantProbe(t *testing.T, s *driver.Session, step string, hit bool) {
	t.Helper()
	got := lastProbes(t, s)
	if len(got) != 1 || got[0] != (driver.CacheLookup{Prefix: "decompile", Hit: hit}) {
		t.Errorf("%s: probes = %+v, want one decompile probe with hit=%v", step, got, hit)
	}
}

// fuzzSeed reads one []byte entry of a Go fuzz corpus file.
func fuzzSeed(t *testing.T, path string) string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	body := strings.TrimSpace(strings.TrimPrefix(string(raw), "go test fuzz v1\n"))
	lit := strings.TrimSuffix(strings.TrimPrefix(body, "[]byte("), ")")
	text, err := strconv.Unquote(lit)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return text
}

// mutate renames the first llvm.dbg.value variable of m and bumps its
// first integer constant operand, in place.
func mutate(t *testing.T, m *ir.Module) {
	t.Helper()
	renamed, bumped := false, false
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if !renamed && in.Op == ir.OpDbgValue {
					in.VarName += "_edited"
					renamed = true
				}
				// Runtime-call arguments (schedule kinds, thread ids)
				// and 0/1 flags stay: the edit must keep decompiling.
				if bumped || in.Op == ir.OpDbgValue || in.Op == ir.OpCall {
					continue
				}
				for i, a := range in.Args {
					if c, ok := a.(*ir.ConstInt); ok && c.V > 1 && !bumped {
						in.Args[i] = ir.IntConst(c.Typ, c.V+1)
						bumped = true
					}
				}
			}
		}
	}
	if !renamed || !bumped {
		t.Fatalf("mutate found no dbg.value (%v) or constant (%v) to edit", renamed, bumped)
	}
}

// roundTripSource has a main for RoundTrip and a loop to parallelize.
const roundTripSource = `
long A[64];

long main() {
  for (long i = 0; i < 64; i++) {
    A[i] = i * 3;
  }
  return A[63];
}
`

// TestDecompileMemo pins what the session's decompile memo serves: a
// repeat is a hit with identical C and Stats; a different config, an
// edited module or a failing input misses; and RoundTrip never probes.
func TestDecompileMemo(t *testing.T) {
	s := driver.New(driver.Options{Jobs: 1})
	b := polybench.All()[0]
	m, _, err := s.ParallelIR(b.Name, b.Seq)
	if err != nil {
		t.Fatal(err)
	}

	r1, err := s.Decompile(m, splendid.Full())
	if err != nil {
		t.Fatal(err)
	}
	wantProbe(t, s, "first call", false)
	r2, err := s.Decompile(m, splendid.Full())
	if err != nil {
		t.Fatal(err)
	}
	wantProbe(t, s, "repeat", true)
	if r2.C != r1.C || r2.Stats != r1.Stats {
		t.Fatalf("repeat differs from the first call:\nstats %+v vs %+v\n--- first ---\n%s\n--- repeat ---\n%s", r1.Stats, r2.Stats, r1.C, r2.C)
	}
	if r1 == r2 {
		t.Error("repeat handed out the same *Result as the first call")
	}

	if _, err := s.Decompile(m, splendid.Portable()); err != nil {
		t.Fatal(err)
	}
	wantProbe(t, s, "different config", false)

	mutate(t, m)
	r3, err := s.Decompile(m, splendid.Full())
	if err != nil {
		t.Fatal(err)
	}
	wantProbe(t, s, "mutated module", false)
	if r3.C == r1.C {
		t.Fatal("mutated module returned the cached C")
	}
	fresh, err := driver.New(driver.Options{Jobs: 1}).Decompile(m, splendid.Full())
	if err != nil {
		t.Fatal(err)
	}
	if r3.C != fresh.C {
		t.Fatalf("mutated module's C differs from a fresh session's:\n--- memo session ---\n%s\n--- fresh ---\n%s", r3.C, fresh.C)
	}

	bad, err := ir.Parse(fuzzSeed(t, filepath.Join("..", "splendid", "testdata", "fuzz", "FuzzParseIR", "microtask_forks_itself")))
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []string{"failing input", "failing input again"} {
		if _, err := s.Decompile(bad, splendid.Full()); err == nil {
			t.Fatalf("%s: decompiling a self-forking microtask succeeded", step)
		}
		wantProbe(t, s, step, false)
	}

	if _, err := s.RoundTrip("memo", roundTripSource, driver.RoundTripOptions{Threads: 2}); err != nil {
		t.Fatal(err)
	}
	probes := lastProbes(t, s)
	for _, c := range probes {
		if c.Prefix == "decompile" {
			t.Errorf("RoundTrip probed the decompile memo: %+v", probes)
		}
	}
}

// TestDecompileMemoConcurrent decompiles four kernels from eight
// goroutines on one session, so misses and hits on the same keys race;
// every result must equal a serial session's.
func TestDecompileMemoConcurrent(t *testing.T) {
	benches := polybench.All()[:4]
	serial := driver.New(driver.Options{Jobs: 1})
	s := driver.New(driver.Options{})
	want := make([]string, len(benches))
	mods := make([]*ir.Module, len(benches))
	for i, b := range benches {
		m, _, err := serial.ParallelIR(b.Name, b.Seq)
		if err != nil {
			t.Fatal(err)
		}
		res, err := serial.Decompile(m, splendid.Full())
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.C
		if mods[i], _, err = s.ParallelIR(b.Name, b.Seq); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range benches {
				i := (g + k) % len(benches)
				res, err := s.Decompile(mods[i], splendid.Full())
				if err != nil {
					t.Errorf("%s: %v", benches[i].Name, err)
					return
				}
				if res.C != want[i] {
					t.Errorf("%s: goroutine %d got C that differs from the serial output", benches[i].Name, g)
				}
			}
		}(g)
	}
	wg.Wait()
}
