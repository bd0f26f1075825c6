package cgen

import (
	"strings"
	"testing"

	"repro/internal/cfront"
)

func TestGenerateDeterministic(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		a := Generate(Default(seed))
		b := Generate(Default(seed))
		if a.Source != b.Source {
			t.Fatalf("seed %d: generation is not deterministic", seed)
		}
		if a.Trapping != b.Trapping {
			t.Fatalf("seed %d: trap flag nondeterministic", seed)
		}
	}
}

func TestGenerateVariety(t *testing.T) {
	seen := map[string]uint64{}
	pragmas, traps := 0, 0
	for seed := uint64(0); seed < 100; seed++ {
		p := Generate(Default(seed))
		if prev, dup := seen[p.Source]; dup {
			t.Fatalf("seeds %d and %d generated identical programs", prev, seed)
		}
		seen[p.Source] = seed
		if strings.Contains(p.Source, "#pragma omp") {
			pragmas++
		}
		if p.Trapping {
			traps++
		}
	}
	if pragmas < 20 {
		t.Errorf("only %d/100 programs have pragmas; the parallel paths are under-exercised", pragmas)
	}
	if traps == 0 || traps > 40 {
		t.Errorf("%d/100 programs trap; want a rare-but-present rate", traps)
	}
}

// Every generated program must be inside the cfront subset: the
// generator feeding the oracle uncompilable source would poison every
// downstream comparison.
func TestGeneratedProgramsCompile(t *testing.T) {
	for seed := uint64(0); seed < 150; seed++ {
		p := Generate(Default(seed))
		m, err := cfront.CompileSource(p.Source, "gen", nil)
		if err != nil {
			t.Fatalf("seed %d does not compile: %v\n%s", seed, err, p.Source)
		}
		for _, e := range p.Entries {
			if m.FuncByName(e) == nil {
				t.Fatalf("seed %d: entry @%s missing", seed, e)
			}
		}
	}
}

func TestRestrictedConfigs(t *testing.T) {
	p := Generate(Config{Seed: 7, NoPragmas: true, NoTraps: true})
	if strings.Contains(p.Source, "#pragma") {
		t.Errorf("NoPragmas config emitted a pragma:\n%s", p.Source)
	}
	if p.Trapping {
		t.Errorf("NoTraps config marked the program trapping")
	}
}
