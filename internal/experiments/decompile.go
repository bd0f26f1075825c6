package experiments

import (
	"fmt"

	"repro/internal/driver"
	"repro/internal/ir"
	"repro/internal/polybench"
	"repro/internal/splendid"
)

// decompiled holds every decompiler's output for one benchmark, plus the
// reference text and the SPLENDID statistics — the shared input of
// Table 4 and Figures 7/8.
type decompiled struct {
	bench *polybench.Benchmark

	GhidraC   string
	RellicC   string
	V1C       string
	PortableC string
	FullC     string
	RefC      string

	// Sequential-IR decompilations, used to isolate the LoC cost of the
	// parallel representation (Table 4's "Parallel Representation").
	GhidraSeqC string
	RellicSeqC string
	FullSeqC   string

	FullStats splendid.Stats
}

// decompileAll runs every decompiler variant over one benchmark through
// the session: the parallel and sequential input IR both come from the
// session's prefix memo and every decompilation from its decompile memo,
// so the expensive work happens once no matter how many tables and
// figures consume the result.
func decompileAll(s *driver.Session, b *polybench.Benchmark) (*decompiled, error) {
	parIR, _, err := b.CompileParallelIR(s)
	if err != nil {
		return nil, err
	}
	seqIR, err := s.OptimizedIR(b.Name+".seq", b.Seq)
	if err != nil {
		return nil, err
	}

	d := &decompiled{bench: b, RefC: b.Ref}
	for _, v := range []struct {
		m       *ir.Module
		variant string
		dst     *string
		stats   *splendid.Stats
	}{
		{parIR, "ghidra", &d.GhidraC, nil},
		{parIR, "rellic", &d.RellicC, nil},
		{seqIR, "ghidra", &d.GhidraSeqC, nil},
		{seqIR, "rellic", &d.RellicSeqC, nil},
		{parIR, "v1", &d.V1C, nil},
		{parIR, "portable", &d.PortableC, nil},
		{parIR, "full", &d.FullC, &d.FullStats},
		{seqIR, "full", &d.FullSeqC, nil},
	} {
		text, stats, err := s.DecompileVariant(v.m, v.variant)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", b.Name, v.variant, err)
		}
		*v.dst = text
		if v.stats != nil && stats != nil {
			*v.stats = *stats
		}
	}
	return d, nil
}

// Table4 computes the LoC rows from the decompilations.
func Table4(cfg Config) ([]Table4Row, error) {
	s := cfg.session()
	var rows []Table4Row
	for _, b := range polybench.All() {
		d, err := decompileAll(s, b)
		if err != nil {
			return nil, err
		}
		seqLoC := loc(b.Seq)
		row := Table4Row{
			Name:        b.Name,
			Ghidra:      loc(d.GhidraC),
			Rellic:      loc(d.RellicC),
			Splendid:    loc(d.FullC),
			Ref:         loc(d.RefC),
			GhidraPar:   max0(loc(d.GhidraC) - loc(d.GhidraSeqC)),
			RellicPar:   max0(loc(d.RellicC) - loc(d.RellicSeqC)),
			SplendidPar: max0(loc(d.FullC) - loc(d.FullSeqC)),
			RefPar:      max0(loc(d.RefC) - seqLoC),
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func max0(n int) int {
	if n < 0 {
		return 0
	}
	return n
}

// recompile turns decompiled C back into an optimized module (the
// "recompiled with another host compiler" step of Figure 6). It goes
// through the session's memoized OptimizedIR, so Figures 6 and 9
// recompiling the same decompiled text pay for it once.
func recompile(s *driver.Session, src, name string) (*ir.Module, error) {
	m, err := s.OptimizedIR(name, src)
	if err != nil {
		return nil, fmt.Errorf("recompile %s: %w", name, err)
	}
	return m, nil
}
