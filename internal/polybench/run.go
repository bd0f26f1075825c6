package polybench

import (
	"fmt"
	"math"

	"repro/internal/driver"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/parallel"
)

// CompileVariant compiles one of the benchmark's source variants
// (sequential, reference, manual, or collaborative) through the session's
// frontend and O2 pipeline; the session's memo makes repeated variant
// compilation cheap. OpenMP pragmas in the source lower to runtime calls,
// so the result runs in parallel on a multi-threaded machine.
func CompileVariant(s *driver.Session, src, name string) (*ir.Module, error) {
	m, err := s.OptimizedIR(name, src)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if err := m.Verify(); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return m, nil
}

// CompileParallelIR builds the decompilation input of the paper's
// pipeline through s: sequential source, -O2, automatic parallelization.
// The parallelizer's report is returned for Table 3. The session's memo
// makes the O2+parallelize prefix a cache hit when several experiment
// variants fork from the same input.
func (b *Benchmark) CompileParallelIR(s *driver.Session) (*ir.Module, *parallel.Result, error) {
	m, res, err := s.ParallelIR(b.Name, b.Seq)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", b.Name, err)
	}
	if err := m.Verify(); err != nil {
		return nil, nil, fmt.Errorf("%s after parallelize: %w", b.Name, err)
	}
	return m, res, nil
}

// RunWith executes the benchmark's functions on a fresh machine built
// from opts and returns it for inspection. The observability harnesses
// use opts to attach the parallel-region profiler (Profile), the dynamic
// DOALL conflict checker (CheckRaces), or a telemetry context to a kernel
// execution.
func (b *Benchmark) RunWith(m *ir.Module, opts interp.Options) (*interp.Machine, error) {
	mach := interp.NewMachine(m, opts)
	for _, fn := range b.RunFuncs {
		if _, err := mach.Run(fn); err != nil {
			return nil, fmt.Errorf("%s/%s: %w", b.Name, fn, err)
		}
	}
	return mach, nil
}

// Checksum folds the benchmark's output arrays into one float64 (bitwise
// deterministic: the fold is a fixed-order sum of bit-pattern-derived
// values, so two runs computing identical cells produce identical sums).
func (b *Benchmark) Checksum(mach *interp.Machine) float64 {
	var h uint64 = 1469598103934665603
	for _, g := range b.Outputs {
		mem := mach.GlobalMem(g)
		if mem == nil {
			continue
		}
		for _, c := range mem.Cells {
			bits := math.Float64bits(c.F)
			h ^= bits
			h *= 1099511628211
		}
	}
	return float64(h % (1 << 52))
}

// OutputsEqual reports whether two runs produced bitwise-identical
// output arrays, returning the first difference for diagnostics.
func (b *Benchmark) OutputsEqual(a, c *interp.Machine) (bool, string) {
	for _, g := range b.Outputs {
		ma, mc := a.GlobalMem(g), c.GlobalMem(g)
		if ma == nil || mc == nil {
			return false, fmt.Sprintf("missing global %s", g)
		}
		if len(ma.Cells) != len(mc.Cells) {
			return false, fmt.Sprintf("%s: size %d vs %d", g, len(ma.Cells), len(mc.Cells))
		}
		for i := range ma.Cells {
			if math.Float64bits(ma.Cells[i].F) != math.Float64bits(mc.Cells[i].F) {
				return false, fmt.Sprintf("%s[%d]: %v vs %v", g, i, ma.Cells[i].F, mc.Cells[i].F)
			}
		}
	}
	return true, ""
}

// PragmaCount counts the worksharing pragmas in a source variant — the
// "loops parallelized by the programmer" statistic of Table 3.
func PragmaCount(src string) int {
	n := 0
	for i := 0; i+12 <= len(src); i++ {
		if src[i:i+11] == "#pragma omp" {
			rest := src[i+11:]
			if len(rest) > 4 && (containsAt(rest, " for") || containsAt(rest, " parallel for")) {
				n++
			}
		}
	}
	return n
}

func containsAt(s, prefix string) bool {
	return len(s) >= len(prefix) && s[:len(prefix)] == prefix
}
