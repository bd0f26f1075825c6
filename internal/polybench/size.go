package polybench

import (
	"fmt"
	"regexp"
	"strconv"

	"repro/internal/driver"
	"repro/internal/ir"
	"repro/internal/parallel"
)

// Size selects the problem-size scale of a benchmark run. The seed
// sources carry mini dimensions tuned for CI latency; std and large
// multiply every integer size #define, growing the work of the
// quadratic/cubic kernels by roughly 10-100x — enough for engine
// throughput comparisons to dominate startup costs.
type Size string

const (
	SizeMini  Size = "mini"  // the sources' own dimensions (CI default)
	SizeStd   Size = "std"   // linear dimensions x4 (benchmarking)
	SizeLarge Size = "large" // linear dimensions x8
)

// ParseSize validates a size name from a flag or environment variable.
func ParseSize(s string) (Size, error) {
	switch Size(s) {
	case "", SizeMini:
		return SizeMini, nil
	case SizeStd, SizeLarge:
		return Size(s), nil
	}
	return "", fmt.Errorf("unknown problem size %q (want mini, std, or large)", s)
}

// Factor is the multiplier applied to every size #define.
func (s Size) Factor() int {
	switch s {
	case SizeStd:
		return 4
	case SizeLarge:
		return 8
	}
	return 1
}

// sizeDefine matches `#define NAME <int>` lines — the only way the
// benchmark sources express problem dimensions.
var sizeDefine = regexp.MustCompile(`(?m)^(\s*#define\s+[A-Za-z_][A-Za-z0-9_]*\s+)([0-9]+)\s*$`)

// ScaleSource multiplies every integer size #define in src by factor.
// factor <= 1 returns src unchanged.
func ScaleSource(src string, factor int) string {
	if factor <= 1 {
		return src
	}
	return sizeDefine.ReplaceAllStringFunc(src, func(line string) string {
		m := sizeDefine.FindStringSubmatch(line)
		n, _ := strconv.Atoi(m[2])
		return m[1] + strconv.Itoa(n*factor)
	})
}

// SeqAt is the sequential source at the given problem size.
func (b *Benchmark) SeqAt(size Size) string {
	return ScaleSource(b.Seq, size.Factor())
}

// sizedName keys the session memo: mini keeps the benchmark's plain
// name (sharing cache entries with unsized callers), scaled sizes get a
// distinct suffix so the memo never conflates dimensions.
func (b *Benchmark) sizedName(size Size) string {
	if size.Factor() <= 1 {
		return b.Name
	}
	return b.Name + "@" + string(size)
}

// CompileParallelIRSized is CompileParallelIR at a problem size:
// sequential source scaled, then O2 and automatic parallelization.
func (b *Benchmark) CompileParallelIRSized(s *driver.Session, size Size) (*ir.Module, *parallel.Result, error) {
	m, res, err := s.ParallelIR(b.sizedName(size), b.SeqAt(size))
	if err != nil {
		return nil, nil, fmt.Errorf("%s@%s: %w", b.Name, size, err)
	}
	if err := m.Verify(); err != nil {
		return nil, nil, fmt.Errorf("%s@%s after parallelize: %w", b.Name, size, err)
	}
	return m, res, nil
}
