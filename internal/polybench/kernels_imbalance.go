package polybench

import (
	"fmt"
	"strings"
)

// The triangular-workload kernel for schedule experiments. Row i's
// inner loop runs N-i iterations, so contiguous static partitions hand
// the low-tid workers several times the work of the high-tid ones —
// the load-imbalance shape that schedule(guided)'s decaying chunks
// exist to fix (schedule(auto) runs as guided). It stays outside the
// 16-benchmark registry (the paper's Table 3/4 set is closed); the
// schedule-balance experiment and the engine determinism gate build
// variants through ImbalancedKernel.
//
// Every row writes only its own A[i] cell, so the loop is DOALL and
// its output is bitwise-identical under any chunk-to-worker
// assignment — the property the determinism tests pin for the
// timing-dependent guided and auto schedules.

// ImbalancedSchedules lists the schedule clauses the experiment
// compares, in presentation order.
var ImbalancedSchedules = []string{"static", "dynamic", "guided", "auto"}

// imbalancedSrc is the kernel source with a @PRAGMA@ hole for the
// pragma line ("" yields the sequential variant). The hole is not a
// printf verb because the kernel body itself contains % operators.
const imbalancedSrc = `
#define N 192

double A[N];

void init() {
  for (long i = 0; i < N; i++) {
    A[i] = 0.0;
  }
}
void kernel_tri() {
@PRAGMA@  for (long i = 0; i < N; i++) {
    A[i] = 0.25;
    for (long j = i; j < N; j++) {
      A[i] = A[i] + ((i + 2 * j + 1) % 9) * 0.5 + 0.125;
    }
  }
}
`

// imbalancedPragma maps a schedule name to its pragma line. Dynamic
// and guided carry a small explicit chunk so the decaying-chunk floor
// is exercised; auto takes none.
func imbalancedPragma(sched string) string {
	switch sched {
	case "":
		return ""
	case "static", "auto":
		return fmt.Sprintf("  #pragma omp parallel for schedule(%s)\n", sched)
	default:
		return fmt.Sprintf("  #pragma omp parallel for schedule(%s, 4)\n", sched)
	}
}

// ImbalancedKernel builds the triangular kernel annotated with the
// given schedule kind ("static", "dynamic", "guided", "auto"), or the
// sequential variant for "". The result is a self-contained Benchmark
// (Seq holds the variant source) compatible with RunWith, Checksum,
// and OutputsEqual.
func ImbalancedKernel(sched string) *Benchmark {
	name := "imbalanced"
	if sched != "" {
		name += "-" + sched
	}
	return &Benchmark{
		Name:        name,
		Seq:         strings.Replace(imbalancedSrc, "@PRAGMA@", imbalancedPragma(sched), 1),
		RunFuncs:    []string{"init", "kernel_tri"},
		KernelFuncs: []string{"kernel_tri"},
		Outputs:     []string{"A"},
	}
}
