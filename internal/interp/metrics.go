package interp

import (
	"time"

	"repro/internal/metrics"
)

// machMetrics carries the interpreter's live metric handles
// (splendid_interp_*). Like the profiler and the race checker it is
// nil-disabled: a Machine without Options.Metrics carries a nil
// *machMetrics and every hook is a pointer check, so the plain
// interpretation path pays nothing.
type machMetrics struct {
	runs          *metrics.Counter
	regions       *metrics.Counter
	conflicts     *metrics.Counter
	barrierWaitNS *metrics.Counter
}

// newMachMetrics acquires the interpreter's counters from r, labelled
// with the body engine executing them so tree and bytecode traffic stay
// separate series on a shared registry. Nil-safe: a nil registry yields
// nil metrics.
func newMachMetrics(r *metrics.Registry, engine string) *machMetrics {
	if r == nil {
		return nil
	}
	eng := metrics.L("engine", engine)
	return &machMetrics{
		runs:    r.Counter("splendid_interp_runs_total", "top-level Machine.Run invocations", eng),
		regions: r.Counter("splendid_interp_regions_total", "parallel regions executed (fork/join pairs)", eng),
		conflicts: r.Counter("splendid_interp_conflicts_total",
			"cross-thread conflicts found by the dynamic DOALL checker", eng),
		barrierWaitNS: r.Counter("splendid_interp_barrier_wait_ns_total",
			"nanoseconds workers spent blocked at team barriers", eng),
	}
}

func (mm *machMetrics) noteRun() {
	if mm == nil {
		return
	}
	mm.runs.Inc()
}

func (mm *machMetrics) noteRegion() {
	if mm == nil {
		return
	}
	mm.regions.Inc()
}

func (mm *machMetrics) noteConflicts(n int) {
	if mm == nil || n <= 0 {
		return
	}
	mm.conflicts.Add(int64(n))
}

func (mm *machMetrics) noteBarrierWait(d time.Duration) {
	if mm == nil {
		return
	}
	mm.barrierWaitNS.Add(d.Nanoseconds())
}
