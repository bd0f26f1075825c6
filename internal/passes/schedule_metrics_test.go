package passes_test

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/metrics"
	"repro/internal/passes"
)

const schedMetricsSrc = `
define i64 @leaf(i64 %n) {
entry:
  ret i64 %n
}
define i64 @mid(i64 %n) {
entry:
  %r = call i64 @leaf(i64 %n)
  ret i64 %r
}
define i64 @top(i64 %n) {
entry:
  %r = call i64 @mid(i64 %n)
  ret i64 %r
}
`

// TestScheduleFunctionsMetrics checks the scheduler feeds the registry in
// both modes: SCC/function counts always, queue depth settling back to
// zero and worker utilization observed only for the parallel pool.
func TestScheduleFunctionsMetrics(t *testing.T) {
	for _, workers := range []int{1, 3} {
		m, err := ir.Parse(schedMetricsSrc)
		if err != nil {
			t.Fatal(err)
		}
		reg := metrics.NewRegistry()
		sm := passes.NewSchedMetrics(reg)
		ran := 0
		err = passes.ScheduleFunctions(m, workers, func(f *ir.Function) error {
			ran++
			return nil
		}, sm)
		if err != nil {
			t.Fatal(err)
		}
		if ran != 3 {
			t.Fatalf("workers=%d: ran %d functions, want 3", workers, ran)
		}
		if got := reg.Counter("splendid_sched_sccs_total", "").Value(); got != 3 {
			t.Errorf("workers=%d: sccs = %d, want 3", workers, got)
		}
		if got := reg.Counter("splendid_sched_functions_total", "").Value(); got != 3 {
			t.Errorf("workers=%d: functions = %d, want 3", workers, got)
		}
		if got := reg.Gauge("splendid_sched_queue_depth", "").Value(); got != 0 {
			t.Errorf("workers=%d: queue depth after completion = %v, want 0", workers, got)
		}
		util := reg.Histogram("splendid_sched_worker_utilization", "", metrics.RatioBuckets)
		if workers > 1 && util.Count() == 0 {
			t.Errorf("workers=%d: no worker utilization observed", workers)
		}
	}
}

// TestScheduleFunctionsNilMetrics: a nil SchedMetrics records nothing
// and the schedule still runs every function.
func TestScheduleFunctionsNilMetrics(t *testing.T) {
	m, err := ir.Parse(schedMetricsSrc)
	if err != nil {
		t.Fatal(err)
	}
	ran := 0
	if err := passes.ScheduleFunctions(m, 2, func(f *ir.Function) error {
		ran++
		return nil
	}, nil); err != nil {
		t.Fatal(err)
	}
	if ran != 3 {
		t.Fatalf("ran %d functions, want 3", ran)
	}
}
