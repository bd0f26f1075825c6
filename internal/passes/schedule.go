package passes

import (
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/ir"
	"repro/internal/metrics"
)

// SchedMetrics carries the function scheduler's live metric handles:
// SCCs and functions dispatched, the runnable-queue depth, and the
// per-worker busy/wall utilization of each parallel schedule. A nil
// *SchedMetrics disables all of it — every hook is a pointer check, so
// the serial fast path and unobserved pools pay nothing.
type SchedMetrics struct {
	sccs        *metrics.Counter
	funcs       *metrics.Counter
	queueDepth  *metrics.Gauge
	utilization *metrics.Histogram
}

// NewSchedMetrics acquires the scheduler's metric handles from r
// (splendid_sched_*). Nil-safe: a nil registry yields nil metrics.
func NewSchedMetrics(r *metrics.Registry) *SchedMetrics {
	if r == nil {
		return nil
	}
	return &SchedMetrics{
		sccs:  r.Counter("splendid_sched_sccs_total", "call-graph SCCs dispatched by the function scheduler"),
		funcs: r.Counter("splendid_sched_functions_total", "functions processed by the function scheduler"),
		queueDepth: r.Gauge("splendid_sched_queue_depth",
			"SCCs currently runnable and waiting for a scheduler worker"),
		utilization: r.Histogram("splendid_sched_worker_utilization",
			"per-worker busy/wall ratio of one parallel function schedule", metrics.RatioBuckets),
	}
}

func (sm *SchedMetrics) noteSCC(funcs int) {
	if sm == nil {
		return
	}
	sm.sccs.Inc()
	sm.funcs.Add(int64(funcs))
}

func (sm *SchedMetrics) queueAdd(d int64) {
	if sm == nil {
		return
	}
	sm.queueDepth.Add(float64(d))
}

// ScheduleFunctions runs work once on every defined function of m.
//
// With workers <= 1 it is a plain loop in bottom-up call-graph SCC order
// (callees before callers — the order an inliner wants). With workers > 1
// the SCCs are dispatched across a worker pool with dependency counting:
// an SCC becomes runnable only when every SCC it calls into has finished,
// and the functions inside one SCC run on a single worker in module
// order. At most one worker ever touches a function, which is what makes
// in-place IR mutation and unsynchronized analysis reuse safe.
//
// Determinism: work mutates only its own function, every function is
// processed exactly once, and callees are complete before callers start
// in both modes — so the final module state is independent of worker
// count and interleaving. Errors are collected per SCC and the first one
// in SCC order is returned, regardless of which worker hit it first; all
// scheduled work still runs to completion.
//
// sm records scheduler metrics: each dispatched SCC and function counts
// once, the runnable-queue gauge tracks SCCs ready but not yet claimed by
// a worker, and each pool worker's busy/wall ratio is observed at pool
// shutdown. sm is typically shared across many schedules (one per driver
// session); nil records nothing and adds no overhead.
func ScheduleFunctions(m *ir.Module, workers int, work func(*ir.Function) error, sm *SchedMetrics) error {
	sccs := analysis.BottomUpSCCs(m)
	if workers > len(sccs) {
		workers = len(sccs)
	}
	if workers <= 1 {
		var firstErr error
		for _, scc := range sccs {
			sm.noteSCC(len(scc))
			for _, f := range scc {
				if err := work(f); err != nil && firstErr == nil {
					firstErr = err
				}
			}
		}
		return firstErr
	}

	idx := map[*ir.Function]int{}
	for i, scc := range sccs {
		for _, f := range scc {
			idx[f] = i
		}
	}
	g := analysis.CallGraph(m)
	dependents := make([][]int, len(sccs)) // callee SCC -> caller SCCs waiting on it
	waiting := make([]int, len(sccs))      // caller SCC -> unfinished callee SCCs
	for i, scc := range sccs {
		deps := map[int]bool{}
		for _, f := range scc {
			for _, callee := range g[f] {
				if j := idx[callee]; j != i && !deps[j] {
					deps[j] = true
					dependents[j] = append(dependents[j], i)
				}
			}
		}
		waiting[i] = len(deps)
	}

	// ready is buffered to hold every SCC, so sends never block and the
	// completion handler can run under the mutex.
	ready := make(chan int, len(sccs))
	push := func(i int) {
		sm.queueAdd(1)
		ready <- i
	}
	var mu sync.Mutex
	errs := make([]error, len(sccs))
	remaining := len(sccs)
	for i := range sccs {
		if waiting[i] == 0 {
			push(i)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Utilization = busy/wall per worker; the clock only runs when
			// metrics are attached.
			var wallStart time.Time
			var busy time.Duration
			if sm != nil {
				wallStart = time.Now()
			}
			for i := range ready {
				sm.queueAdd(-1)
				var t0 time.Time
				if sm != nil {
					t0 = time.Now()
				}
				var err error
				sm.noteSCC(len(sccs[i]))
				for _, f := range sccs[i] {
					if e := work(f); e != nil && err == nil {
						err = e
					}
				}
				if sm != nil {
					busy += time.Since(t0)
				}
				mu.Lock()
				errs[i] = err
				remaining--
				for _, d := range dependents[i] {
					waiting[d]--
					if waiting[d] == 0 {
						push(d)
					}
				}
				if remaining == 0 {
					close(ready)
				}
				mu.Unlock()
			}
			if sm != nil {
				if wall := time.Since(wallStart); wall > 0 {
					sm.utilization.Observe(busy.Seconds() / wall.Seconds())
				}
			}
		}()
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}
