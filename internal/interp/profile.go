package interp

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// The parallel-region profiler. The paper's evaluation (§6) argues that
// SPLENDID-decompiled programs preserve parallel performance; the
// profiler makes that claim observable at runtime: every
// __kmpc_fork_call records a fork→join region with per-thread work,
// iteration/chunk assignment, and barrier wait, aggregated by microtask
// and exported as JSON (BENCH_runtime.json schema) or as Chrome
// trace_event tracks via a telemetry.Ctx.
//
// Collection is nil-disabled end to end, like telemetry.Ctx: a Machine
// without Options.Profile carries a nil *profiler, workers carry nil
// *threadStat, and every hook is a pointer check — the interpreter's
// per-instruction path pays nothing (tested by
// TestDisabledObservabilityZeroAlloc and benchmarked).

// ProfileSchema identifies the BENCH_runtime.json layout.
const ProfileSchema = "splendid-runtime-profile/v1"

// ThreadProfile is one team thread's totals within a region (summed
// over all forks of that region).
type ThreadProfile struct {
	TID           int   `json:"tid"`
	Steps         int64 `json:"steps"`
	Iterations    int64 `json:"iterations"`
	Chunks        int64 `json:"chunks"`
	BarrierWaits  int64 `json:"barrier_waits"`
	BarrierWaitNS int64 `json:"barrier_wait_ns"`
}

// RegionProfile aggregates every execution of one parallel region
// (keyed by its microtask function).
type RegionProfile struct {
	Microtask string `json:"microtask"`
	Forks     int64  `json:"forks"`
	WallNS    int64  `json:"wall_ns"`
	// SpanSteps sums, over forks, the slowest worker's path — the
	// region's contribution to the work-span simulated clock (without
	// the fork cost). WorkSteps sums all workers' instructions.
	SpanSteps int64 `json:"span_steps"`
	WorkSteps int64 `json:"work_steps"`
	// LoadBalance is mean/max of per-thread Steps: 1.0 is a perfectly
	// even partition, 1/n is one thread doing everything.
	LoadBalance float64         `json:"load_balance"`
	Threads     []ThreadProfile `json:"threads"`
}

// RunProfile is the machine's aggregated runtime profile.
type RunProfile struct {
	Schema     string          `json:"schema"`
	NumThreads int             `json:"threads"`
	Regions    []RegionProfile `json:"regions"`
	// Totals across regions.
	TotalForks     int64 `json:"total_forks"`
	TotalWallNS    int64 `json:"total_wall_ns"`
	TotalSpanSteps int64 `json:"total_span_steps"`
	TotalWorkSteps int64 `json:"total_work_steps"`
}

// WriteJSON writes the profile as indented JSON.
func (p *RunProfile) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}

// LoadBalance is the work-weighted mean of per-region load balance — a
// single figure for "how evenly did this run's parallel work spread".
// Returns 1 when no parallel work was recorded.
func (p *RunProfile) LoadBalance() float64 {
	var weighted float64
	var work int64
	for _, r := range p.Regions {
		weighted += r.LoadBalance * float64(r.WorkSteps)
		work += r.WorkSteps
	}
	if work == 0 {
		return 1
	}
	return weighted / float64(work)
}

// BarrierWaitNS sums barrier wait time across all regions and threads.
func (p *RunProfile) BarrierWaitNS() int64 {
	var total int64
	for _, r := range p.Regions {
		for _, t := range r.Threads {
			total += t.BarrierWaitNS
		}
	}
	return total
}

// threadStat is one worker's slot in one fork's scratch stats. Each
// worker goroutine owns exactly its slot; the parent reads after
// WaitGroup.Wait, so no locking is needed.
type threadStat struct {
	Steps         int64
	Iterations    int64
	Chunks        int64
	BarrierWaits  int64
	BarrierWaitNS int64
}

// noteChunk records a worksharing chunk assignment (static_init or a
// successful dispatch_next pull) on the worker's slot. Nil-safe.
func (ts *threadStat) noteChunk(iters int64) {
	if ts == nil {
		return
	}
	ts.Chunks++
	ts.Iterations += iters
}

// noteBarrier records one barrier arrival and its wait time. Nil-safe.
func (ts *threadStat) noteBarrier(wait time.Duration) {
	if ts == nil {
		return
	}
	ts.BarrierWaits++
	ts.BarrierWaitNS += wait.Nanoseconds()
}

// profiler aggregates fork records per microtask, in first-fork order
// (program order on the forking thread, so output is deterministic).
type profiler struct {
	mu      sync.Mutex
	threads int
	order   []string
	regions map[string]*RegionProfile
}

func newProfiler(threads int) *profiler {
	return &profiler{threads: threads, regions: map[string]*RegionProfile{}}
}

// merge folds one completed fork into the per-microtask aggregate.
// stats holds each worker's slot, spanSteps the slowest worker's path.
func (p *profiler) merge(microtask string, wall time.Duration, spanSteps int64, stats []threadStat) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	r := p.regions[microtask]
	if r == nil {
		r = &RegionProfile{Microtask: microtask, Threads: make([]ThreadProfile, len(stats))}
		for i := range r.Threads {
			r.Threads[i].TID = i
		}
		p.regions[microtask] = r
		p.order = append(p.order, microtask)
	}
	r.Forks++
	r.WallNS += wall.Nanoseconds()
	r.SpanSteps += spanSteps
	for i := range stats {
		if i >= len(r.Threads) {
			break // defensive: team size is fixed per machine
		}
		t := &r.Threads[i]
		t.Steps += stats[i].Steps
		t.Iterations += stats[i].Iterations
		t.Chunks += stats[i].Chunks
		t.BarrierWaits += stats[i].BarrierWaits
		t.BarrierWaitNS += stats[i].BarrierWaitNS
		r.WorkSteps += stats[i].Steps
	}
}

// snapshot builds the exported profile: a deep copy with derived
// load-balance figures, regions in first-fork order.
func (p *profiler) snapshot() *RunProfile {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := &RunProfile{Schema: ProfileSchema, NumThreads: p.threads}
	for _, name := range p.order {
		r := p.regions[name]
		cp := *r
		cp.Threads = append([]ThreadProfile(nil), r.Threads...)
		cp.LoadBalance = loadBalance(cp.Threads)
		out.Regions = append(out.Regions, cp)
		out.TotalForks += cp.Forks
		out.TotalWallNS += cp.WallNS
		out.TotalSpanSteps += cp.SpanSteps
		out.TotalWorkSteps += cp.WorkSteps
	}
	return out
}

// loadBalance is mean/max of per-thread steps (1 when no work ran).
func loadBalance(threads []ThreadProfile) float64 {
	var max, sum int64
	for _, t := range threads {
		sum += t.Steps
		if t.Steps > max {
			max = t.Steps
		}
	}
	if max == 0 || len(threads) == 0 {
		return 1
	}
	mean := float64(sum) / float64(len(threads))
	return mean / float64(max)
}
