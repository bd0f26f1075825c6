package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/driver"
	"repro/internal/ir"
	"repro/internal/polybench"
	"repro/internal/telemetry"
)

// Span categories the benchmark records into the shared telemetry.Ctx:
// one "op" span per operation and one "layer" span around every public
// call the benchmark makes into the program. The program's own stage,
// pass, region and thread spans land in the same Ctx and nest under
// them by time.
const (
	catOp    = "bench.op"
	catLayer = "bench.layer"
)

// tracer wraps the calls a workload makes into the program's layers.
// A nil *tracer is the untraced configuration: do just calls f.
type tracer struct {
	tc *telemetry.Ctx
	op int // id of the open op span

	// alloc is the heap allocated inside each layer's spans, by layer.
	alloc map[string]uint64
	// counts are per-op figures a workload reports (parallel.loops,
	// splendid.pragmas, interp.steps, ...), summed over the traced ops.
	counts map[string]float64
	// sessions are the driver sessions built for traced ops; their
	// analysis-cache statistics are summed at the end.
	sessions []*driver.Session

	// The traced window starts at mark: spans, memo probes and cache
	// statistics from set-up before it are left out.
	since  time.Duration
	memo0  [2]int64
	cache0 map[*driver.Session]analysis.Stats
}

func newTracer() *tracer {
	return &tracer{tc: telemetry.New(), alloc: map[string]uint64{}, counts: map[string]float64{}}
}

// mark opens the traced window.
func (t *tracer) mark() {
	if t == nil {
		return
	}
	t.since = t.tc.Now()
	t.memo0 = [2]int64{t.tc.Counter("driver.memo.hits"), t.tc.Counter("driver.memo.misses")}
	t.cache0 = map[*driver.Session]analysis.Stats{}
	for _, s := range t.sessions {
		t.cache0[s] = s.AnalysisStats()
	}
}

// events are the spans recorded inside the traced window.
func (t *tracer) events() []telemetry.Event {
	var out []telemetry.Event
	for _, e := range t.tc.Events() {
		if e.Start >= t.since {
			out = append(out, e)
		}
	}
	return out
}

// memoHitRatio is the share of driver memo probes in the window that hit.
func (t *tracer) memoHitRatio() float64 {
	hits := t.tc.Counter("driver.memo.hits") - t.memo0[0]
	misses := t.tc.Counter("driver.memo.misses") - t.memo0[1]
	return ratio(float64(hits), float64(hits+misses))
}

// cacheHitRatio is the share of analysis-cache queries in the window
// that hit, over every session the traced ops used.
func (t *tracer) cacheHitRatio() float64 {
	var hits, misses int64
	for _, s := range t.sessions {
		st, base := s.AnalysisStats(), t.cache0[s]
		hits += st.Hits - base.Hits
		misses += st.Misses - base.Misses
	}
	return ratio(float64(hits), float64(hits+misses))
}

// ratio is num/den, or 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// ctx is the telemetry context to hand to the program (nil untraced).
func (t *tracer) ctx() *telemetry.Ctx {
	if t == nil {
		return nil
	}
	return t.tc
}

// beginOp opens the span of op i; the returned func closes it.
func (t *tracer) beginOp(i int, workload string) func() {
	if t == nil {
		return func() {}
	}
	t.op = i
	sp := t.tc.StartSpan(catOp, "op", fmt.Sprintf("op=%d workload=%s", i, workload))
	return sp.End
}

// do runs f inside a span named after the layer it calls into. The
// span's detail carries the op id and its parent (the op span).
func (t *tracer) do(layer string, f func() error) error {
	if t == nil {
		return f()
	}
	a0 := heapAllocBytes()
	sp := t.tc.StartSpan(catLayer, layer, fmt.Sprintf("op=%d parent=op", t.op))
	err := f()
	sp.End()
	t.alloc[layer] += heapAllocBytes() - a0
	return err
}

// add accumulates a per-op count.
func (t *tracer) add(name string, v float64) {
	if t != nil {
		t.counts[name] += v
	}
}

// addIR records the size of one optimized, parallelized module and the
// loops the parallelizer outlined in it.
func (t *tracer) addIR(m *ir.Module, loops int) {
	n := 0
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			n += len(b.Instrs)
		}
	}
	t.add("passes.ir_instrs", float64(n))
	t.add("parallel.loops", float64(loops))
}

// addC records the size and pragma count of one emitted C file.
func (t *tracer) addC(c string) {
	if t == nil {
		return
	}
	t.add("splendid.pragmas", float64(polybench.PragmaCount(c)))
	t.add("splendid.c_loc", float64(loc(c)))
}

// selfRow is one line of the self-time table.
type selfRow struct {
	Name    string  `json:"name"`
	Cat     string  `json:"cat"`
	Calls   int     `json:"calls"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// catRank orders categories from outermost to innermost, breaking ties
// between spans with identical intervals.
var catRank = map[string]int{catOp: 0, catLayer: 1, telemetry.CatStage: 2, telemetry.CatRegion: 3, telemetry.CatPass: 4}

// selfTimes computes each span name's self time: its duration minus the
// part of its interval covered by the spans nested inside it. Only the
// main track counts (per-thread interpreter spans run concurrently with
// their region). Nesting is by interval containment; spans of one name,
// and pass spans among themselves, are never parents of each other,
// because the program runs them concurrently on its worker pool.
func selfTimes(evs []telemetry.Event) []selfRow {
	var main []telemetry.Event
	for _, e := range evs {
		if e.PID == 0 && e.TID <= 1 {
			main = append(main, e)
		}
	}
	// Outer spans first: earlier start, then longer, then outer category.
	sort.Slice(main, func(i, j int) bool {
		a, b := main[i], main[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Dur != b.Dur {
			return a.Dur > b.Dur
		}
		return catRank[a.Cat] < catRank[b.Cat]
	})
	covered := make([]time.Duration, len(main))
	// stack holds indices of open ancestors; each event's nearest eligible
	// ancestor gets its duration subtracted. Overlapping siblings from
	// concurrent workers can make the cover exceed the parent; clamp.
	var stack []int
	for i, e := range main {
		end := e.Start + e.Dur
		for len(stack) > 0 {
			p := main[stack[len(stack)-1]]
			if e.Start < p.Start+p.Dur {
				break
			}
			stack = stack[:len(stack)-1]
		}
		for k := len(stack) - 1; k >= 0; k-- {
			p := main[stack[k]]
			if end <= p.Start+p.Dur && p.Name != e.Name && !(p.Cat == telemetry.CatPass && e.Cat == telemetry.CatPass) {
				covered[stack[k]] += e.Dur
				break
			}
		}
		stack = append(stack, i)
	}
	rows := map[string]*selfRow{}
	for i, e := range main {
		name := e.Name
		if e.Cat == telemetry.CatRegion {
			name = "(parallel regions)" // one row, not one per outlined function
		}
		key := e.Cat + "\x00" + name
		r := rows[key]
		if r == nil {
			r = &selfRow{Name: name, Cat: e.Cat}
			rows[key] = r
		}
		self := e.Dur - covered[i]
		if self < 0 {
			self = 0
		}
		r.Calls++
		r.TotalMS += ms(e.Dur)
		r.SelfMS += ms(self)
	}
	out := make([]selfRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfMS != out[j].SelfMS {
			return out[i].SelfMS > out[j].SelfMS
		}
		return out[i].Name < out[j].Name
	})
	return out
}

func writeSelfTable(w io.Writer, rows []selfRow) {
	fmt.Fprintf(w, "%-28s %-12s %8s %12s %12s\n", "span", "category", "calls", "total ms", "self ms")
	for _, r := range rows {
		fmt.Fprintf(w, "%-28s %-12s %8d %12.2f %12.2f\n", r.Name, strings.TrimPrefix(r.Cat, "bench."), r.Calls, r.TotalMS, r.SelfMS)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
