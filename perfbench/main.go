// Command perfbench is the repository's benchmark: closed-loop
// workloads driven through driver.Session, every output checked, and a
// separate traced run that breaks the time down by layer. See NOTES.md.
//
//	go run . --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end figures; with --trace 1 the per-layer ones.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/driver"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/polybench"
	"repro/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// setupReps is how many times a run sets up; setup_s is their median,
// so one slow set-up does not move it.
const setupReps = 5

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run")
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "how long to measure")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&cfg.out, "out", "", "directory for result files and traces (none when empty)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloadByName(cfg.workload); !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", cfg.workload)
		return 2
	}
	if trace != 0 && trace != 1 || cfg.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: want --trace 0|1 and --seconds > 0")
		return 2
	}
	cfg.trace = trace == 1
	res, err := execute(cfg, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	res.PeakRSSMB = peakRSSMB()
	if cfg.out != "" {
		if err := res.save(cfg); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	prov, _ := json.Marshal(map[string]any{"provenance": res.Provenance})
	fmt.Fprintln(stdout, string(prov))
	line, _ := json.Marshal(res.line())
	fmt.Fprintln(stdout, string(line))
	return 0
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one invocation's outcome; line() is the result line printed last.
type result struct {
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Metrics    map[string]metric `json:"metrics"`
	Provenance provenance        `json:"provenance"`
	Errors     []string          `json:"errors,omitempty"`
	SelfTimes  []selfRow         `json:"self_times,omitempty"`
	// CPUSeconds is the process's user+system CPU time over the timed
	// loops and WallSeconds their wall time; a wall time that grows
	// while CPU time does not points at waiting, not at slower code.
	CPUSeconds  float64 `json:"cpu_s"`
	WallSeconds float64 `json:"wall_s"`
	// PeakRSSMB is the process's peak resident set (0 where unknown).
	PeakRSSMB float64 `json:"peak_rss_mb"`
	// Samples are the timed ops: start offset in the loop (s) and
	// latency (ms), in order.
	Samples [][2]float64 `json:"samples,omitempty"`

	tracer *tracer
}

func (r *result) line() any {
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics}
}

// save writes the full result under cfg.out, and for a traced run the
// Chrome trace and the self-time table. Traces are tens of megabytes, so
// each workload keeps only its latest.
func (r *result) save(cfg config) error {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	mode := "e2e"
	if cfg.trace {
		mode = "trace"
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	name := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d-%s.json", cfg.workload, cfg.seed, mode))
	if err := os.WriteFile(name, append(b, '\n'), 0o644); err != nil {
		return err
	}
	if r.tracer == nil {
		return nil
	}
	base := filepath.Join(cfg.out, cfg.workload)
	f, err := os.Create(base + ".trace.json")
	if err != nil {
		return err
	}
	if err := r.tracer.tc.WriteTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	var tab strings.Builder
	writeSelfTable(&tab, r.SelfTimes)
	return os.WriteFile(base+".selftime.txt", []byte(tab.String()), 0o644)
}

// loopStats is what one timed loop measured.
type loopStats struct {
	lat     []float64 // per-op latency, ms
	at      []float64 // per-op start offset, s
	wall    time.Duration
	cpu     time.Duration
	alloc   uint64
	failed  int
	errs    []string
	quality quality
}

func (l loopStats) opsPerSec() float64 { return float64(len(l.lat)) / l.wall.Seconds() }

// loop drives one client a pass at a time.
type loop struct {
	c     client
	w     string
	t     *tracer
	start time.Time // offsets in loopStats.at are from here
	st    loopStats
}

// pass runs the client's next pass of ops.
func (l *loop) pass() {
	a0 := heapAllocBytes()
	c0 := cpuTime()
	p0 := time.Now()
	for k := 0; k < l.c.passLen(); k++ {
		i := len(l.st.lat)
		end := l.t.beginOp(i, l.w)
		t0 := time.Now()
		err := l.c.op(i, l.t)
		l.st.lat = append(l.st.lat, ms(time.Since(t0)))
		l.st.at = append(l.st.at, t0.Sub(l.start).Seconds())
		end()
		if err != nil {
			l.st.failed++
			if len(l.st.errs) < 10 {
				l.st.errs = append(l.st.errs, err.Error())
			}
		}
	}
	l.st.wall += time.Since(p0)
	l.st.cpu += cpuTime() - c0
	l.st.alloc += heapAllocBytes() - a0
}

// minSamples is the fewest ops a timed run measures however long they
// take, so op_p90_ms always has at least ten samples beyond it.
const minSamples = 100

// measure runs the loops' clients in a closed loop, taking whole passes
// in turn, until the time budget is spent and each loop has run at least
// minOps ops. Taking turns lets two clients share whatever the host was
// doing meanwhile, so their throughputs compare fairly.
func measure(budget time.Duration, minOps int, loops ...*loop) ([]loopStats, error) {
	start := time.Now()
	for _, l := range loops {
		l.start = start
		l.t.mark()
	}
	for {
		for _, l := range loops {
			l.pass()
		}
		if len(loops[0].st.lat) >= minOps && time.Since(start) >= budget {
			break
		}
	}
	out := make([]loopStats, len(loops))
	for k, l := range loops {
		q, err := l.c.finish()
		if err != nil {
			return nil, err
		}
		l.st.quality = q
		out[k] = l.st
	}
	return out, nil
}

func execute(cfg config, log io.Writer) (*result, error) {
	w, _ := workloadByName(cfg.workload)
	res := &result{Metrics: map[string]metric{}}
	res.Provenance = hostProvenance(".")
	res.Provenance.Workload = w.name
	res.Provenance.Seed = cfg.seed
	res.Provenance.Inputs = inputsOf(w.name, cfg.seed)
	res.Provenance.SessionWorkers = newSession(nil).Jobs()
	body, err := driver.EngineFor("")
	if err != nil {
		return nil, err
	}
	res.Provenance.DefaultEngine = interp.NewMachine(&ir.Module{}, interp.Options{Body: body}).EngineName()

	// Set up setupReps times and keep the last client.
	var setups []float64
	var c client
	for k := 0; k < setupReps; k++ {
		t0 := time.Now()
		c, err = w.setup(cfg.seed, nil)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	fmt.Fprintf(log, "perfbench: %s seed %d: set-up %.3fs (median of %d)\n", w.name, cfg.seed, median(setups), len(setups))

	budget := time.Duration(cfg.seconds * float64(time.Second))
	if !cfg.trace {
		sts, err := measure(budget, minSamples, &loop{c: c, w: w.name})
		if err != nil {
			return nil, err
		}
		st := sts[0]
		res.fill(st)
		v := map[string]float64{
			"setup_s":         median(setups),
			"op_p50_ms":       quantile(st.lat, 0.5),
			"op_p90_ms":       quantile(st.lat, 0.9),
			"ops_per_s":       st.opsPerSec(),
			"alloc_mb_per_op": float64(st.alloc) / 1e6 / float64(len(st.lat)),
			"bleu":            st.quality.bleu,
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{v[m.name], m.unit}
		}
		fmt.Fprintf(log, "perfbench: %d ops (p50/p90 over %d samples), %d failed, error_rate %.4f, repeat share %.3f, fuel skips %d\n",
			len(st.lat), len(st.lat), st.failed, float64(st.failed)/float64(len(st.lat)), st.quality.repeatShare, st.quality.skipped)
		return res, nil
	}

	// Traced run: the set-up client runs untraced and a second client,
	// set up with tracing on and given the same inputs, runs traced; they
	// take turns a pass at a time. The throughput difference is the
	// tracing overhead.
	t := newTracer()
	tc, err := w.setup(cfg.seed, t)
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	sts, err := measure(budget, 1, &loop{c: c, w: w.name}, &loop{c: tc, w: w.name, t: t})
	if err != nil {
		return nil, err
	}
	plain, traced := sts[0], sts[1]
	res.fill(plain)
	res.fill(traced)
	res.tracer = t
	res.layerMetrics(t, traced, plain)
	if w.name == "polybench-exec" {
		sp, err := wallSpeedup()
		if err != nil {
			return nil, err
		}
		res.Metrics["interp.wall_speedup"] = metric{sp, "x"}
	}
	res.SelfTimes = selfTimes(t.events())
	writeSelfTable(log, res.SelfTimes)
	return res, nil
}

// fill adds a timed loop's ops to the result.
func (r *result) fill(st loopStats) {
	r.Attempted += len(st.lat)
	r.Failed += st.failed
	r.Correct = r.Failed == 0
	r.Errors = append(r.Errors, st.errs...)
	r.CPUSeconds += st.cpu.Seconds()
	r.WallSeconds += st.wall.Seconds()
	for i := range st.lat {
		r.Samples = append(r.Samples, [2]float64{st.at[i], st.lat[i]})
	}
}

// inputsOf describes what --seed generated, for the provenance record.
func inputsOf(w string, seed uint64) string {
	switch w {
	case "interactive-edit":
		return fmt.Sprintf("request stream from math/rand seed %d: passes of %d edits (fresh dimensions) and %d repeats per kernel, shuffled", seed, editsPerKernel, repeatsPerKernel)
	case "polybench-exec":
		return fmt.Sprintf("per-pass kernel order from math/rand seed %d over the 16 mini kernels", seed)
	case "difftest-sweep":
		b := (seed + 1) * seedStride
		return fmt.Sprintf("cgen seeds %d, %d, ... (warm-up %d..%d)", b, b+1, b-8, b-1)
	}
	return ""
}

// metricSpec is one reported figure, as BENCHMARK.json lists it.
type metricSpec struct{ name, unit, better string }

// endToEnd are the figures every untraced run reports.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"op_p50_ms", "ms", "lower"},
	{"op_p90_ms", "ms", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"alloc_mb_per_op", "MB", "lower"},
	{"bleu", "score", "higher"},
}

// perLayer are the figures every traced run reports. Times and counts
// are per op; a layer the workload bypasses reads 0.
var perLayer = []metricSpec{
	{"driver.memo_hit_ratio", "ratio", "higher"},
	{"analysis.cache_hit_ratio", "ratio", "higher"},
	{"cfront.parse_ms", "ms", "lower"},
	{"cfront.codegen_ms", "ms", "lower"},
	{"passes.mem2reg_ms", "ms", "lower"},
	{"passes.simplifycfg_ms", "ms", "lower"},
	{"passes.constfold_ms", "ms", "lower"},
	{"passes.dce_ms", "ms", "lower"},
	{"passes.licm_ms", "ms", "lower"},
	{"passes.rotate_ms", "ms", "lower"},
	{"passes.o2_iterations", "count", "lower"},
	{"passes.ir_instrs", "count", "lower"},
	{"parallel.busy_ms", "ms", "lower"},
	{"parallel.loops", "count", "higher"},
	{"splendid.clone-input_ms", "ms", "lower"},
	{"splendid.parallel-detransform_ms", "ms", "lower"},
	{"splendid.mem2reg-promote_ms", "ms", "lower"},
	{"splendid.derotate_ms", "ms", "lower"},
	{"splendid.rematerialize_ms", "ms", "lower"},
	{"splendid.cleanup_ms", "ms", "lower"},
	{"splendid.pragma-gen_ms", "ms", "lower"},
	{"splendid.vargen_ms", "ms", "lower"},
	{"splendid.cfg-gen_ms", "ms", "lower"},
	{"splendid.pragmas", "count", "higher"},
	{"splendid.c_loc", "count", "lower"},
	{"recompile.busy_ms", "ms", "lower"},
	{"interp.exec_ms", "ms", "lower"},
	{"interp.barrier_wait_ms", "ms", "lower"},
	{"interp.load_balance", "ratio", "higher"},
	{"interp.wall_speedup", "x", "higher"},
	{"interp.sim_speedup", "x", "higher"},
	{"interp.steps", "count", "lower"},
	{"difftest.roundtrip_ms", "ms", "lower"},
	{"difftest.golden_ms", "ms", "lower"},
	{"cgen.generate_ms", "ms", "lower"},
	{"difftest.divergences", "count", "lower"},
	{"difftest.fuel_skips", "count", "lower"},
	{"compile.alloc_mb", "MB", "lower"},
	{"splendid.alloc_mb", "MB", "lower"},
	{"recompile.alloc_mb", "MB", "lower"},
	{"interp.alloc_mb", "MB", "lower"},
	{"difftest.alloc_mb", "MB", "lower"},
	{"cgen.alloc_mb", "MB", "lower"},
	{"bench.repeat_share", "ratio", "higher"},
	{"bench.untraced_ops_per_s", "1/s", "higher"},
	{"bench.traced_ops_per_s", "1/s", "higher"},
	{"bench.trace_overhead_pct", "%", "lower"},
}

// spanMetric maps a span the program or the benchmark records to the
// per-layer time it adds to.
var spanMetric = map[[2]string]string{
	{telemetry.CatStage, "cfront-parse"}:   "cfront.parse_ms",
	{telemetry.CatStage, "cfront-codegen"}: "cfront.codegen_ms",
	{telemetry.CatStage, "parallelize"}:    "parallel.busy_ms",
	{telemetry.CatStage, "O2-iteration"}:   "passes.o2_iterations",
	{catLayer, "recompile"}:                "recompile.busy_ms",
	{catLayer, "interp"}:                   "interp.exec_ms",
	{catLayer, "difftest.roundtrip"}:       "difftest.roundtrip_ms",
	{catLayer, "difftest.golden"}:          "difftest.golden_ms",
	{catLayer, "cgen"}:                     "cgen.generate_ms",
}

func (r *result) layerMetrics(t *tracer, traced, plain loopStats) {
	ops := float64(len(traced.lat))
	sum := map[string]float64{}
	for _, e := range t.events() {
		key := spanMetric[[2]string{e.Cat, e.Name}]
		switch {
		case key == "passes.o2_iterations":
			sum[key]++
			continue
		case e.Cat == telemetry.CatPass:
			key = "passes." + e.Name + "_ms"
		case key == "" && e.Cat == telemetry.CatStage:
			// SPLENDID's phases; other stages make keys perLayer does
			// not list, which are never reported.
			key = "splendid." + e.Name + "_ms"
		}
		sum[key] += ms(e.Dur)
	}
	for k, v := range t.counts {
		sum[k] += v
	}
	for layer, b := range t.alloc {
		name := layer
		if layer == "difftest.roundtrip" || layer == "difftest.golden" {
			name = "difftest"
		}
		sum[name+".alloc_mb"] += float64(b) / 1e6
	}
	for _, m := range perLayer {
		r.Metrics[m.name] = metric{sum[m.name] / ops, m.unit}
	}

	set := func(name string, v float64) { r.Metrics[name] = metric{v, r.Metrics[name].Unit} }
	set("driver.memo_hit_ratio", t.memoHitRatio())
	set("analysis.cache_hit_ratio", t.cacheHitRatio())
	set("interp.barrier_wait_ms", sum["interp.barrier_wait_ns"]/1e6/ops)
	set("interp.load_balance", ratio(sum["interp.balance_x_work"], sum["interp.work"]))
	set("interp.sim_speedup", ratio(sum["interp.steps"], sum["interp.sim_steps"]))
	set("difftest.divergences", sum["difftest.divergences"])
	set("difftest.fuel_skips", float64(traced.quality.skipped))
	set("bench.repeat_share", traced.quality.repeatShare)
	set("bench.untraced_ops_per_s", plain.opsPerSec())
	set("bench.traced_ops_per_s", traced.opsPerSec())
	set("bench.trace_overhead_pct", 100*(1-traced.opsPerSec()/plain.opsPerSec()))
}

// wallSpeedup measures the default engine's wall-clock scaling on the
// 16 kernels: total time of their recompiled decompiled C at one thread
// over the total at two, each kernel run alternately at both.
func wallSpeedup() (float64, error) {
	s := newSession(nil)
	var t1, t2 time.Duration
	for _, b := range polybench.All() {
		_, rec, err := compileDecompile(s, nil, b.Name, b.Seq)
		if err != nil {
			return 0, err
		}
		for _, n := range []int{1, threads} {
			body, err := driver.EngineFor("")
			if err != nil {
				return 0, err
			}
			t0 := time.Now()
			if _, err := b.RunWith(rec, interp.Options{NumThreads: n, Body: body}); err != nil {
				return 0, err
			}
			if n == 1 {
				t1 += time.Since(t0)
			} else {
				t2 += time.Since(t0)
			}
		}
	}
	return t1.Seconds() / t2.Seconds(), nil
}
