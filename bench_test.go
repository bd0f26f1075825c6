package repro_test

// One benchmark per table and figure in the paper's evaluation. Each
// bench regenerates its table/figure through the same code path as
// cmd/experiments and reports the headline quantity as a custom metric,
// so `go test -bench=.` reproduces the entire evaluation.

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"sort"
	"testing"

	"repro/internal/driver"
	"repro/internal/experiments"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/passes"
	"repro/internal/polybench"
	"repro/internal/splendid"
	"repro/internal/telemetry"
)

var benchCfg = experiments.Config{Threads: 28, Reps: 1}

func runExperiment(b *testing.B, name string) {
	e := experiments.ByName(name)
	if e == nil {
		b.Fatalf("experiment %q not registered", name)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(io.Discard, benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1Features(b *testing.B)   { runExperiment(b, "table1") }
func BenchmarkTable2Techniques(b *testing.B) { runExperiment(b, "table2") }

func BenchmarkTable3Collaboration(b *testing.B) {
	var rows []experiments.Table3Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Table3(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	var compiler, eliminated int
	for _, r := range rows {
		compiler += r.Compiler
		eliminated += r.Eliminated
	}
	b.ReportMetric(float64(compiler), "compiler-loops")
	b.ReportMetric(float64(eliminated), "eliminated-manual-loops")
}

func BenchmarkTable4LoC(b *testing.B) {
	var rows []experiments.Table4Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Table4(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	var splendidLoC, refLoC int
	for _, r := range rows {
		splendidLoC += r.Splendid
		refLoC += r.Ref
	}
	b.ReportMetric(float64(splendidLoC)/float64(refLoC), "splendid-vs-ref-loc")
}

func BenchmarkFig6Portability(b *testing.B) {
	var rows []experiments.Fig6Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Fig6(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	var polly, gcc []float64
	for _, r := range rows {
		polly = append(polly, r.Polly)
		gcc = append(gcc, r.Gcc)
	}
	b.ReportMetric(geomean(polly), "polly-geomean-speedup")
	b.ReportMetric(geomean(gcc), "splendid-gcc-geomean-speedup")
}

func BenchmarkFig7BLEU(b *testing.B) {
	var rows []experiments.Fig7Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Fig7(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	var full, rellic, ghidra float64
	for _, r := range rows {
		full += r.Full
		rellic += r.Rellic
		ghidra += r.Ghidra
	}
	n := float64(len(rows))
	b.ReportMetric(full/n, "splendid-bleu")
	b.ReportMetric(full/rellic, "vs-rellic-x")
	b.ReportMetric(full/ghidra, "vs-ghidra-x")
}

func BenchmarkFig8VarNames(b *testing.B) {
	var rows []experiments.Fig8Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Fig8(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	var tot, named int
	for _, r := range rows {
		tot += r.Declared
		named += r.Named
	}
	b.ReportMetric(100*float64(named)/float64(tot), "pct-names-reconstructed")
}

func BenchmarkFig9Collaboration(b *testing.B) {
	var rows []experiments.Fig9Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Fig9(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	var man, comp, collab []float64
	for _, r := range rows {
		man = append(man, r.ManualOnly)
		comp = append(comp, r.CompilerOnly)
		collab = append(collab, r.Collaborative)
	}
	b.ReportMetric(geomean(man), "manual-geomean")
	b.ReportMetric(geomean(comp), "compiler-geomean")
	b.ReportMetric(geomean(collab), "collab-geomean")
}

func BenchmarkFig11BLEUMechanics(b *testing.B) { runExperiment(b, "fig11") }

// BenchmarkAblation quantifies each design choice's BLEU contribution
// (the de-transformation trade-offs DESIGN.md calls out).
func BenchmarkAblation(b *testing.B) {
	var rows []experiments.AblationRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Ablation(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows[1:] {
		b.ReportMetric(rows[0].BLEU-r.BLEU, "bleu-drop"+metricName(r.Name))
	}
}

func metricName(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == ' ' || c == '-' {
			c = '_'
		}
		out = append(out, c)
	}
	return string(out)
}

// BenchmarkDecompileSuite measures raw decompilation throughput: all 16
// benchmarks through the full SPLENDID pipeline.
func BenchmarkDecompileSuite(b *testing.B) {
	s := driver.New(driver.Options{})
	var mods []*ir.Module
	for _, bench := range polybench.All() {
		m, _, err := bench.CompileParallelIR(s)
		if err != nil {
			b.Fatal(err)
		}
		mods = append(mods, m)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, bench := range polybench.All() {
			if _, err := splendid.Decompile(mods[j], splendid.Full(), passes.RunConfig{}); err != nil {
				b.Fatalf("%s: %v", bench.Name, err)
			}
		}
	}
}

// BenchmarkRuntimeProfile runs the PolyBench suite under the
// interpreter's runtime observability — the parallel-region profiler and
// the dynamic DOALL conflict checker — and writes two artifacts at the
// repo root:
//
//   - BENCH_runtime.json: the per-kernel parallel profile table
//     (threads × speedup × load balance, embedding each kernel's full
//     per-region, per-thread profile under the
//     splendid-runtime-profile/v1 schema), plus the schedules section —
//     the triangular imbalanced kernel under every schedule kind, each
//     row the median of scheduleSamples runs, the evidence benchgate
//     uses to pin guided's load-balance win over static;
//   - BENCH_runtime_trace.json: a Chrome trace_event file of one
//     profiled kernel execution on the compile timeline, one track per
//     team thread (load it in chrome://tracing or Perfetto).
//
// Run via `make bench-runtime` (or -bench=RuntimeProfile -benchtime=1x).
// POLYBENCH_SIZE=mini|std|large scales the timed problem dimensions
// (make bench-runtime uses std, where the tree-vs-bytecode wall
// comparison is meaningful; the default stays mini for CI latency).
func BenchmarkRuntimeProfile(b *testing.B) {
	size, err0 := polybench.ParseSize(os.Getenv("POLYBENCH_SIZE"))
	if err0 != nil {
		b.Fatal(err0)
	}
	cfg := experiments.Config{Threads: 4, Reps: 1, Size: size}
	var rows []experiments.RuntimeRow
	var srows []experiments.ScheduleRow
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err = experiments.RuntimeProfile(cfg)
		if err != nil {
			b.Fatal(err)
		}
		runs := make([][]experiments.ScheduleRow, scheduleSamples)
		for k := range runs {
			if runs[k], err = experiments.ScheduleBalance(cfg); err != nil {
				b.Fatal(err)
			}
		}
		srows = medianScheduleRows(runs)
	}
	b.StopTimer()

	var speedups, vmGains []float64
	var conflicts int64
	for _, r := range rows {
		if r.Speedup > 0 {
			speedups = append(speedups, r.Speedup)
		}
		if r.EngineSpeedup > 0 {
			vmGains = append(vmGains, r.EngineSpeedup)
		}
		conflicts += r.Conflicts
	}
	b.ReportMetric(geomean(speedups), "speedup-geomean")
	b.ReportMetric(geomean(vmGains), "bytecode-vs-tree-geomean")
	b.ReportMetric(float64(conflicts), "conflicts")

	report := struct {
		Schema        string                    `json:"schema"`
		Threads       int                       `json:"threads"`
		Size          string                    `json:"size"`
		EngineSpeedup float64                   `json:"bytecode_vs_tree_geomean"`
		Kernels       []experiments.RuntimeRow  `json:"kernels"`
		Schedules     []experiments.ScheduleRow `json:"schedules"`
	}{interp.ProfileSchema, cfg.Threads, string(size), geomean(vmGains), rows, srows}
	j, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_runtime.json", append(j, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}

	// Trace artifact: one kernel compiled and executed with a telemetry
	// context, so compile stages and runtime thread tracks share the file.
	tc := telemetry.New()
	s := driver.New(driver.Options{Telemetry: tc})
	bench := polybench.All()[0]
	m, _, err := s.ParallelIR(bench.Name, bench.Seq)
	if err != nil {
		b.Fatal(err)
	}
	mach, err := bench.RunWith(m, interp.Options{
		NumThreads: cfg.Threads, Profile: true, Telemetry: tc,
	})
	if err != nil {
		b.Fatal(err)
	}
	_ = mach
	f, err := os.Create("BENCH_runtime_trace.json")
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	if err := tc.WriteTrace(f); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTelemetryDisabled measures the telemetry API on the disabled
// (nil-Ctx) path — the cost every pass invocation pays when no -time-*
// flag is given. Guarded by ReportAllocs: it must stay at 0 allocs/op
// (see TestDisabledPathAllocs in internal/telemetry for the hard assert).
func BenchmarkTelemetryDisabled(b *testing.B) {
	var tc *telemetry.Ctx
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tc.StartPass("licm", "kernel")
		tc.Count("licm.hoisted", 3)
		tc.Remarkf("licm", "kernel", "loop", 3, "hoisted %d", 3)
		sp.EndPass(-3, true)
	}
}

// scheduleSamples is how many ScheduleBalance runs each recorded
// schedules row is the median of. guided's and auto's speedup and load
// balance depend on which worker wins each chunk race, so a single run
// can land far from the typical one. Odd, so the median is a sample.
const scheduleSamples = 5

// medianScheduleRows folds repeated ScheduleBalance runs into one row per
// schedule kind, taking the median of each measured field on its own.
func medianScheduleRows(runs [][]experiments.ScheduleRow) []experiments.ScheduleRow {
	out := append([]experiments.ScheduleRow(nil), runs[0]...)
	for i := range out {
		var speedup, balance, chunks []float64
		for _, run := range runs {
			speedup = append(speedup, run[i].Speedup)
			balance = append(balance, run[i].LoadBalance)
			chunks = append(chunks, float64(run[i].Chunks))
		}
		out[i].Speedup = median(speedup)
		out[i].LoadBalance = median(balance)
		out[i].Chunks = int64(median(chunks))
	}
	return out
}

func median(xs []float64) float64 {
	sort.Float64s(xs)
	return xs[len(xs)/2]
}

func geomean(xs []float64) float64 {
	prod := 1.0
	for _, x := range xs {
		prod *= x
	}
	if prod <= 0 || len(xs) == 0 {
		return 0
	}
	return math.Pow(prod, 1/float64(len(xs)))
}
