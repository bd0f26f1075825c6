// Package driver is the unified compilation driver: a Session owns the
// whole source→IR→optimize→parallelize→decompile→emit pipeline and is
// the single entry point the CLIs (ccomp, splendid, experiments) and the
// experiments harness construct pipelines through.
//
// A Session carries three pieces of shared state across stage calls:
//
//   - an analysis manager (internal/analysis.Manager) caching dominator
//     trees, post-dominator trees, and loop forests per function, keyed
//     on content hashes, so passes stop recomputing them;
//   - a worker pool configuration (Jobs) driving the function scheduler:
//     function-local stages run in bottom-up call-graph SCC order across
//     workers, with module stages as barriers, and results byte-identical
//     to serial execution at any worker count;
//   - a memo of compiled pipeline prefixes: OptimizedIR and ParallelIR
//     cache the frontend+O2(+parallelize) result per (name, source) pair
//     as printed IR text, so the experiments harness forks only the
//     SPLENDID config tail instead of recompiling the shared prefix for
//     every ablation variant;
//   - a memo of decompilations: Decompile and DecompileVariant cache the
//     emitted C (and SPLENDID's Stats) per (printed input IR, variant),
//     so a programmer re-submitting a source the session has already
//     served pays for one print of the module instead of the whole
//     decompiler. RoundTrip bypasses it: its sources never repeat.
//
// Sessions are safe for concurrent use: independent modules may flow
// through the stages from multiple goroutines (the analysis cache and
// memos are internally locked, and the scheduler guarantees at most one
// worker per function).
package driver

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/analysis"
	"repro/internal/cast"
	"repro/internal/cbackend"
	"repro/internal/cfront"
	"repro/internal/decomp/ghidra"
	"repro/internal/decomp/rellic"
	"repro/internal/evlog"
	"repro/internal/ir"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/passes"
	"repro/internal/splendid"
	"repro/internal/telemetry"
)

// Options configures a Session.
type Options struct {
	// Jobs is the function-level parallelism degree: 0 means GOMAXPROCS,
	// 1 means fully serial, N>1 runs function-local stages on N workers.
	Jobs int
	// VerifyEach runs ir.Verify between driver stages and after every
	// pass, failing with the offending pass or stage name.
	VerifyEach bool
	// Telemetry receives stage/pass spans, counters, and remarks from
	// every stage this session runs (nil disables collection).
	Telemetry *telemetry.Ctx
	// Metrics receives live counters and histograms from every layer the
	// session touches — driver jobs and stage latencies, analysis-cache
	// behaviour, scheduler utilization, interpreter activity — for
	// scraping via the debug server. Nil disables collection.
	Metrics *metrics.Registry
	// JobHistoryLimit is the flight recorder's capacity: how many recent
	// pipeline jobs /debug/jobs retains. 0 means the default (64);
	// negative disables recording entirely.
	JobHistoryLimit int
	// Events receives structured lifecycle records (job start/done/fail)
	// from every job the session runs — the narrative counterpart of the
	// metrics counters, served at /debug/events. Nil disables logging.
	Events *evlog.Log
}

// defaultJobHistory is the flight-recorder capacity when Options leaves
// JobHistoryLimit at zero.
const defaultJobHistory = 64

// Session is one compilation pipeline instance. The zero value is not
// useful; use New.
type Session struct {
	opts Options
	jobs int
	am   *analysis.Manager

	met sessionMetrics
	rec *FlightRecorder
	ev  *evlog.Scope

	mu         sync.Mutex
	memo       map[uint64]*memoEntry
	decompiled map[decompileKey]splendid.Result
	// flushed tracks what FlushCounters already reported, so repeated
	// flushes emit deltas rather than double-counting.
	flushed analysis.Stats
}

// memoEntry caches one compiled pipeline prefix as printed IR text.
// Text, not modules: callers receive a private reparse, so mutating a
// returned module can never corrupt the cache (the same isolation idiom
// as the decompiler's clone-by-reparse).
type memoEntry struct {
	optimized string           // IR text after frontend + O2
	parallel  string           // IR text after frontend + O2 + parallelize
	parRes    *parallel.Result // result snapshot for the parallel prefix
}

// decompileKey identifies one memoized decompilation: the hash of the
// printed input IR and the variant, either a SPLENDID Config or (when
// baseline is set) a baseline decompiler's name. The printed text is
// everything a decompiler sees — SPLENDID starts by reparsing it — and
// output does not depend on the worker count, so equal keys mean
// byte-identical C, up to the same 64-bit hash trade the prefix memo
// and the analysis cache make.
type decompileKey struct {
	ir       uint64
	cfg      splendid.Config
	baseline string
}

// New returns a Session with its own analysis cache and memos.
func New(opts Options) *Session {
	jobs := opts.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	history := opts.JobHistoryLimit
	if history == 0 {
		history = defaultJobHistory
	}
	am := analysis.NewManager()
	am.SetMetrics(opts.Metrics)
	return &Session{
		opts:       opts,
		jobs:       jobs,
		am:         am,
		met:        newSessionMetrics(opts.Metrics),
		rec:        newFlightRecorder(history),
		ev:         opts.Events.Scope("driver"),
		memo:       map[uint64]*memoEntry{},
		decompiled: map[decompileKey]splendid.Result{},
	}
}

// Recorder exposes the session's flight recorder for mounting on a
// debug server (nil when recording is disabled; debugserv handles a
// typed-nil source).
func (s *Session) Recorder() *FlightRecorder { return s.rec }

// Metrics returns the session's metrics registry (possibly nil).
func (s *Session) Metrics() *metrics.Registry { return s.opts.Metrics }

// Jobs reports the resolved worker count.
func (s *Session) Jobs() int { return s.jobs }

// Telemetry returns the session's telemetry context (possibly nil).
func (s *Session) Telemetry() *telemetry.Ctx { return s.opts.Telemetry }

// AnalysisStats reports the session's analysis-cache behaviour.
func (s *Session) AnalysisStats() analysis.Stats {
	return s.am.Stats()
}

// FlushCounters records the session's cache statistics as telemetry
// counters (analysis.cache.hits/misses/rekeys), so -time-passes style
// reports include the caching win. Safe to call multiple times: counters
// record the delta since the previous flush.
func (s *Session) FlushCounters() {
	tc := s.opts.Telemetry
	if !tc.Enabled() {
		return
	}
	st := s.am.Stats()
	s.mu.Lock()
	d := analysis.Stats{
		Hits:          st.Hits - s.flushed.Hits,
		Misses:        st.Misses - s.flushed.Misses,
		Rekeys:        st.Rekeys - s.flushed.Rekeys,
		Invalidations: st.Invalidations - s.flushed.Invalidations,
	}
	s.flushed = st
	s.mu.Unlock()
	tc.Count("analysis.cache.hits", int(d.Hits))
	tc.Count("analysis.cache.misses", int(d.Misses))
	tc.Count("analysis.cache.rekeys", int(d.Rekeys))
	tc.Count("analysis.cache.invalidations", int(d.Invalidations))
}

// verify applies the between-stage check when the session asks for it.
func (s *Session) verify(m *ir.Module, stage string) error {
	if !s.opts.VerifyEach {
		return nil
	}
	if err := m.Verify(); err != nil {
		return fmt.Errorf("verify-each: stage %q broke the module: %w", stage, err)
	}
	return nil
}

// Frontend compiles C source into unoptimized IR.
func (s *Session) Frontend(src, name string) (*ir.Module, error) {
	return s.frontend(src, name, nil)
}

func (s *Session) frontend(src, name string, jb *jobBuilder) (*ir.Module, error) {
	sp := s.startStage(jb, "frontend")
	defer sp.end()
	m, err := cfront.CompileSource(src, name, s.opts.Telemetry)
	if err != nil {
		return nil, err
	}
	if err := s.verify(m, "frontend"); err != nil {
		return nil, err
	}
	return m, nil
}

// Optimize runs the O2 fixed point on m in place, with cached analyses
// and the session's worker pool.
func (s *Session) Optimize(m *ir.Module) error {
	return s.optimize(m, nil)
}

func (s *Session) optimize(m *ir.Module, jb *jobBuilder) error {
	sp := s.startStage(jb, "optimize")
	defer sp.end()
	if err := passes.Optimize(m, s.runConfig()); err != nil {
		return err
	}
	return s.verify(m, "optimize")
}

func (s *Session) runConfig() passes.RunConfig {
	return passes.RunConfig{
		Analyses:   s.am,
		Telemetry:  s.opts.Telemetry,
		VerifyEach: s.opts.VerifyEach,
		Workers:    s.jobs,
		Metrics:    s.opts.Metrics,
	}
}

// Parallelize converts DOALL loops of m into outlined microtasks in
// place. It is a module-level barrier stage: it adds outlined functions
// and rewrites callers, so the analysis cache is invalidated wholesale.
func (s *Session) Parallelize(m *ir.Module) (*parallel.Result, error) {
	return s.parallelize(m, nil)
}

func (s *Session) parallelize(m *ir.Module, jb *jobBuilder) (*parallel.Result, error) {
	sp := s.startStage(jb, "parallelize")
	defer sp.end()
	res := parallel.Parallelize(m, parallel.Options{
		Telemetry: s.opts.Telemetry,
		Analyses:  s.am,
	})
	s.am.InvalidateAll()
	if err := s.verify(m, "parallelize"); err != nil {
		return nil, err
	}
	return res, nil
}

// Decompile translates parallel IR into OpenMP C under cfg, fanning the
// per-function detransformer and emission stages across the session's
// workers. The input module is not modified. The decompiler works on a
// clone with its own short-lived analysis cache, so concurrent Decompile
// calls on one session never contend on entries. Results are memoized
// per (printed m, cfg); the returned Result is private to the caller.
func (s *Session) Decompile(m *ir.Module, cfg splendid.Config) (*splendid.Result, error) {
	return s.memoDecompile(m, decompileKey{cfg: cfg})
}

// decompile runs the decompiler key names on m, bypassing the memo.
func (s *Session) decompile(m *ir.Module, key decompileKey, jb *jobBuilder) (*splendid.Result, error) {
	sp := s.startStage(jb, "decompile")
	defer sp.end()
	if key.baseline != "" {
		return &splendid.Result{C: cast.Print(baselines[key.baseline](m))}, nil
	}
	rc := s.runConfig()
	rc.Analyses = analysis.NewManager()
	return splendid.Decompile(m, key.cfg, rc)
}

// DecompileVariant decompiles m under a named variant: the SPLENDID
// configurations ("full", "portable", "v1") or the baseline decompilers
// ("cbackend", "rellic", "ghidra"). The C text is returned for every
// variant; Stats only for SPLENDID ones (nil otherwise). Every variant
// goes through the session's decompile memo.
func (s *Session) DecompileVariant(m *ir.Module, variant string) (string, *splendid.Stats, error) {
	key := decompileKey{}
	switch variant {
	case "full":
		key.cfg = splendid.Full()
	case "portable":
		key.cfg = splendid.Portable()
	case "v1":
		key.cfg = splendid.V1()
	default:
		if baselines[variant] == nil {
			return "", nil, fmt.Errorf("unknown variant %q", variant)
		}
		key.baseline = variant
	}
	res, err := s.memoDecompile(m, key)
	if err != nil {
		return "", nil, err
	}
	if key.baseline != "" {
		return res.C, nil, nil
	}
	return res.C, &res.Stats, nil
}

// memoDecompile runs one decompile job through the decompile memo,
// filling in key.ir from m. A hit costs one print of m; a miss runs the
// decompiler and caches its result. Errors are never cached.
func (s *Session) memoDecompile(m *ir.Module, key decompileKey) (*splendid.Result, error) {
	jb := s.startJob("decompile", m.Name)
	key.ir = ir.HashBytes(m.Print())
	jb.source(key.ir)
	s.mu.Lock()
	res, hit := s.decompiled[key]
	s.mu.Unlock()
	s.memoLookup(jb, "decompile", hit)
	if hit {
		jb.finish(nil)
		return &res, nil
	}
	out, err := s.decompile(m, key, jb)
	if err == nil {
		s.mu.Lock()
		s.decompiled[key] = *out
		s.mu.Unlock()
	}
	jb.finish(err)
	return out, err
}

// baselines are the comparison decompilers DecompileVariant accepts by
// name.
var baselines = map[string]func(*ir.Module) *cast.File{
	"cbackend": cbackend.Decompile,
	"rellic":   rellic.Decompile,
	"ghidra":   ghidra.Decompile,
}

// memoKey derives the prefix-memo key for a (name, source) pair.
func memoKey(name, src string) uint64 {
	return ir.HashBytes(name + "\x00" + src)
}

// OptimizedIR returns the frontend+O2 compilation of src, memoized per
// (name, src): the first call compiles, later calls reparse the cached IR
// text. The returned module is private to the caller.
func (s *Session) OptimizedIR(name, src string) (*ir.Module, error) {
	jb := s.startJob("compile", name)
	jb.source(ir.HashBytes(src))
	m, err := s.optimizedIR(name, src, jb)
	jb.finish(err)
	return m, err
}

func (s *Session) optimizedIR(name, src string, jb *jobBuilder) (*ir.Module, error) {
	key := memoKey(name, src)
	s.mu.Lock()
	e := s.memo[key]
	if e != nil && e.optimized != "" {
		text := e.optimized
		s.mu.Unlock()
		s.memoLookup(jb, "optimized", true)
		return ir.Parse(text)
	}
	s.mu.Unlock()
	s.memoLookup(jb, "optimized", false)

	m, err := s.frontend(src, name, jb)
	if err != nil {
		return nil, err
	}
	if err := s.optimize(m, jb); err != nil {
		return nil, err
	}
	text := m.Print()
	s.mu.Lock()
	if s.memo[key] == nil {
		s.memo[key] = &memoEntry{}
	}
	s.memo[key].optimized = text
	s.mu.Unlock()
	return m, nil
}

// ParallelIR returns the frontend+O2+parallelize compilation of src,
// memoized per (name, src). This is the shared prefix of every ablation
// variant in the experiments harness: variants fork only the decompile
// tail. The returned module and Result are private to the caller.
func (s *Session) ParallelIR(name, src string) (*ir.Module, *parallel.Result, error) {
	jb := s.startJob("compile", name)
	jb.source(ir.HashBytes(src))
	m, pres, err := s.parallelIR(name, src, jb)
	jb.finish(err)
	return m, pres, err
}

func (s *Session) parallelIR(name, src string, jb *jobBuilder) (*ir.Module, *parallel.Result, error) {
	key := memoKey(name, src)
	s.mu.Lock()
	e := s.memo[key]
	if e != nil && e.parallel != "" {
		text, pres := e.parallel, copyResult(e.parRes)
		s.mu.Unlock()
		s.memoLookup(jb, "parallel", true)
		m, err := ir.Parse(text)
		return m, pres, err
	}
	s.mu.Unlock()
	s.memoLookup(jb, "parallel", false)

	// Reuse the optimized prefix if it is already cached.
	m, err := s.optimizedIR(name, src, jb)
	if err != nil {
		return nil, nil, err
	}
	pres, err := s.parallelize(m, jb)
	if err != nil {
		return nil, nil, err
	}
	text := m.Print()
	s.mu.Lock()
	if s.memo[key] == nil {
		s.memo[key] = &memoEntry{}
	}
	s.memo[key].parallel = text
	s.memo[key].parRes = copyResult(pres)
	s.mu.Unlock()
	return m, copyResult(pres), nil
}

// copyResult snapshots a parallelizer result so cached and returned
// copies cannot alias.
func copyResult(r *parallel.Result) *parallel.Result {
	if r == nil {
		return nil
	}
	out := &parallel.Result{
		Parallelized: make(map[string]int, len(r.Parallelized)),
		Versioned:    r.Versioned,
		Rejected:     r.Rejected,
	}
	for k, v := range r.Parallelized {
		out.Parallelized[k] = v
	}
	return out
}

func (s *Session) count(name string, n int) {
	s.opts.Telemetry.Count(name, n)
}

// memoLookup records one memo probe (a pipeline prefix or a
// decompilation) on the telemetry counters, the metrics registry, and
// the job's flight record.
func (s *Session) memoLookup(jb *jobBuilder, prefix string, hit bool) {
	if hit {
		s.count("driver.memo.hits", 1)
		s.met.memoHits.Inc()
	} else {
		s.count("driver.memo.misses", 1)
		s.met.memoMisses.Inc()
	}
	jb.cacheLookup(prefix, hit)
}
