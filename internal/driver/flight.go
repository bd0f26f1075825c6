package driver

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/evlog"
	"repro/internal/interp"
	"repro/internal/metrics"
)

// The session flight recorder: a bounded ring buffer of the last N
// pipeline jobs, kept cheap enough to leave on in production and served
// live by the debug server's /debug/jobs endpoint. A "job" is one
// public, user-meaningful unit of work — a memoized compile
// (OptimizedIR/ParallelIR), a decompilation, an interpreter execution,
// or a differential round trip — not the primitive stages inside it:
// stage timings, cache lookups, profile digests, and verdicts are
// attached to the enclosing job's record instead of producing nested
// entries.

// FlightRecordSchema identifies the /debug/jobs JSON layout.
const FlightRecordSchema = "splendid-flight-record/v1"

// StageTiming is one pipeline stage's wall time within a job. Stages
// may repeat (a round trip runs the frontend twice: input and
// recompiled C); order is execution order.
type StageTiming struct {
	Stage  string `json:"stage"`
	WallNS int64  `json:"wall_ns"`
}

// CacheLookup is one memo probe: which memo was consulted ("optimized"
// or "parallel" for the compiled prefixes, "decompile" for the emitted
// C) and whether it hit.
type CacheLookup struct {
	Prefix string `json:"prefix"`
	Hit    bool   `json:"hit"`
}

// ProfileDigest condenses an interp.RunProfile to the figures worth
// keeping per job: region/fork counts, work and span totals, the
// work-weighted load balance, and total barrier wait.
type ProfileDigest struct {
	Regions       int     `json:"regions"`
	Forks         int64   `json:"forks"`
	WorkSteps     int64   `json:"work_steps"`
	SpanSteps     int64   `json:"span_steps"`
	LoadBalance   float64 `json:"load_balance,omitempty"`
	BarrierWaitNS int64   `json:"barrier_wait_ns,omitempty"`
}

func digestProfile(p *interp.RunProfile) *ProfileDigest {
	if p == nil {
		return nil
	}
	return &ProfileDigest{
		Regions:       len(p.Regions),
		Forks:         p.TotalForks,
		WorkSteps:     p.TotalWorkSteps,
		SpanSteps:     p.TotalSpanSteps,
		LoadBalance:   p.LoadBalance(),
		BarrierWaitNS: p.BarrierWaitNS(),
	}
}

// JobRecord is one completed pipeline job. Seq increases monotonically
// per session; the recorder keeps the most recent records only.
type JobRecord struct {
	Seq  int64  `json:"seq"`
	Kind string `json:"kind"` // compile | decompile | execute | roundtrip
	Name string `json:"name"`
	// Process is the record's provenance when it was ingested from
	// another process's recorder (the fleet coordinator tags worker shard
	// jobs "worker0", "worker1", ...); "" for jobs this session ran.
	Process string `json:"process,omitempty"`
	// SourceHash fingerprints the input ("%016x" of ir.HashBytes): the C
	// source of compile and round-trip jobs, the printed IR of decompile
	// jobs (their memo key), so repeated jobs over the same program
	// correlate across restarts.
	SourceHash  string `json:"source_hash,omitempty"`
	StartUnixNS int64  `json:"start_unix_ns"`
	WallNS      int64  `json:"wall_ns"`
	// Engine names the body engine ("tree" or "bytecode") of the job's
	// interpreter run; "" for jobs that never execute (pure compiles).
	Engine string        `json:"engine,omitempty"`
	Stages []StageTiming `json:"stages,omitempty"`
	Cache  []CacheLookup `json:"cache,omitempty"`
	// Profile is the parallel-region digest of the job's N-thread run
	// (round trips and profiled executions only).
	Profile *ProfileDigest `json:"profile,omitempty"`
	// RaceVerdict is "" when the checker did not run, else "clean" or
	// "conflicts".
	RaceVerdict string `json:"race_verdict,omitempty"`
	// Divergences lists round-trip divergence classes, one entry per
	// finding (e.g. ["opt", "roundtrip", "roundtrip"]).
	Divergences   []string `json:"divergences,omitempty"`
	ParallelLoops int      `json:"parallel_loops,omitempty"`
	Err           string   `json:"err,omitempty"`
}

// JobsSnapshot is the /debug/jobs response body: the retained records,
// oldest first. Recorded counts all jobs ever recorded, so readers can
// tell how much history the ring has dropped.
type JobsSnapshot struct {
	Schema   string      `json:"schema"`
	Capacity int         `json:"capacity"`
	Recorded int64       `json:"recorded"`
	Jobs     []JobRecord `json:"jobs"`
}

// FlightRecorder is the mutex-guarded ring buffer behind /debug/jobs.
// All methods are nil-safe, so a session with recording disabled hands
// out a nil recorder that snapshots as empty.
type FlightRecorder struct {
	mu   sync.Mutex
	seq  int64
	ring []JobRecord
	next int
	full bool
}

func newFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		return nil
	}
	return &FlightRecorder{ring: make([]JobRecord, capacity)}
}

// record appends jr, assigning its sequence number, evicting the oldest
// record once the ring is full.
func (fr *FlightRecorder) record(jr JobRecord) {
	if fr == nil {
		return
	}
	fr.mu.Lock()
	fr.seq++
	jr.Seq = fr.seq
	fr.ring[fr.next] = jr
	fr.next++
	if fr.next == len(fr.ring) {
		fr.next = 0
		fr.full = true
	}
	fr.mu.Unlock()
}

// Ingest folds a record from another process's recorder into this
// ring. The record is re-sequenced locally (sequence numbers are
// per-recorder); callers set JobRecord.Process so /debug/jobs readers
// can tell whose work it was. Nil-safe.
func (fr *FlightRecorder) Ingest(jr JobRecord) { fr.record(jr) }

// Since returns the retained records with sequence numbers greater
// than seq, oldest first. Fleet workers use it to ship only the job
// records that are new since their previous response. Nil-safe.
func (fr *FlightRecorder) Since(seq int64) []JobRecord {
	var out []JobRecord
	for _, jr := range fr.Snapshot().Jobs {
		if jr.Seq > seq {
			out = append(out, jr)
		}
	}
	return out
}

// Snapshot copies the retained records, oldest first.
func (fr *FlightRecorder) Snapshot() JobsSnapshot {
	out := JobsSnapshot{Schema: FlightRecordSchema, Jobs: []JobRecord{}}
	if fr == nil {
		return out
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	out.Capacity = len(fr.ring)
	out.Recorded = fr.seq
	if fr.full {
		out.Jobs = append(out.Jobs, fr.ring[fr.next:]...)
	}
	out.Jobs = append(out.Jobs, fr.ring[:fr.next]...)
	return out
}

// JobsJSON renders the snapshot, implementing debugserv.JobsSource.
// Nil-safe: a nil recorder serves an empty document, not an error.
func (fr *FlightRecorder) JobsJSON() ([]byte, error) {
	return json.MarshalIndent(fr.Snapshot(), "", "  ")
}

// jobBuilder accumulates one job's record while the job runs. It exists
// only when the session has a recorder or a metrics registry attached;
// a nil builder is the disabled path and every method is nil-safe, so
// instrumented code never branches on configuration.
type jobBuilder struct {
	s     *Session
	start time.Time
	rec   JobRecord
}

// startJob opens a job of the given kind, bumping the started counter.
// Returns nil (recording nothing) when the session observes nothing.
func (s *Session) startJob(kind, name string) *jobBuilder {
	if s.rec == nil && s.opts.Metrics == nil && s.ev == nil {
		return nil
	}
	s.met.started[kind].Inc()
	s.ev.Debug("job.start", evlog.F("kind", kind), evlog.F("name", name))
	jb := &jobBuilder{s: s, start: time.Now()}
	jb.rec = JobRecord{Kind: kind, Name: name, StartUnixNS: jb.start.UnixNano()}
	return jb
}

// active reports whether the job is being recorded (used to decide
// whether collecting a profile for the record is worth the cost).
func (jb *jobBuilder) active() bool { return jb != nil }

// source stamps the job's input fingerprint: the hash of its C source,
// or for a decompile job the memo key's hash of the printed IR.
func (jb *jobBuilder) source(hash uint64) {
	if jb == nil {
		return
	}
	jb.rec.SourceHash = fmt.Sprintf("%016x", hash)
}

func (jb *jobBuilder) engine(name string) {
	if jb == nil {
		return
	}
	jb.rec.Engine = name
}

func (jb *jobBuilder) stage(name string, d time.Duration) {
	if jb == nil {
		return
	}
	jb.rec.Stages = append(jb.rec.Stages, StageTiming{Stage: name, WallNS: d.Nanoseconds()})
}

func (jb *jobBuilder) cacheLookup(prefix string, hit bool) {
	if jb == nil {
		return
	}
	jb.rec.Cache = append(jb.rec.Cache, CacheLookup{Prefix: prefix, Hit: hit})
}

func (jb *jobBuilder) profile(p *interp.RunProfile) {
	if jb == nil || p == nil {
		return
	}
	jb.rec.Profile = digestProfile(p)
}

func (jb *jobBuilder) raceVerdict(rep *interp.RaceReport) {
	if jb == nil || rep == nil {
		return
	}
	if rep.Clean() {
		jb.rec.RaceVerdict = "clean"
	} else {
		jb.rec.RaceVerdict = "conflicts"
	}
}

func (jb *jobBuilder) divergences(ds []Divergence) {
	if jb == nil {
		return
	}
	for _, d := range ds {
		jb.rec.Divergences = append(jb.rec.Divergences, d.Class)
	}
}

func (jb *jobBuilder) parallelLoops(n int) {
	if jb == nil {
		return
	}
	jb.rec.ParallelLoops = n
}

// finish closes the job: wall time is stamped, the completed or failed
// counter bumps, and the record lands in the session's ring.
func (jb *jobBuilder) finish(err error) {
	if jb == nil {
		return
	}
	jb.rec.WallNS = time.Since(jb.start).Nanoseconds()
	if err != nil {
		jb.rec.Err = err.Error()
		jb.s.met.failed[jb.rec.Kind].Inc()
		jb.s.ev.Error("job.fail",
			evlog.F("kind", jb.rec.Kind), evlog.F("name", jb.rec.Name),
			evlog.Int("wall_ns", jb.rec.WallNS), evlog.F("err", jb.rec.Err))
	} else {
		jb.s.met.completed[jb.rec.Kind].Inc()
		jb.s.ev.Info("job.done",
			evlog.F("kind", jb.rec.Kind), evlog.F("name", jb.rec.Name),
			evlog.Int("wall_ns", jb.rec.WallNS))
	}
	jb.s.rec.record(jb.rec)
}

// ShardJob is the public handle on an in-flight fleet-shard job: the
// differential fleet (internal/difftest) wraps each shard sweep in one
// so /debug/jobs and the splendid_driver_jobs_* metrics show shards as
// first-class work items, with the divergence classes their findings
// carried. Nil-safe like the jobBuilder underneath it.
type ShardJob struct {
	jb *jobBuilder
}

// StartShardJob opens a "shard"-kind flight-recorder job. The round
// trips the shard runs still record as their own jobs; the shard job
// is the enclosing unit the fleet coordinator reasons about.
func (s *Session) StartShardJob(name string) *ShardJob {
	return &ShardJob{jb: s.startJob("shard", name)}
}

// Divergences attaches the divergence classes of the shard's findings.
func (j *ShardJob) Divergences(classes []string) {
	if j == nil || j.jb == nil {
		return
	}
	for _, c := range classes {
		j.jb.rec.Divergences = append(j.jb.rec.Divergences, c)
	}
}

// Finish closes the shard job's record.
func (j *ShardJob) Finish(err error) {
	if j == nil {
		return
	}
	j.jb.finish(err)
}

// sessionMetrics holds the session's metric handles. The maps are nil
// when no registry is attached; a nil-map lookup yields a nil handle
// whose methods are no-ops, so instrumentation sites never branch.
type sessionMetrics struct {
	started, completed, failed map[string]*metrics.Counter
	stage                      map[string]*metrics.Histogram
	memoHits, memoMisses       *metrics.Counter
}

// jobKinds and stageNames are the fixed label sets the session
// pre-registers, so scrapes show every series from the first request.
// "shard" is the differential fleet's unit of work: one journaled seed
// range swept by a worker, enclosing its round trips.
var jobKinds = []string{"compile", "decompile", "execute", "roundtrip", "shard"}
var stageNames = []string{"frontend", "optimize", "parallelize", "decompile"}

func newSessionMetrics(r *metrics.Registry) sessionMetrics {
	if r == nil {
		return sessionMetrics{}
	}
	sm := sessionMetrics{
		started:   map[string]*metrics.Counter{},
		completed: map[string]*metrics.Counter{},
		failed:    map[string]*metrics.Counter{},
		stage:     map[string]*metrics.Histogram{},
		memoHits: r.Counter("splendid_driver_memo_hits_total",
			"prefix- and decompile-memo lookups served from the cache"),
		memoMisses: r.Counter("splendid_driver_memo_misses_total",
			"prefix- and decompile-memo lookups that ran the pipeline"),
	}
	for _, k := range jobKinds {
		sm.started[k] = r.Counter("splendid_driver_jobs_started_total",
			"pipeline jobs started", metrics.L("kind", k))
		sm.completed[k] = r.Counter("splendid_driver_jobs_completed_total",
			"pipeline jobs completed without error", metrics.L("kind", k))
		sm.failed[k] = r.Counter("splendid_driver_jobs_failed_total",
			"pipeline jobs that returned an error", metrics.L("kind", k))
	}
	for _, st := range stageNames {
		sm.stage[st] = r.Histogram("splendid_driver_stage_seconds",
			"wall time of one pipeline stage execution",
			metrics.DurationBuckets, metrics.L("stage", st))
	}
	return sm
}

// stageSpan times one stage execution into the session's histogram and
// (when a job is recording) the job's stage list. The zero value is the
// disabled path: no clock read, no allocation.
type stageSpan struct {
	s     *Session
	jb    *jobBuilder
	stage string
	t0    time.Time
}

func (s *Session) startStage(jb *jobBuilder, stage string) stageSpan {
	if s.met.stage == nil && jb == nil {
		return stageSpan{}
	}
	return stageSpan{s: s, jb: jb, stage: stage, t0: time.Now()}
}

func (sp stageSpan) end() {
	if sp.s == nil {
		return
	}
	d := time.Since(sp.t0)
	sp.s.met.stage[sp.stage].Observe(d.Seconds())
	sp.jb.stage(sp.stage, d)
}
