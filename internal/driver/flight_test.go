// Internal tests for the session flight recorder: ring mechanics on
// the raw type, and a schema check on the JSON the debug server hands
// out, driven through real pipeline jobs.
package driver

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/metrics"
)

// TestFlightRecorderRing: the ring evicts oldest-first, sequence
// numbers stay monotonic across eviction, and the snapshot reports both
// the retained window and the all-time count.
func TestFlightRecorderRing(t *testing.T) {
	fr := newFlightRecorder(3)
	for i := 0; i < 5; i++ {
		fr.record(JobRecord{Kind: "compile"})
	}
	snap := fr.Snapshot()
	if snap.Schema != FlightRecordSchema {
		t.Errorf("schema = %q, want %q", snap.Schema, FlightRecordSchema)
	}
	if snap.Capacity != 3 || snap.Recorded != 5 {
		t.Errorf("capacity/recorded = %d/%d, want 3/5", snap.Capacity, snap.Recorded)
	}
	if len(snap.Jobs) != 3 {
		t.Fatalf("retained %d jobs, want 3", len(snap.Jobs))
	}
	for i, want := range []int64{3, 4, 5} {
		if snap.Jobs[i].Seq != want {
			t.Errorf("jobs[%d].Seq = %d, want %d (oldest first)", i, snap.Jobs[i].Seq, want)
		}
	}
}

// TestFlightRecorderIngestSince: Since returns only records past a
// sequence watermark (the fleet worker's "new since last response"
// delta), and Ingest re-sequences foreign records locally while
// preserving their Process provenance tag.
func TestFlightRecorderIngestSince(t *testing.T) {
	fr := newFlightRecorder(8)
	for i := 0; i < 4; i++ {
		fr.record(JobRecord{Kind: "shard"})
	}
	since := fr.Since(2)
	if len(since) != 2 || since[0].Seq != 3 || since[1].Seq != 4 {
		t.Fatalf("Since(2) = %+v, want seqs [3 4]", since)
	}
	if got := fr.Since(99); len(got) != 0 {
		t.Errorf("Since(99) = %+v, want empty", got)
	}

	coord := newFlightRecorder(8)
	coord.record(JobRecord{Kind: "compile", Name: "local"})
	for _, jr := range since {
		jr.Process = "worker0"
		coord.Ingest(jr)
	}
	snap := coord.Snapshot()
	if len(snap.Jobs) != 3 {
		t.Fatalf("coordinator retained %d jobs, want 3", len(snap.Jobs))
	}
	for i, jr := range snap.Jobs {
		if jr.Seq != int64(i+1) {
			t.Errorf("jobs[%d].Seq = %d, want %d (re-sequenced locally)", i, jr.Seq, i+1)
		}
	}
	if snap.Jobs[0].Process != "" || snap.Jobs[1].Process != "worker0" || snap.Jobs[2].Process != "worker0" {
		t.Errorf("process tags = %q/%q/%q, want \"\"/worker0/worker0",
			snap.Jobs[0].Process, snap.Jobs[1].Process, snap.Jobs[2].Process)
	}

	// Nil safety.
	var nilFR *FlightRecorder
	nilFR.Ingest(JobRecord{Kind: "shard"})
	if got := nilFR.Since(0); got != nil {
		t.Errorf("nil Since = %+v, want nil", got)
	}
}

// TestFlightRecorderNil: a nil recorder (recording disabled) must
// swallow records and serve a valid empty document, not crash or error.
func TestFlightRecorderNil(t *testing.T) {
	var fr *FlightRecorder
	fr.record(JobRecord{Kind: "execute"})
	snap := fr.Snapshot()
	if snap.Schema != FlightRecordSchema || snap.Capacity != 0 || snap.Recorded != 0 {
		t.Errorf("nil snapshot = %+v, want empty %s document", snap, FlightRecordSchema)
	}
	if snap.Jobs == nil || len(snap.Jobs) != 0 {
		t.Errorf("nil snapshot jobs = %#v, want non-nil empty slice", snap.Jobs)
	}
	b, err := fr.JobsJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), FlightRecordSchema) {
		t.Errorf("nil JobsJSON missing schema: %s", b)
	}
}

// flightSource is a small program whose init loop the parallelizer
// accepts, so a round trip exercises every field the recorder captures.
const flightSource = `
long A[256];

long main() {
  for (long i = 0; i < 256; i++) {
    A[i] = i * 2;
  }
  long s = 0;
  for (long i = 0; i < 256; i++) {
    s = s + A[i];
  }
  return s;
}
`

// TestFlightRecordSchemaGolden drives real jobs through an instrumented
// session and validates the versioned /debug/jobs document: schema tag,
// job kinds, per-stage timings, memo lookups, profile digest, and race
// verdict all present where the job type promises them.
func TestFlightRecordSchemaGolden(t *testing.T) {
	reg := metrics.NewRegistry()
	s := New(Options{Jobs: 1, Metrics: reg})

	if _, err := s.RoundTrip("flight", flightSource, RoundTripOptions{Threads: 4}); err != nil {
		t.Fatal(err)
	}
	m, pres, err := s.ParallelIR("flight", flightSource)
	if err != nil {
		t.Fatal(err)
	}
	if len(pres.Parallelized) == 0 {
		t.Fatal("flightSource did not parallelize; the profile digest check needs a region")
	}
	if _, err := s.Execute(m, ExecOptions{Entry: "main", NumThreads: 4, Profile: true, CheckRaces: true}); err != nil {
		t.Fatal(err)
	}

	raw, err := s.Recorder().JobsJSON()
	if err != nil {
		t.Fatal(err)
	}
	// The document must re-parse under the declared schema.
	var doc JobsSnapshot
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("JobsJSON is not valid JSON: %v", err)
	}
	if doc.Schema != FlightRecordSchema {
		t.Fatalf("schema = %q, want %q", doc.Schema, FlightRecordSchema)
	}
	if doc.Capacity != defaultJobHistory || doc.Recorded != 3 || len(doc.Jobs) != 3 {
		t.Fatalf("capacity/recorded/retained = %d/%d/%d, want %d/3/3",
			doc.Capacity, doc.Recorded, len(doc.Jobs), defaultJobHistory)
	}

	rt, compile, exec := doc.Jobs[0], doc.Jobs[1], doc.Jobs[2]

	// Job 1: the round trip. Nested stage calls must not have produced
	// extra job records, only stage timings on this one record.
	if rt.Kind != "roundtrip" || rt.Name != "flight" {
		t.Errorf("job 1 = %s/%s, want roundtrip/flight", rt.Kind, rt.Name)
	}
	if len(rt.SourceHash) != 16 {
		t.Errorf("roundtrip source_hash = %q, want 16 hex digits", rt.SourceHash)
	}
	if rt.WallNS <= 0 {
		t.Errorf("roundtrip wall_ns = %d, want > 0", rt.WallNS)
	}
	wantStages := map[string]int{"frontend": 2, "optimize": 2, "parallelize": 1, "decompile": 1}
	gotStages := map[string]int{}
	for _, st := range rt.Stages {
		gotStages[st.Stage]++
		if st.WallNS < 0 {
			t.Errorf("stage %s wall_ns = %d, want >= 0", st.Stage, st.WallNS)
		}
	}
	for stage, want := range wantStages {
		if gotStages[stage] != want {
			t.Errorf("roundtrip ran stage %s %d time(s), want %d (stages: %v)",
				stage, gotStages[stage], want, rt.Stages)
		}
	}
	if rt.Profile == nil || rt.Profile.Regions == 0 {
		t.Errorf("roundtrip profile digest = %+v, want parallel regions recorded", rt.Profile)
	}
	if rt.RaceVerdict != "clean" {
		t.Errorf("roundtrip race_verdict = %q, want clean", rt.RaceVerdict)
	}
	if rt.ParallelLoops == 0 {
		t.Error("roundtrip parallel_loops = 0, want > 0")
	}
	if len(rt.Divergences) != 0 {
		t.Errorf("roundtrip divergences = %v, want none", rt.Divergences)
	}

	// Job 2: the memoized compile, with its prefix-memo probes.
	if compile.Kind != "compile" {
		t.Errorf("job 2 kind = %q, want compile", compile.Kind)
	}
	var prefixes []string
	for _, c := range compile.Cache {
		prefixes = append(prefixes, c.Prefix)
		if c.Hit {
			t.Errorf("cold compile reported a memo hit on prefix %q", c.Prefix)
		}
	}
	// A cold ParallelIR probes the parallel memo, then the optimized one.
	if strings.Join(prefixes, ",") != "parallel,optimized" {
		t.Errorf("compile cache probes = %v, want [parallel optimized]", prefixes)
	}

	// Job 3: the execution, with profile digest and race verdict.
	if exec.Kind != "execute" || exec.Name != "main" {
		t.Errorf("job 3 = %s/%s, want execute/main", exec.Kind, exec.Name)
	}
	if exec.Profile == nil || exec.Profile.Regions == 0 || exec.Profile.WorkSteps <= 0 {
		t.Errorf("execute profile digest = %+v, want regions and work recorded", exec.Profile)
	}
	if exec.RaceVerdict != "clean" {
		t.Errorf("execute race_verdict = %q, want clean", exec.RaceVerdict)
	}

	// The same work must have fed the job counters on the registry.
	for kind, want := range map[string]int64{"roundtrip": 1, "compile": 1, "execute": 1} {
		if got := reg.Counter("splendid_driver_jobs_completed_total", "", metrics.L("kind", kind)).Value(); got != want {
			t.Errorf("jobs_completed{kind=%s} = %d, want %d", kind, got, want)
		}
	}
}

// TestFlightRecorderDisabled: JobHistoryLimit < 0 disables recording while
// leaving jobs themselves working, and the session serves the empty
// document.
func TestFlightRecorderDisabled(t *testing.T) {
	s := New(Options{Jobs: 1, JobHistoryLimit: -1})
	m, _, err := s.ParallelIR("flight", flightSource)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Execute(m, ExecOptions{Entry: "main"}); err != nil {
		t.Fatal(err)
	}
	snap := s.Recorder().Snapshot()
	if snap.Capacity != 0 || snap.Recorded != 0 || len(snap.Jobs) != 0 {
		t.Errorf("disabled recorder snapshot = %+v, want empty", snap)
	}
	if s.Recorder() != nil {
		t.Error("disabled session handed out a non-nil recorder")
	}
}

// TestShardJobRecord: the differential fleet's "shard" job kind is a
// first-class flight-recorder citizen — it lands in /debug/jobs with
// its divergence classes, feeds the pre-registered jobs_* counters, and
// the whole handle is nil-safe when recording is disabled.
func TestShardJobRecord(t *testing.T) {
	reg := metrics.NewRegistry()
	s := New(Options{Jobs: 1, Metrics: reg})
	errInfra := errors.New("worker lost")

	ok := s.StartShardJob("shard0[0+50)")
	ok.Divergences([]string{"opt", "parallel"})
	ok.Finish(nil)
	bad := s.StartShardJob("shard1[50+50)")
	bad.Finish(errInfra)

	snap := s.Recorder().Snapshot()
	if len(snap.Jobs) != 2 {
		t.Fatalf("retained %d jobs, want 2", len(snap.Jobs))
	}
	first, second := snap.Jobs[0], snap.Jobs[1]
	if first.Kind != "shard" || first.Name != "shard0[0+50)" {
		t.Errorf("job 1 = %s/%s, want shard/shard0[0+50)", first.Kind, first.Name)
	}
	if strings.Join(first.Divergences, ",") != "opt,parallel" {
		t.Errorf("job 1 divergences = %v, want [opt parallel]", first.Divergences)
	}
	if first.Err != "" {
		t.Errorf("job 1 err = %q, want clean", first.Err)
	}
	if second.Err != errInfra.Error() {
		t.Errorf("job 2 err = %q, want %q", second.Err, errInfra)
	}
	if got := reg.Counter("splendid_driver_jobs_completed_total", "", metrics.L("kind", "shard")).Value(); got != 1 {
		t.Errorf("jobs_completed{kind=shard} = %d, want 1", got)
	}
	if got := reg.Counter("splendid_driver_jobs_failed_total", "", metrics.L("kind", "shard")).Value(); got != 1 {
		t.Errorf("jobs_failed{kind=shard} = %d, want 1", got)
	}

	// Nil safety: disabled recording and a nil handle both no-op.
	off := New(Options{Jobs: 1, JobHistoryLimit: -1})
	j := off.StartShardJob("shard2[100+50)")
	j.Divergences([]string{"opt"})
	j.Finish(nil)
	var nilJob *ShardJob
	nilJob.Divergences([]string{"opt"})
	nilJob.Finish(nil)
}

// racyIR forks a region where every thread stores to the same cell, so
// the conflict checker must convict it.
const racyIR = `
@X = global [4 x i64] zeroinitializer

declare void @__kmpc_fork_call(i32, ...)

define void @racy.omp(i32* %gtid.ptr, i32* %btid.ptr) outlined {
entry:
  %gtid = load i32, i32* %gtid.ptr
  %tid64 = sext i32 %gtid to i64
  %g = getelementptr [4 x i64], [4 x i64]* @X, i64 0, i64 0
  store i64 %tid64, i64* %g
  ret void
}
define void @main() {
entry:
  call void @__kmpc_fork_call(i32 0, void (i32*, i32*) @racy.omp)
  ret void
}
`

// TestExecuteRaceVerdictConflicts: a racy region must land in the
// record as "conflicts", not "clean".
func TestExecuteRaceVerdictConflicts(t *testing.T) {
	s := New(Options{Jobs: 1})
	m, err := ir.Parse(racyIR)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Execute(m, ExecOptions{NumThreads: 4, CheckRaces: true}); err != nil {
		t.Fatal(err)
	}
	snap := s.Recorder().Snapshot()
	if len(snap.Jobs) != 1 {
		t.Fatalf("retained %d jobs, want 1", len(snap.Jobs))
	}
	if v := snap.Jobs[0].RaceVerdict; v != "conflicts" {
		t.Errorf("race_verdict = %q, want conflicts", v)
	}
}
