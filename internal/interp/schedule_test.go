package interp

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/omp"
)

// runErr is run for tests expecting the machine to trap: it returns the
// execution error instead of failing the test on one.
func runErr(t *testing.T, src, fn string, opts Options, args ...Value) (error, *Machine) {
	t.Helper()
	m, err := ir.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	omp.DeclareRuntime(m)
	if err := m.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	mach := NewMachine(m, opts)
	_, err = mach.Run(fn, args...)
	return err, mach
}

// dispatchKernel builds the standard chunk-pull microtask over A[0..99]
// with the given schedule kind and chunk.
func dispatchKernel(sched, chunk string) string {
	src := `
@A = global [100 x i64] zeroinitializer

declare void @__kmpc_fork_call(i32, ...)
declare void @__kmpc_dispatch_init_8(i32, i32, i64, i64, i64, i64)
declare i32 @__kmpc_dispatch_next_8(i32, i32*, i64*, i64*, i64*)

define void @dyn.omp(i32* %gtid.ptr, i32* %btid.ptr) outlined {
entry:
  %gtid = load i32, i32* %gtid.ptr
  %last = alloca i32
  %lo.addr = alloca i64
  %hi.addr = alloca i64
  %st.addr = alloca i64
  call void @__kmpc_dispatch_init_8(i32 %gtid, i32 SCHED, i64 0, i64 99, i64 1, i64 CHUNK)
  br label %pull
pull:
  %more = call i32 @__kmpc_dispatch_next_8(i32 %gtid, i32* %last, i64* %lo.addr, i64* %hi.addr, i64* %st.addr)
  %c = icmp ne i32 %more, 0
  br i1 %c, label %chunk, label %done
chunk:
  %lo = load i64, i64* %lo.addr
  %hi = load i64, i64* %hi.addr
  br label %loop
loop:
  %i = phi i64 [ %lo, %chunk ], [ %i.next, %loop ]
  %g = getelementptr [100 x i64], [100 x i64]* @A, i64 0, i64 %i
  store i64 %i, i64* %g
  %i.next = add i64 %i, 1
  %cc = icmp sle i64 %i.next, %hi
  br i1 %cc, label %loop, label %pull
done:
  ret void
}
define void @main() {
entry:
  call void @__kmpc_fork_call(i32 0, void (i32*, i32*) @dyn.omp)
  ret void
}
`
	src = strings.Replace(src, "SCHED", sched, 1)
	return strings.Replace(src, "CHUNK", chunk, 1)
}

// dispatchLogKernel is dispatchKernel with chunk 1 that also appends
// every pulled chunk's first index to @LOG (the hook goes ahead of the
// chunk block's branch into the loop), counting pulls in @NPULL. The
// log is unsynchronized, so only serialized teams may run it.
func dispatchLogKernel(sched string) string {
	const logChunk = `  %n = load i64, i64* @NPULL
  %slot = getelementptr [100 x i64], [100 x i64]* @LOG, i64 0, i64 %n
  store i64 %lo, i64* %slot
  %n.next = add i64 %n, 1
  store i64 %n.next, i64* @NPULL
`
	src := "@LOG = global [100 x i64] zeroinitializer\n@NPULL = global i64 0\n" + dispatchKernel(sched, "1")
	return strings.Replace(src, "  br label %loop", logChunk+"  br label %loop", 1)
}

func checkCovered(t *testing.T, mach *Machine) {
	t.Helper()
	a := mach.GlobalMem("A")
	for i := 0; i < 100; i++ {
		if a.Cells[i].I != int64(i) {
			t.Fatalf("A[%d] = %v", i, a.Cells[i])
		}
	}
}

// TestDispatchGuided pins schedule(guided)'s pull sequence, and
// schedule(auto)'s, which runs as guided (libomp's choice for
// kmp_sch_auto). Under the race checker's serialized team one worker
// drains the whole construct, so the logged chunk starts must be exactly
// the omp.GuidedTake series for the team size, covering the space once.
func TestDispatchGuided(t *testing.T) {
	for _, sched := range []string{"36", "38"} {
		for _, threads := range []int{1, 4} {
			_, mach := run(t, dispatchLogKernel(sched), "main",
				Options{NumThreads: threads, Profile: true, CheckRaces: true})
			checkCovered(t, mach)
			var want []int64
			for next := int64(0); next < 100; next += omp.GuidedTake(100-next, 1, threads) {
				want = append(want, next)
			}
			var got []int64
			for _, c := range mach.GlobalMem("LOG").Cells[:mach.GlobalMem("NPULL").Cells[0].I] {
				got = append(got, c.I)
			}
			if !slices.Equal(got, want) {
				t.Errorf("sched %s, %d threads: chunk starts %v, want the GuidedTake series %v",
					sched, threads, got, want)
			}
			var chunks, iters int64
			for _, th := range mach.Profile().Regions[0].Threads {
				chunks += th.Chunks
				iters += th.Iterations
			}
			if chunks != int64(len(want)) || iters != 100 {
				t.Errorf("sched %s, %d threads: %d chunks over %d iterations, want %d over 100",
					sched, threads, chunks, iters, len(want))
			}
		}
	}
}

// TestDispatchGuidedMultithread checks guided coverage with a real team:
// whatever the chunk-to-worker assignment, the space is covered exactly
// once and every chunk honors the floor.
func TestDispatchGuidedMultithread(t *testing.T) {
	_, mach := run(t, dispatchKernel("36", "3"), "main",
		Options{NumThreads: 4, Profile: true})
	checkCovered(t, mach)
	var iters int64
	for _, th := range mach.Profile().Regions[0].Threads {
		iters += th.Iterations
	}
	if iters != 100 {
		t.Errorf("guided iterations sum to %d, want 100", iters)
	}
}

// TestDispatchAutoParallel checks plain concurrent schedule(auto): full
// coverage under real interleavings.
func TestDispatchAutoParallel(t *testing.T) {
	_, mach := run(t, dispatchKernel("38", "1"), "main", Options{NumThreads: 8})
	checkCovered(t, mach)
}

// TestDispatchAutoZeroChunk: schedule(auto) takes no chunk clause, so
// IR text may pass chunk 0. The runtime accepts it, and GuidedTake's
// floor of one iteration still drains the space.
func TestDispatchAutoZeroChunk(t *testing.T) {
	for _, threads := range []int{1, 4} {
		_, mach := run(t, dispatchKernel("38", "0"), "main", Options{NumThreads: threads})
		checkCovered(t, mach)
	}
}

// TestDispatchUnknownKindTraps pins the tentpole's trap-not-fallback
// contract: a schedule constant the runtime does not implement traps
// instead of silently running as dynamic.
func TestDispatchUnknownKindTraps(t *testing.T) {
	for _, sched := range []string{"34", "99"} {
		err, _ := runErr(t, dispatchKernel(sched, "1"), "main", Options{NumThreads: 2})
		if err == nil || !strings.Contains(err.Error(), "unsupported schedule kind") {
			t.Errorf("sched %s: err = %v, want unsupported-schedule-kind trap", sched, err)
		}
	}
}

// TestDispatchNonpositiveChunkTraps: a nonpositive chunk used to be
// silently clamped to 1; it now traps at the runtime boundary.
func TestDispatchNonpositiveChunkTraps(t *testing.T) {
	for _, chunk := range []string{"0", "-3"} {
		err, _ := runErr(t, dispatchKernel("35", chunk), "main", Options{NumThreads: 2})
		if err == nil || !strings.Contains(err.Error(), "nonpositive chunk") {
			t.Errorf("chunk %s: err = %v, want nonpositive-chunk trap", chunk, err)
		}
	}
}

// mismatchKernel has each worker publish its own gtid-dependent upper
// bound — the "late arrivals silently dropped" bug's shape. The runtime
// used to run every worker on the first arrival's bounds.
const mismatchKernel = `
declare void @__kmpc_fork_call(i32, ...)
declare void @__kmpc_dispatch_init_8(i32, i32, i64, i64, i64, i64)
declare i32 @__kmpc_dispatch_next_8(i32, i32*, i64*, i64*, i64*)

define void @mis.omp(i32* %gtid.ptr, i32* %btid.ptr) outlined {
entry:
  %gtid = load i32, i32* %gtid.ptr
  %g64 = sext i32 %gtid to i64
  %ub = add i64 99, %g64
  %last = alloca i32
  %lo.addr = alloca i64
  %hi.addr = alloca i64
  %st.addr = alloca i64
  call void @__kmpc_dispatch_init_8(i32 %gtid, i32 35, i64 0, i64 %ub, i64 1, i64 7)
  %more = call i32 @__kmpc_dispatch_next_8(i32 %gtid, i32* %last, i64* %lo.addr, i64* %hi.addr, i64* %st.addr)
  ret void
}
define void @main() {
entry:
  call void @__kmpc_fork_call(i32 0, void (i32*, i32*) @mis.omp)
  ret void
}
`

func TestDispatchInitMismatchTraps(t *testing.T) {
	err, _ := runErr(t, mismatchKernel, "main", Options{NumThreads: 4})
	if err == nil || !strings.Contains(err.Error(), "but the construct was opened with") {
		t.Errorf("err = %v, want publish-mismatch trap", err)
	}
}

// staticKernel calls static_init_8 directly (team of one) with the
// given bounds, publishing the narrowed range into @LO/@HI.
func staticKernel(sched, lb, ub, incr string) string {
	src := `
@LO = global i64 0
@HI = global i64 0

declare void @__kmpc_for_static_init_8(i32, i32, i64*, i64*, i64*, i64*, i64, i64)

define void @main() {
entry:
  %last = alloca i64
  %lo.addr = alloca i64
  %hi.addr = alloca i64
  %st.addr = alloca i64
  store i64 LBV, i64* %lo.addr
  store i64 UBV, i64* %hi.addr
  call void @__kmpc_for_static_init_8(i32 0, i32 SCHEDV, i64* %last, i64* %lo.addr, i64* %hi.addr, i64* %st.addr, i64 INCRV, i64 1)
  %lo = load i64, i64* %lo.addr
  %hi = load i64, i64* %hi.addr
  store i64 %lo, i64* @LO
  store i64 %hi, i64* @HI
  ret void
}
`
	r := strings.NewReplacer("SCHEDV", sched, "LBV", lb, "UBV", ub, "INCRV", incr)
	return r.Replace(src)
}

// TestStaticInitOverflowTraps: the historical trip-count expression
// (ub-lb)/incr+1 wrapped (or crashed on minInt64/-1) for extreme
// bounds; the runtime now detects the overflow and traps.
func TestStaticInitOverflowTraps(t *testing.T) {
	const minI = "-9223372036854775808"
	const maxI = "9223372036854775807"
	cases := [][3]string{
		{minI, maxI, "1"},  // 2^64 iterations
		{minI, maxI, "7"},  // span itself wraps
		{maxI, minI, "-1"}, // negative-direction full span
		{"0", maxI, "1"},   // trip = maxI+1
	}
	for _, c := range cases {
		err, _ := runErr(t, staticKernel("34", c[0], c[1], c[2]), "main", Options{})
		if err == nil || !strings.Contains(err.Error(), "overflows") {
			t.Errorf("bounds [%s, %s] step %s: err = %v, want overflow trap", c[0], c[1], c[2], err)
		}
	}
}

// TestStaticInitEmptyRangeNoWrap pins the zero-trip publish: the old
// runtime published (lb, lb-incr), which wraps for bounds near the
// int64 boundary — the published "empty" range then covered almost the
// whole integer line and the loop ran forever. The empty range is now
// a constant pair strictly on the empty side of the comparison.
func TestStaticInitEmptyRangeNoWrap(t *testing.T) {
	// lb > ub with a large step: lb-incr would wrap to the far end.
	src := staticKernel("34", "-9223372036854775758", "-9223372036854775808", "100")
	_, mach := run(t, src, "main", Options{})
	lo, hi := mach.GlobalMem("LO").Cells[0].I, mach.GlobalMem("HI").Cells[0].I
	if lo <= hi {
		t.Errorf("zero-trip publish [%d, %d] still runs for a positive step", lo, hi)
	}
	// Negative step: the empty pair must sit on the other side.
	src = staticKernel("34", "4", "5", "-1")
	_, mach = run(t, src, "main", Options{})
	lo, hi = mach.GlobalMem("LO").Cells[0].I, mach.GlobalMem("HI").Cells[0].I
	if lo >= hi {
		t.Errorf("zero-trip publish [%d, %d] still runs for a negative step", lo, hi)
	}
}

// TestStaticInitDispatchKindTraps: handing a dispatch schedule constant
// to the static entry point used to silently run contiguously.
func TestStaticInitDispatchKindTraps(t *testing.T) {
	err, _ := runErr(t, staticKernel("35", "0", "9", "1"), "main", Options{})
	if err == nil || !strings.Contains(err.Error(), "unsupported schedule kind") {
		t.Errorf("err = %v, want unsupported-schedule-kind trap", err)
	}
}

// abortKernel: worker 0 traps mid-region while its teammates wait at a
// barrier it will never reach.
const abortKernel = `
declare void @__kmpc_fork_call(i32, ...)
declare void @__kmpc_barrier(i32)

define void @abort.omp(i32* %gtid.ptr, i32* %btid.ptr) outlined {
entry:
  %gtid = load i32, i32* %gtid.ptr
  %is0 = icmp eq i32 %gtid, 0
  br i1 %is0, label %boom, label %wait
boom:
  %g64 = sext i32 %gtid to i64
  %z = sdiv i64 1, %g64
  br label %join
wait:
  call void @__kmpc_barrier(i32 %gtid)
  br label %join
join:
  ret void
}
define void @main() {
entry:
  call void @__kmpc_fork_call(i32 0, void (i32*, i32*) @abort.omp)
  ret void
}
`

// TestWorkerTrapAbortsTeam: before the team-abort mechanism this
// deadlocked — the trapping worker never reached the barrier, so its
// teammates waited forever and fork's join never returned. The trap
// must now surface with its original kind.
func TestWorkerTrapAbortsTeam(t *testing.T) {
	err, _ := runErr(t, abortKernel, "main", Options{NumThreads: 4})
	if err == nil {
		t.Fatal("worker trap was swallowed")
	}
	if kind, ok := TrapKindOf(err); !ok || kind != TrapDivByZero {
		t.Errorf("trap kind = %v (ok=%v), want div-by-zero (the original trap, not the teammate sentinel); err=%v",
			kind, ok, err)
	}
}
