package interp

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/ir"
	"repro/internal/omp"
	"repro/internal/telemetry"
)

// team is one OpenMP parallel-region team: a set of workers with a
// cyclic barrier.
type team struct {
	size int

	// serial turns on token-serialized execution: each worker holds runMu
	// for its whole run, releasing it only while blocked at a barrier.
	// The conflict checker uses this so that logically racy programs can
	// be executed and logged without exhibiting physical data races —
	// conflicts are found in the shadow logs, not in the interleaving, so
	// serialization loses no detection power and makes reports
	// deterministic.
	serial bool
	runMu  sync.Mutex

	barMu   sync.Mutex
	barCond *sync.Cond
	waiting int
	phase   int
	// dead marks the team aborted: a worker trapped and will never reach
	// another barrier. Survivors parked at (or arriving at) a barrier are
	// woken and unwound with a sentinel trap instead of waiting forever
	// for a teammate that is gone.
	dead bool

	// Dispatch worksharing state, held in index space [0, trip): workers
	// all call dispatch_init, then pull chunks with dispatch_next until
	// it returns 0; when every worker has drained, the state resets for
	// the next construct. Index space keeps every intermediate value
	// inside the already-validated iteration space — no bound
	// materialization can wrap.
	dispMu    sync.Mutex
	dispInits int
	dispDone  int
	// Published space, recorded for cross-worker publish validation.
	dispSched int64
	dispLB    int64
	dispUB    int64
	dispIncr  int64
	dispChunk int64
	dispTrip  int64
	// Shared cursor: next unserved iteration index.
	dispNext int64
}

func newTeam(size int) *team {
	t := &team{size: size}
	t.barCond = sync.NewCond(&t.barMu)
	return t
}

// errTeamKilled is the sentinel trap barrier waiters raise when a
// teammate dies mid-region. forkCall filters it out of the join in
// favor of the original trap, so it never reaches an outcome.
var errTeamKilled = &Trap{Kind: TrapWorker, Msg: "parallel region aborted: a teammate trapped"}

// barrier blocks until all team members arrive. In serialized mode the
// caller's run token is released while waiting so teammates can reach
// the barrier too. If the team dies while (or before) this worker
// waits, it unwinds with the errTeamKilled sentinel instead of parking
// forever on a teammate that will never arrive.
func (t *team) barrier() {
	if t.serial {
		t.runMu.Unlock()
		defer t.runMu.Lock()
	}
	t.barMu.Lock()
	if t.dead {
		t.barMu.Unlock()
		panic(errTeamKilled)
	}
	phase := t.phase
	t.waiting++
	if t.waiting == t.size {
		t.waiting = 0
		t.phase++
		t.barCond.Broadcast()
	} else {
		for t.phase == phase && !t.dead {
			t.barCond.Wait()
		}
		if t.phase == phase { // woken by kill, not by the phase advancing
			t.barMu.Unlock()
			panic(errTeamKilled)
		}
	}
	t.barMu.Unlock()
}

// kill marks the team dead and wakes barrier waiters. Called by a
// worker goroutine after its own trap has been caught, so it holds no
// team locks.
func (t *team) kill() {
	t.barMu.Lock()
	t.dead = true
	t.barCond.Broadcast()
	t.barMu.Unlock()
}

// callExternal dispatches calls to declared (bodyless) functions: the
// OpenMP runtime and a small libm/libc surface. It is engine-neutral —
// both the tree-walker and the bytecode VM reach it through RT.Call.
func (rt *RT) callExternal(f *ir.Function, args []Value) Value {
	switch f.Nam {
	case omp.ForkCall:
		rt.forkCall(args)
		return Value{K: KUndef}
	case omp.ForStaticInit:
		rt.staticInit(args)
		return Value{K: KUndef}
	case omp.ForStaticFini:
		return Value{K: KUndef}
	case omp.Barrier:
		if rt.team != nil {
			if rt.tstat != nil || rt.m.met != nil {
				t0 := time.Now()
				rt.team.barrier()
				wait := time.Since(t0)
				rt.tstat.noteBarrier(wait)
				rt.m.met.noteBarrierWait(wait)
			} else {
				rt.team.barrier()
			}
			// The barrier orders everything before it against everything
			// after it, team-wide: advance this worker's race epoch.
			rt.epoch++
		}
		return Value{K: KUndef}
	case omp.GlobalThread:
		return IntV(int64(rt.gtid))
	case omp.PushNumThreads:
		// Recorded but the modeled fork always uses the machine team size.
		return Value{K: KUndef}
	case omp.DispatchInit:
		rt.dispatchInit(args)
		return Value{K: KUndef}
	case omp.DispatchNext:
		return rt.dispatchNext(args)
	case omp.AtomicAddF64:
		rt.m.atomicMu.Lock()
		cur := rt.deref(args[0])
		rt.storeTo(args[0], FloatV(cur.F+args[1].F))
		rt.m.atomicMu.Unlock()
		return Value{K: KUndef}
	case omp.AtomicMulF64:
		rt.m.atomicMu.Lock()
		cur := rt.deref(args[0])
		rt.storeTo(args[0], FloatV(cur.F*args[1].F))
		rt.m.atomicMu.Unlock()
		return Value{K: KUndef}
	case omp.AtomicAddI64:
		rt.m.atomicMu.Lock()
		cur := rt.deref(args[0])
		rt.storeTo(args[0], IntV(cur.I+args[1].I))
		rt.m.atomicMu.Unlock()
		return Value{K: KUndef}
	case omp.AtomicMulI64:
		rt.m.atomicMu.Lock()
		cur := rt.deref(args[0])
		rt.storeTo(args[0], IntV(cur.I*args[1].I))
		rt.m.atomicMu.Unlock()
		return Value{K: KUndef}

	case "exp":
		return FloatV(math.Exp(args[0].F))
	case "log":
		return FloatV(math.Log(args[0].F))
	case "sqrt":
		return FloatV(math.Sqrt(args[0].F))
	case "fabs":
		return FloatV(math.Abs(args[0].F))
	case "pow":
		return FloatV(math.Pow(args[0].F, args[1].F))
	case "sin":
		return FloatV(math.Sin(args[0].F))
	case "cos":
		return FloatV(math.Cos(args[0].F))
	case "floor":
		return FloatV(math.Floor(args[0].F))
	case "ceil":
		return FloatV(math.Ceil(args[0].F))

	case "malloc":
		// Cell-unit allocation: the frontend lowers malloc(n*sizeof(T))
		// to malloc(n) cells.
		n := int(args[0].I)
		if n < 0 {
			rt.Trapf("malloc with negative size %d", n)
		}
		if t := AllocLimitTrap("heap", n); t != nil {
			panic(t)
		}
		return PtrV(Pointer{Obj: NewMemObject("heap", n)})
	case "free":
		return Value{K: KUndef}

	case "print_i64":
		rt.m.printf("%d\n", args[0].I)
		return Value{K: KUndef}
	case "print_f64":
		rt.m.printf("%.6f\n", args[0].F)
		return Value{K: KUndef}

	case "timer_start", "timer_stop":
		return Value{K: KUndef}
	}
	rt.Trapf("call to unknown external @%s", f.Nam)
	return Value{}
}

// forkCall implements __kmpc_fork_call(argc, microtask, shared...):
// NumThreads workers execute the microtask concurrently, each on its own
// goroutine, receiving pointers to its global and team-local thread ids
// followed by the shared arguments. Workers re-enter the machine's body
// engine through RT.Call, so a bytecode-engined machine forks bytecode
// workers and a tree-engined one forks tree workers.
func (rt *RT) forkCall(args []Value) {
	if len(args) < 2 {
		rt.Trapf("fork call needs (argc, microtask, ...)")
	}
	mt := args[1]
	if mt.K != KFunc {
		rt.Trapf("fork call with non-function microtask")
	}
	shared := args[2:]
	n := rt.m.Opts.NumThreads
	tm := newTeam(n)
	mtName := mt.Fn.Nam
	prof, races, tc := rt.m.prof, rt.m.races, rt.m.tc

	// Per-fork observability scratch. Each worker goroutine owns exactly
	// its slot (no locking inside the region); the forking thread merges
	// everything after the join.
	var stats []threadStat
	if prof != nil {
		stats = make([]threadStat, n)
	}
	var recs []*threadAccesses
	if races != nil {
		recs = make([]*threadAccesses, n)
		for i := range recs {
			recs[i] = newThreadAccesses()
		}
		tm.serial = true
	}
	var wallStart time.Time
	if prof != nil {
		wallStart = time.Now()
	}
	regionStart := tc.Now()

	var wg sync.WaitGroup
	errs := make([]error, n)
	steps := make([]int64, n)
	spans := make([]int64, n)
	for tid := 0; tid < n; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			if tm.serial {
				tm.runMu.Lock()
				defer tm.runMu.Unlock()
			}
			w := &RT{m: rt.m, gtid: tid, team: tm}
			if stats != nil {
				w.tstat = &stats[tid]
			}
			if recs != nil {
				w.racerec = recs[tid]
			}
			threadStart := tc.Now()
			errs[tid] = w.protect(func() {
				gtidObj := NewMemObject("gtid", 1)
				gtidObj.Cells[0] = IntV(int64(tid))
				btidObj := NewMemObject("btid", 1)
				btidObj.Cells[0] = IntV(int64(tid))
				wargs := make([]Value, 0, 2+len(shared))
				wargs = append(wargs, PtrV(Pointer{Obj: gtidObj}), PtrV(Pointer{Obj: btidObj}))
				wargs = append(wargs, shared...)
				w.Call(mt.Fn, wargs)
			})
			if errs[tid] != nil {
				// Wake teammates parked at a barrier this worker will never
				// reach; they unwind with the errTeamKilled sentinel.
				tm.kill()
			}
			steps[tid] = w.localSteps
			spans[tid] = w.spanSteps
			if w.tstat != nil {
				w.tstat.Steps = w.localSteps
			}
			if tc != nil {
				// Track tid+2: track 1 is the compile pipeline / region row.
				tc.AddEvent(telemetry.Event{
					Name: mtName, Cat: telemetry.CatThread,
					Detail: fmt.Sprintf("tid %d", tid),
					Start:  threadStart, Dur: tc.Now() - threadStart,
					TID: tid + 2,
				})
			}
		}(tid)
	}
	wg.Wait()
	var maxSpan int64
	for tid := 0; tid < n; tid++ {
		rt.m.addSteps(steps[tid])
		if spans[tid] > maxSpan {
			maxSpan = spans[tid]
		}
	}
	// Work-span simulated clock: the fork costs a fixed setup and then
	// advances by the slowest worker's path. This is what makes parallel
	// speedup measurable deterministically, independent of host cores.
	rt.spanSteps += maxSpan + rt.m.forkCost()
	if prof != nil {
		prof.merge(mtName, time.Since(wallStart), maxSpan, stats)
	}
	rt.m.met.noteRegion()
	rt.m.met.noteConflicts(races.analyze(mtName, recs))
	if tc != nil {
		tc.AddEvent(telemetry.Event{
			Name: mtName, Cat: telemetry.CatRegion,
			Detail: fmt.Sprintf("%d threads", n),
			Start:  regionStart, Dur: tc.Now() - regionStart,
			TID: 1,
		})
	}
	// Rethrow the original trap, not the sentinel its death induced in
	// teammates: the lowest-tid real error wins, which is deterministic
	// whenever the set of genuinely trapping workers is.
	var killed error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if t, ok := err.(*Trap); ok && t == errTeamKilled {
			if killed == nil {
				killed = err
			}
			continue
		}
		rethrowWorkerErr(err)
	}
	if killed != nil {
		rethrowWorkerErr(killed)
	}
}

// rethrowWorkerErr re-raises a worker's error on the forking thread.
// Workers normally die by *Trap (protect converts the panic), which is
// rethrown as-is so the trap's kind and message survive the join; any
// other error is wrapped in a worker-kind Trap rather than lost to an
// unchecked type assertion.
func rethrowWorkerErr(err error) {
	if t, ok := err.(*Trap); ok {
		panic(t)
	}
	panic(&Trap{Kind: TrapWorker, Msg: fmt.Sprintf("worker error: %v", err)})
}

// staticInit implements __kmpc_for_static_init_8(gtid, sched, plast,
// plower, pupper, pstride, incr, chunk): it narrows [*plower, *pupper]
// (inclusive bounds) to this worker's contiguous static chunk, libomp
// style. With no iterations for this worker, lower is set above upper
// (below, for negative steps). Non-static schedule kinds trap — they
// belong on the dispatch path, and silently serving them contiguously
// would misreport the program's scheduling semantics. All arithmetic
// runs in index space over an overflow-checked trip count, so extreme
// bounds trap deterministically instead of wrapping.
func (rt *RT) staticInit(args []Value) {
	if len(args) != 8 {
		rt.Trapf("static_init_8 expects 8 args, got %d", len(args))
	}
	sched := args[1].I
	if !omp.IsStaticSched(sched) {
		rt.Trapf("static_init_8: unsupported schedule kind %d", sched)
	}
	plast, plower, pupper := args[2], args[3], args[4]
	pstride := args[5]
	incr := args[6].I
	if incr == 0 {
		rt.Trapf("static_init_8 with zero increment")
	}
	lb := rt.deref(plower).I
	ub := rt.deref(pupper).I

	n := 1
	if rt.team != nil {
		n = rt.team.size
	}
	tid := rt.gtid

	trip, ok := omp.TripCount(lb, ub, incr)
	if !ok {
		rt.Trapf("static_init_8: iteration space [%d, %d] step %d overflows", lb, ub, incr)
	}
	if trip == 0 {
		// Zero-trip loop: make this worker's range empty.
		lo, hi := omp.EmptyRange(incr)
		rt.storeTo(plower, IntV(lo))
		rt.storeTo(pupper, IntV(hi))
		rt.storeTo(plast, IntV(0))
		return
	}
	start, count := omp.StaticSpan(trip, n, tid, rt.m.Opts.BalancedChunks)
	if count == 0 {
		lo, hi := omp.EmptyRange(incr)
		rt.storeTo(plower, IntV(lo))
		rt.storeTo(pupper, IntV(hi))
		rt.storeTo(pstride, IntV(0))
		rt.storeTo(plast, IntV(0))
		return
	}
	myLo := lb + start*incr
	myHi := lb + (start+count-1)*incr
	last := int64(0)
	if start+count == trip {
		last = 1
	}
	rt.storeTo(plower, IntV(myLo))
	rt.storeTo(pupper, IntV(myHi))
	rt.storeTo(pstride, IntV(count))
	rt.storeTo(plast, IntV(last))
	rt.tstat.noteChunk(count)
}

// dispatchInit implements __kmpc_dispatch_init_8(gtid, sched, lb, ub,
// incr, chunk) for the dynamic, guided, and auto schedule kinds: the
// first arriving worker publishes and validates the iteration space
// (unknown kinds and nonpositive chunks trap; historically both were
// silently patched over). Every later arrival's arguments are checked
// against the published construct — the runtime used to drop them on
// the floor, which let a worker disagreeing about the space proceed on
// its teammate's bounds.
func (rt *RT) dispatchInit(args []Value) {
	if len(args) != 6 {
		rt.Trapf("dispatch_init_8 expects 6 args, got %d", len(args))
	}
	t := rt.team
	if t == nil {
		t = newTeam(1)
		rt.team = t
	}
	sched, lb, ub := args[1].I, args[2].I, args[3].I
	incr, chunk := args[4].I, args[5].I
	t.dispMu.Lock()
	if t.dispInits == 0 {
		if !omp.IsDispatchSched(sched) {
			t.dispMu.Unlock()
			rt.Trapf("dispatch_init_8: unsupported schedule kind %d", sched)
		}
		if incr == 0 {
			t.dispMu.Unlock()
			rt.Trapf("dispatch_init_8 with zero increment")
		}
		// schedule(auto) carries no chunk parameter; the other kinds
		// require a positive one.
		if sched != omp.SchedAuto && chunk <= 0 {
			t.dispMu.Unlock()
			rt.Trapf("dispatch_init_8: nonpositive chunk %d", chunk)
		}
		trip, ok := omp.TripCount(lb, ub, incr)
		if !ok {
			t.dispMu.Unlock()
			rt.Trapf("dispatch_init_8: iteration space [%d, %d] step %d overflows", lb, ub, incr)
		}
		t.dispSched, t.dispLB, t.dispUB = sched, lb, ub
		t.dispIncr, t.dispChunk = incr, chunk
		t.dispTrip, t.dispNext = trip, 0
	} else if sched != t.dispSched || lb != t.dispLB || ub != t.dispUB ||
		incr != t.dispIncr || chunk != t.dispChunk {
		got := fmt.Sprintf("(sched %d, lb %d, ub %d, incr %d, chunk %d)", sched, lb, ub, incr, chunk)
		want := fmt.Sprintf("(sched %d, lb %d, ub %d, incr %d, chunk %d)",
			t.dispSched, t.dispLB, t.dispUB, t.dispIncr, t.dispChunk)
		t.dispMu.Unlock()
		rt.Trapf("dispatch_init_8: worker %d published %s but the construct was opened with %s",
			rt.gtid, got, want)
	}
	t.dispInits++
	t.dispMu.Unlock()
}

// dispatchNext implements __kmpc_dispatch_next_8: it hands the caller
// the next chunk of the construct's iteration space, or returns 0 when
// drained. Dynamic pulls a fixed chunk and guided an exponentially
// decaying one off the shared cursor. Auto runs as guided, the choice
// libomp makes for kmp_sch_auto.
func (rt *RT) dispatchNext(args []Value) Value {
	if len(args) != 5 {
		rt.Trapf("dispatch_next_8 expects 5 args, got %d", len(args))
	}
	t := rt.team
	if t == nil {
		rt.Trapf("dispatch_next_8 outside a team")
	}
	// Yield before competing for the next chunk (libomp does the same in
	// its dispatch loop): without this, a host with fewer cores than the
	// team lets whichever worker the Go scheduler ran first drain the
	// whole construct, and the dispatch schedules degenerate to serial.
	// Serialized (race-checked) teams hold runMu across the yield, so
	// their deterministic one-worker-at-a-time order is unaffected.
	if !t.serial && t.size > 1 {
		runtime.Gosched()
	}
	t.dispMu.Lock()
	defer t.dispMu.Unlock()
	if t.dispInits == 0 {
		rt.Trapf("dispatch_next_8 without an active construct")
	}

	// Claim [i0, i0+take) in index space, per schedule kind.
	var i0, take int64
	switch t.dispSched {
	case omp.SchedGuided, omp.SchedAuto:
		if t.dispNext >= t.dispTrip {
			return t.dispExhausted()
		}
		i0 = t.dispNext
		take = omp.GuidedTake(t.dispTrip-t.dispNext, t.dispChunk, t.size)
		t.dispNext += take
	default: // omp.SchedDynamic
		if t.dispNext >= t.dispTrip {
			return t.dispExhausted()
		}
		i0 = t.dispNext
		take = t.dispChunk
		if take > t.dispTrip-t.dispNext {
			take = t.dispTrip - t.dispNext
		}
		t.dispNext += take
	}

	incr := t.dispIncr
	rt.storeTo(args[1], IntV(0))
	rt.storeTo(args[2], IntV(t.dispLB+i0*incr))
	rt.storeTo(args[3], IntV(t.dispLB+(i0+take-1)*incr))
	rt.storeTo(args[4], IntV(incr))
	rt.tstat.noteChunk(take)
	return IntV(1)
}

// dispExhausted records one worker's drain of the current construct and
// resets the dispatch state once the whole team is done. Callers hold
// dispMu. Reset waits for the full team: a worker can finish before its
// teammates have even called dispatch_init, and resetting early would
// hand late arrivals a fresh cursor and re-run the space. The
// construct's closing barrier orders the reset before any worker
// reaches the next construct.
func (t *team) dispExhausted() Value {
	t.dispDone++
	if t.dispDone >= t.size {
		t.dispInits = 0
		t.dispDone = 0
	}
	return IntV(0)
}

func (rt *RT) deref(p Value) Value {
	if p.K != KPtr || p.P.Nil() || p.P.Off < 0 || p.P.Off >= len(p.P.Obj.Cells) {
		rt.Trapf("bad pointer in runtime call")
	}
	return p.P.Obj.Cells[p.P.Off]
}

func (rt *RT) storeTo(p Value, v Value) {
	if p.K != KPtr || p.P.Nil() || p.P.Off < 0 || p.P.Off >= len(p.P.Obj.Cells) {
		rt.Trapf("bad pointer in runtime call")
	}
	p.P.Obj.Cells[p.P.Off] = v
}
