// Package omp defines the OpenMP runtime-call vocabulary shared by the
// parallelizer (which emits the calls), the interpreter (which executes
// them with goroutine-backed workers), the SPLENDID decompiler (which
// recognizes and eliminates them), and the frontend (which lowers
// #pragma omp back to them when recompiling decompiled code).
//
// The modeled runtime is the LLVM/OpenMP runtime (libomp) subset Polly
// emits, per the paper: fork call, static-for init/fini, and barrier.
package omp

import "repro/internal/ir"

// Runtime entry-point names, matching the LLVM/OpenMP runtime.
const (
	ForkCall      = "__kmpc_fork_call"
	ForStaticInit = "__kmpc_for_static_init_8"
	ForStaticFini = "__kmpc_for_static_fini"
	Barrier       = "__kmpc_barrier"
	GlobalThread  = "__kmpc_global_thread_num"
	// PushNumThreads sets the worker count for the next fork.
	PushNumThreads = "__kmpc_push_num_threads"

	// Atomic reduction combiners (libomp naming: float8 = double,
	// fixed8 = 64-bit integer). The paper lists reduction as future work
	// (§7) and notes the same region-detransformation design applies;
	// this reproduction implements it.
	AtomicAddF64 = "__kmpc_atomic_float8_add"
	AtomicMulF64 = "__kmpc_atomic_float8_mul"
	AtomicAddI64 = "__kmpc_atomic_fixed8_add"
	AtomicMulI64 = "__kmpc_atomic_fixed8_mul"

	// Dynamic worksharing (paper §7 future work: "many OpenMP features,
	// such as dynamic scheduling, are lowered into similar constructs").
	DispatchInit = "__kmpc_dispatch_init_8"
	DispatchNext = "__kmpc_dispatch_next_8"
)

// Schedule kinds (kmp_sched_t values used by __kmpc_for_static_init
// and __kmpc_dispatch_init).
const (
	SchedStatic        int64 = 34 // kmp_sch_static: contiguous chunks
	SchedStaticChunked int64 = 33 // kmp_sch_static_chunked
	SchedDynamic       int64 = 35 // kmp_sch_dynamic_chunked
	SchedGuided        int64 = 36 // kmp_sch_guided_chunked: decaying chunks
	SchedAuto          int64 = 38 // kmp_sch_auto: runtime-chosen; runs as guided, like libomp
)

// SchedName maps a schedule kind to its pragma spelling ("static",
// "dynamic", "guided", "auto"); ok is false for unknown kinds.
func SchedName(kind int64) (string, bool) {
	switch kind {
	case SchedStatic, SchedStaticChunked:
		return "static", true
	case SchedDynamic:
		return "dynamic", true
	case SchedGuided:
		return "guided", true
	case SchedAuto:
		return "auto", true
	}
	return "", false
}

// IsStaticSched reports whether kind is served by __kmpc_for_static_init.
func IsStaticSched(kind int64) bool {
	return kind == SchedStatic || kind == SchedStaticChunked
}

// IsDispatchSched reports whether kind is served by the dispatch
// (shared-cursor) runtime path.
func IsDispatchSched(kind int64) bool {
	return kind == SchedDynamic || kind == SchedGuided || kind == SchedAuto
}

// Schedule math shared by the team runtime and the golden evaluator.
// Both sides must take identical chunk sequences for a given space, or
// fuel verdicts and published bounds would diverge between the machine
// at one thread and the independent golden run; keeping the arithmetic
// here, pure and overflow-checked, is what makes that a non-event.

const (
	maxInt64 = int64(^uint64(0) >> 1)
	minInt64 = -maxInt64 - 1
)

// TripCount computes the trip count of the inclusive iteration space
// [lb, ub] walked by incr (nonzero). A space the increment walks away
// from is empty (trip 0). ok is false when the count does not fit in
// int64 — the caller must trap rather than let the wrapped value pick
// different iterations on different engines.
func TripCount(lb, ub, incr int64) (trip int64, ok bool) {
	if incr > 0 && ub < lb || incr < 0 && ub > lb {
		return 0, true
	}
	span := ub - lb
	// Same-signed nonempty bounds cannot wrap; mixed signs can.
	if (span > 0) != (ub > lb) && span != 0 {
		return 0, false
	}
	if span == minInt64 && incr == -1 {
		return 0, false // |span|/1 + 1 and even the division itself overflow
	}
	trip = span/incr + 1
	if trip <= 0 { // span/incr == maxInt64 wrapped
		return 0, false
	}
	return trip, true
}

// StaticSpan assigns worker tid of n its contiguous index-space range
// [start, start+count) over trip iterations. balanced selects the
// libgomp-style equal split (remainder spread over the first workers);
// otherwise libomp-style ceiling chunks, where trailing workers may be
// empty. Index-space results are in [0, trip], so materializing
// lb + i*incr can never leave the (already validated) value space.
func StaticSpan(trip int64, n, tid int, balanced bool) (start, count int64) {
	if trip <= 0 || tid >= n {
		return 0, 0
	}
	if balanced {
		q, r := trip/int64(n), trip%int64(n)
		if int64(tid) < r {
			count = q + 1
			start = int64(tid) * count
		} else {
			count = q
			start = r*(q+1) + (int64(tid)-r)*q
		}
		return start, count
	}
	chunk := trip / int64(n)
	if trip%int64(n) != 0 {
		chunk++
	}
	if tid > 0 && chunk > maxInt64/int64(tid) {
		return 0, 0 // tid*chunk would overflow, so it is certainly past trip
	}
	start = int64(tid) * chunk
	if start >= trip {
		return 0, 0
	}
	count = chunk
	if count > trip-start { // overflow-safe: start < trip, both nonnegative
		count = trip - start
	}
	return start, count
}

// GuidedTake is the next guided chunk: proportional to the remaining
// iterations over twice the team size — an exponentially decaying
// sequence — clamped below by the pragma's chunk parameter and above by
// what remains. Deterministic in remaining: the chunk-size sequence of a
// guided loop is a pure function of the space, only the assignment of
// chunks to workers is timing-dependent.
func GuidedTake(remaining, minChunk int64, nthreads int) int64 {
	if remaining <= 0 {
		return 0
	}
	if minChunk < 1 {
		minChunk = 1
	}
	den := 2 * int64(nthreads)
	take := (remaining + den - 1) / den
	if take < minChunk {
		take = minChunk
	}
	if take > remaining {
		take = remaining
	}
	return take
}

// EmptyRange is the (lower, upper) pair published to a worker with no
// iterations: a constant pair no loop direction enters. The historical
// lb, lb-incr pair wrapped when lb sat at the int64 boundary, handing
// the worker a full wrap of the value space instead of nothing.
func EmptyRange(incr int64) (lo, hi int64) {
	if incr > 0 {
		return 1, 0
	}
	return 0, 1
}

// IsRuntimeCall reports whether name is one of the modeled entry points.
func IsRuntimeCall(name string) bool {
	switch name {
	case ForkCall, ForStaticInit, ForStaticFini, Barrier, GlobalThread, PushNumThreads,
		AtomicAddF64, AtomicMulF64, AtomicAddI64, AtomicMulI64,
		DispatchInit, DispatchNext:
		return true
	}
	return false
}

// IsAtomicCombine reports whether in calls one of the atomic reduction
// combiners, returning the C operator ("+" or "*") when it does.
func IsAtomicCombine(in *ir.Instr) (string, bool) {
	if in == nil || in.Op != ir.OpCall {
		return "", false
	}
	f, ok := in.Callee.(*ir.Function)
	if !ok {
		return "", false
	}
	switch f.Nam {
	case AtomicAddF64, AtomicAddI64:
		return "+", true
	case AtomicMulF64, AtomicMulI64:
		return "*", true
	}
	return "", false
}

// AtomicCombineFor returns the combiner entry point for op ("+"/"*") on
// the given scalar type.
func AtomicCombineFor(op string, t ir.Type) string {
	if ir.IsFloatType(t) {
		if op == "*" {
			return AtomicMulF64
		}
		return AtomicAddF64
	}
	if op == "*" {
		return AtomicMulI64
	}
	return AtomicAddI64
}

// DeclareRuntime registers declarations for every runtime entry point in
// m and returns them keyed by name. Signatures (simplified from libomp,
// with the ident_t* location argument dropped):
//
//	void __kmpc_fork_call(i32 argc, microtask fn, shared args...)
//	void __kmpc_for_static_init_8(i32 gtid, i32 sched,
//	     i64* plastiter, i64* plower, i64* pupper, i64* pstride,
//	     i64 incr, i64 chunk)
//	void __kmpc_for_static_fini(i32 gtid)
//	void __kmpc_barrier(i32 gtid)
//	i32  __kmpc_global_thread_num()
//	void __kmpc_push_num_threads(i32 gtid, i32 n)
//
// The microtask receives (i32* gtid, i32* btid, shared args...); the fork
// call is variadic over the shared arguments, as in libomp.
func DeclareRuntime(m *ir.Module) map[string]*ir.Function {
	decls := map[string]*ir.Function{}
	decls[ForkCall] = m.DeclareFunc(ForkCall, &ir.FuncType{
		Ret: ir.Void, Params: []ir.Type{ir.I32}, Variadic: true,
	})
	decls[ForStaticInit] = m.DeclareFunc(ForStaticInit, &ir.FuncType{
		Ret: ir.Void,
		Params: []ir.Type{
			ir.I32, ir.I32,
			ir.Ptr(ir.I64), ir.Ptr(ir.I64), ir.Ptr(ir.I64), ir.Ptr(ir.I64),
			ir.I64, ir.I64,
		},
	})
	decls[ForStaticFini] = m.DeclareFunc(ForStaticFini, &ir.FuncType{
		Ret: ir.Void, Params: []ir.Type{ir.I32},
	})
	decls[Barrier] = m.DeclareFunc(Barrier, &ir.FuncType{
		Ret: ir.Void, Params: []ir.Type{ir.I32},
	})
	decls[GlobalThread] = m.DeclareFunc(GlobalThread, &ir.FuncType{
		Ret: ir.I32,
	})
	decls[PushNumThreads] = m.DeclareFunc(PushNumThreads, &ir.FuncType{
		Ret: ir.Void, Params: []ir.Type{ir.I32, ir.I32},
	})
	decls[AtomicAddF64] = m.DeclareFunc(AtomicAddF64, &ir.FuncType{
		Ret: ir.Void, Params: []ir.Type{ir.Ptr(ir.F64), ir.F64},
	})
	decls[AtomicMulF64] = m.DeclareFunc(AtomicMulF64, &ir.FuncType{
		Ret: ir.Void, Params: []ir.Type{ir.Ptr(ir.F64), ir.F64},
	})
	decls[AtomicAddI64] = m.DeclareFunc(AtomicAddI64, &ir.FuncType{
		Ret: ir.Void, Params: []ir.Type{ir.Ptr(ir.I64), ir.I64},
	})
	decls[AtomicMulI64] = m.DeclareFunc(AtomicMulI64, &ir.FuncType{
		Ret: ir.Void, Params: []ir.Type{ir.Ptr(ir.I64), ir.I64},
	})
	// void __kmpc_dispatch_init_8(i32 gtid, i32 sched, i64 lb, i64 ub,
	//                             i64 incr, i64 chunk)
	decls[DispatchInit] = m.DeclareFunc(DispatchInit, &ir.FuncType{
		Ret: ir.Void, Params: []ir.Type{ir.I32, ir.I32, ir.I64, ir.I64, ir.I64, ir.I64},
	})
	// i32 __kmpc_dispatch_next_8(i32 gtid, i64* plast, i64* plower,
	//                            i64* pupper, i64* pstride)
	decls[DispatchNext] = m.DeclareFunc(DispatchNext, &ir.FuncType{
		Ret: ir.I32, Params: []ir.Type{ir.I32, ir.Ptr(ir.I64), ir.Ptr(ir.I64), ir.Ptr(ir.I64), ir.Ptr(ir.I64)},
	})
	return decls
}

// IsDispatchInit reports whether in calls __kmpc_dispatch_init_8.
func IsDispatchInit(in *ir.Instr) bool { return isCallTo(in, DispatchInit) }

// IsDispatchNext reports whether in calls __kmpc_dispatch_next_8.
func IsDispatchNext(in *ir.Instr) bool { return isCallTo(in, DispatchNext) }

// MicrotaskSig returns the signature of an outlined parallel region with
// the given shared-argument types: void(i32* gtid, i32* btid, shared...).
func MicrotaskSig(shared []ir.Type) *ir.FuncType {
	params := append([]ir.Type{ir.Ptr(ir.I32), ir.Ptr(ir.I32)}, shared...)
	return &ir.FuncType{Ret: ir.Void, Params: params}
}

// IsForkCall reports whether in calls __kmpc_fork_call.
func IsForkCall(in *ir.Instr) bool {
	return isCallTo(in, ForkCall)
}

// IsStaticInit reports whether in calls __kmpc_for_static_init_8.
func IsStaticInit(in *ir.Instr) bool {
	return isCallTo(in, ForStaticInit)
}

// IsStaticFini reports whether in calls __kmpc_for_static_fini.
func IsStaticFini(in *ir.Instr) bool {
	return isCallTo(in, ForStaticFini)
}

// IsBarrier reports whether in calls __kmpc_barrier.
func IsBarrier(in *ir.Instr) bool {
	return isCallTo(in, Barrier)
}

func isCallTo(in *ir.Instr, name string) bool {
	if in == nil || in.Op != ir.OpCall {
		return false
	}
	f, ok := in.Callee.(*ir.Function)
	return ok && f.Nam == name
}

// Microtask extracts the outlined function passed to a fork call, or nil.
func Microtask(fork *ir.Instr) *ir.Function {
	if !IsForkCall(fork) || len(fork.Args) < 2 {
		return nil
	}
	f, _ := fork.Args[1].(*ir.Function)
	return f
}

// SharedArgs returns the shared arguments passed to a fork call (the
// values forwarded to the microtask after gtid/btid).
func SharedArgs(fork *ir.Instr) []ir.Value {
	if !IsForkCall(fork) || len(fork.Args) < 2 {
		return nil
	}
	return fork.Args[2:]
}
