// Package interp executes IR modules directly. It is the reproduction's
// hardware substitute: the paper measures decompiled programs recompiled
// with Clang/GCC on a 28-core Xeon; here, parallel loops lowered to
// __kmpc_* runtime calls run on real goroutines, so parallel speedup —
// the shape the evaluation cares about — is physically measured rather
// than modeled.
//
// The memory model is typed cells: every allocation is a flat slice of
// scalar cells and a pointer is (object, offset). getelementptr
// arithmetic is exact in cell units (ir.SizeOfElems), which keeps the
// interpreter byte-layout-free while trapping out-of-bounds accesses.
package interp

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/ir"
)

// Kind tags a runtime value.
type Kind uint8

// Runtime value kinds.
const (
	KInt Kind = iota
	KFloat
	KPtr
	KFunc
	KUndef
)

// MemObject is one allocation: a global, an alloca frame slot, or a
// heap object. Cells are scalars addressed by flat index. Base is a
// synthetic linear address assigned at allocation so that cross-object
// pointer comparisons (runtime alias checks) are well defined.
type MemObject struct {
	Name  string
	Base  int64
	Cells []Value
}

// nextBase hands out disjoint synthetic address ranges.
var nextBase atomic.Int64

func init() { nextBase.Store(1 << 20) }

// MaxObjectCells is the largest memory object, in cells, that a global,
// an alloca or a malloc may create. The largest object any supported
// workload allocates is doitgen's A and sum at polybench.SizeLarge
// (160x160x192 = 4,915,200 cells); 1<<23 covers that with 1.7x
// headroom, and polybench's TestLargeGlobalsFitObjectCap keeps it so.
// A bigger request raises TrapAllocLimit instead of reaching the Go
// allocator, where it would panic or exhaust host memory.
const MaxObjectCells = 1 << 23

// AllocLimitTrap is the trap for an object of n cells past
// MaxObjectCells, or nil when n fits. Both engines and the golden
// evaluator raise it, so the three agree on the kind and message.
func AllocLimitTrap(name string, n int) *Trap {
	if n <= MaxObjectCells {
		return nil
	}
	return &Trap{Kind: TrapAllocLimit,
		Msg: fmt.Sprintf("object %s of %d cells exceeds the %d-cell limit", name, n, MaxObjectCells)}
}

// NewMemObject allocates an object of n cells with a fresh address range.
func NewMemObject(name string, n int) *MemObject {
	base := nextBase.Add(int64(n) + 64)
	return &MemObject{Name: name, Base: base - int64(n) - 64, Cells: make([]Value, n)}
}

// Pointer is a typed-cell address.
type Pointer struct {
	Obj *MemObject
	Off int
}

// Nil reports whether the pointer is null.
func (p Pointer) Nil() bool { return p.Obj == nil }

// Value is a runtime scalar: integer, float, pointer, or function.
type Value struct {
	K  Kind
	I  int64
	F  float64
	P  Pointer
	Fn *ir.Function
}

// IntV returns an integer value.
func IntV(v int64) Value { return Value{K: KInt, I: v} }

// FloatV returns a floating-point value.
func FloatV(v float64) Value { return Value{K: KFloat, F: v} }

// PtrV returns a pointer value.
func PtrV(p Pointer) Value { return Value{K: KPtr, P: p} }

// FuncV returns a function value.
func FuncV(f *ir.Function) Value { return Value{K: KFunc, Fn: f} }

// Bool converts a truth value to the i1 runtime representation.
func Bool(b bool) Value {
	if b {
		return IntV(1)
	}
	return IntV(0)
}

func (v Value) String() string {
	switch v.K {
	case KInt:
		return fmt.Sprintf("%d", v.I)
	case KFloat:
		return fmt.Sprintf("%g", v.F)
	case KPtr:
		if v.P.Nil() {
			return "null"
		}
		return fmt.Sprintf("&%s+%d", v.P.Obj.Name, v.P.Off)
	case KFunc:
		return "@" + v.Fn.Nam
	}
	return "undef"
}

// Trap is a runtime error raised by the interpreted program (out of
// bounds, null dereference, division by zero, fuel exhaustion).
type Trap struct {
	Kind TrapKind
	Msg  string
	Fn   string
}

func (t *Trap) Error() string {
	if t.Fn != "" {
		return fmt.Sprintf("trap in @%s: %s", t.Fn, t.Msg)
	}
	return "trap: " + t.Msg
}

// TrapKind classifies a trap by cause. Differential testing compares two
// executions of the "same" program whose trap *messages* legitimately
// differ (register and object names change across a decompile/recompile
// round trip), so equivalence is judged on the kind alone.
type TrapKind uint8

// Trap categories.
const (
	TrapGeneric    TrapKind = iota // uncategorized runtime error
	TrapDivByZero                  // sdiv by zero
	TrapRemByZero                  // srem by zero
	TrapShiftOOB                   // shl/ashr count negative or >= bit width
	TrapMemOOB                     // load/store outside an object
	TrapNullDeref                  // load/store through null or non-pointer
	TrapFuel                       // fuel budget exhausted
	TrapCallDepth                  // interpreted recursion limit
	TrapWorker                     // parallel worker died with a non-Trap error
	TrapAllocLimit                 // object larger than MaxObjectCells
)

func (k TrapKind) String() string {
	switch k {
	case TrapDivByZero:
		return "div-by-zero"
	case TrapRemByZero:
		return "rem-by-zero"
	case TrapShiftOOB:
		return "shift-out-of-bounds"
	case TrapMemOOB:
		return "mem-out-of-bounds"
	case TrapNullDeref:
		return "null-deref"
	case TrapFuel:
		return "fuel-exhausted"
	case TrapCallDepth:
		return "call-depth"
	case TrapWorker:
		return "worker-error"
	case TrapAllocLimit:
		return "alloc-limit"
	}
	return "generic"
}

// TrapKindOf extracts the trap category from an error chain (the driver
// wraps execution errors with %w). The bool is false when err does not
// wrap a *Trap at all.
func TrapKindOf(err error) (TrapKind, bool) {
	var t *Trap
	if errors.As(err, &t) {
		return t.Kind, true
	}
	return TrapGeneric, false
}
