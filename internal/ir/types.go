// Package ir implements a compact SSA intermediate representation modeled
// on LLVM-IR. It provides the module/function/block/instruction hierarchy,
// a builder, a verifier, a textual printer, and a parser for the printed
// form. The subset implemented is exactly what the SPLENDID pipeline
// consumes: integer and floating-point arithmetic, memory via
// alloca/load/store/getelementptr, control flow via br/condbr/ret, SSA phi
// nodes, calls (including OpenMP runtime calls), and debug-value
// intrinsics that relate SSA values to source variable names.
package ir

import (
	"fmt"
	"math"
	"strings"
)

// Type is the interface implemented by all IR types.
type Type interface {
	// String returns the textual form of the type, e.g. "i64" or "double*".
	String() string
	// Equal reports whether two types are structurally identical.
	Equal(Type) bool
}

// BasicKind enumerates the primitive types.
type BasicKind int

// Primitive type kinds.
const (
	KindVoid BasicKind = iota
	KindI1
	KindI8
	KindI32
	KindI64
	KindF32
	KindF64
)

// BasicType is a primitive (non-composite) type.
type BasicType struct {
	Kind BasicKind
}

// Singleton basic types. Types are compared structurally, but using these
// shared instances keeps printed IR and tests tidy.
var (
	Void = &BasicType{KindVoid}
	I1   = &BasicType{KindI1}
	I8   = &BasicType{KindI8}
	I32  = &BasicType{KindI32}
	I64  = &BasicType{KindI64}
	F32  = &BasicType{KindF32}
	F64  = &BasicType{KindF64}
)

func (t *BasicType) String() string {
	switch t.Kind {
	case KindVoid:
		return "void"
	case KindI1:
		return "i1"
	case KindI8:
		return "i8"
	case KindI32:
		return "i32"
	case KindI64:
		return "i64"
	case KindF32:
		return "float"
	case KindF64:
		return "double"
	}
	return fmt.Sprintf("badtype(%d)", t.Kind)
}

// Equal reports structural equality with u.
func (t *BasicType) Equal(u Type) bool {
	b, ok := u.(*BasicType)
	return ok && b.Kind == t.Kind
}

// IsInteger reports whether t is one of the integer types (including i1).
func (t *BasicType) IsInteger() bool {
	switch t.Kind {
	case KindI1, KindI8, KindI32, KindI64:
		return true
	}
	return false
}

// IsFloat reports whether t is a floating-point type.
func (t *BasicType) IsFloat() bool {
	return t.Kind == KindF32 || t.Kind == KindF64
}

// PtrType is a typed pointer, e.g. "double*".
type PtrType struct {
	Elem Type
}

// Ptr returns the pointer type to elem.
func Ptr(elem Type) *PtrType { return &PtrType{Elem: elem} }

func (t *PtrType) String() string { return t.Elem.String() + "*" }

// Equal reports structural equality with u.
func (t *PtrType) Equal(u Type) bool {
	p, ok := u.(*PtrType)
	return ok && p.Elem.Equal(t.Elem)
}

// ArrayType is a fixed-length array, e.g. "[1000 x double]".
type ArrayType struct {
	Len  int
	Elem Type
}

// Array returns the array type of n elements of elem.
func Array(n int, elem Type) *ArrayType { return &ArrayType{Len: n, Elem: elem} }

func (t *ArrayType) String() string {
	return fmt.Sprintf("[%d x %s]", t.Len, t.Elem)
}

// Equal reports structural equality with u.
func (t *ArrayType) Equal(u Type) bool {
	a, ok := u.(*ArrayType)
	return ok && a.Len == t.Len && a.Elem.Equal(t.Elem)
}

// FuncType is a function signature type.
type FuncType struct {
	Ret      Type
	Params   []Type
	Variadic bool
}

func (t *FuncType) String() string {
	var b strings.Builder
	b.WriteString(t.Ret.String())
	b.WriteString(" (")
	for i, p := range t.Params {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(p.String())
	}
	if t.Variadic {
		if len(t.Params) > 0 {
			b.WriteString(", ")
		}
		b.WriteString("...")
	}
	b.WriteString(")")
	return b.String()
}

// Equal reports structural equality with u.
func (t *FuncType) Equal(u Type) bool {
	f, ok := u.(*FuncType)
	if !ok || !f.Ret.Equal(t.Ret) || len(f.Params) != len(t.Params) || f.Variadic != t.Variadic {
		return false
	}
	for i := range t.Params {
		if !f.Params[i].Equal(t.Params[i]) {
			return false
		}
	}
	return true
}

// IsVoid reports whether t is the void type.
func IsVoid(t Type) bool {
	b, ok := t.(*BasicType)
	return ok && b.Kind == KindVoid
}

// IsIntegerType reports whether t is an integer type.
func IsIntegerType(t Type) bool {
	b, ok := t.(*BasicType)
	return ok && b.IsInteger()
}

// IsFloatType reports whether t is a floating-point type.
func IsFloatType(t Type) bool {
	b, ok := t.(*BasicType)
	return ok && b.IsFloat()
}

// IsPtrType reports whether t is a pointer type.
func IsPtrType(t Type) bool {
	_, ok := t.(*PtrType)
	return ok
}

// ElemOf returns the pointee of a pointer type, or nil if t is not a pointer.
func ElemOf(t Type) Type {
	if p, ok := t.(*PtrType); ok {
		return p.Elem
	}
	return nil
}

// SizeOfElems returns the size of t measured in scalar cells. Scalars count
// as 1; arrays multiply. Pointers count as 1 cell. This is the unit the
// interpreter's memory model uses, sidestepping byte-level layout while
// keeping getelementptr arithmetic exact. A size that does not fit in an
// int (or a negative array length) saturates at math.MaxInt, so it can
// never wrap into a small or negative cell count.
func SizeOfElems(t Type) int {
	tt, ok := t.(*ArrayType)
	if !ok {
		return 1
	}
	n := SizeOfElems(tt.Elem)
	if tt.Len < 0 || tt.Len > 0 && n > math.MaxInt/tt.Len {
		return math.MaxInt
	}
	return tt.Len * n
}
