package ir

import (
	"fmt"
	"strconv"
)

// Value is anything that can appear as an instruction operand: constants,
// globals, function parameters, functions, and instructions themselves.
type Value interface {
	// Type returns the type of the value.
	Type() Type
	// Ident returns the operand spelling, e.g. "%iv", "@A", "42", "3.5".
	Ident() string
}

// ConstInt is an integer constant of a specific integer type.
type ConstInt struct {
	Typ *BasicType
	V   int64
}

// IntConst returns an integer constant of type t.
func IntConst(t *BasicType, v int64) *ConstInt { return &ConstInt{Typ: t, V: v} }

// I64Const returns an i64 constant.
func I64Const(v int64) *ConstInt { return &ConstInt{Typ: I64, V: v} }

// I32Const returns an i32 constant.
func I32Const(v int64) *ConstInt { return &ConstInt{Typ: I32, V: v} }

// BoolConst returns an i1 constant.
func BoolConst(b bool) *ConstInt {
	if b {
		return &ConstInt{Typ: I1, V: 1}
	}
	return &ConstInt{Typ: I1, V: 0}
}

// Type returns the constant's type.
func (c *ConstInt) Type() Type { return c.Typ }

// Ident returns the decimal spelling of the constant.
func (c *ConstInt) Ident() string { return strconv.FormatInt(c.V, 10) }

// ConstFloat is a floating-point constant.
type ConstFloat struct {
	Typ *BasicType
	V   float64
}

// F64Const returns a double constant.
func F64Const(v float64) *ConstFloat { return &ConstFloat{Typ: F64, V: v} }

// Type returns the constant's type.
func (c *ConstFloat) Type() Type { return c.Typ }

// Ident returns the constant formatted so that it round-trips via ParseFloat.
func (c *ConstFloat) Ident() string {
	s := strconv.FormatFloat(c.V, 'g', -1, 64)
	// Ensure the token is recognizably a float when reparsed.
	if !containsAny(s, ".eE") && !containsAny(s, "iInN") {
		s += ".0"
	}
	return s
}

func containsAny(s, chars string) bool {
	for i := 0; i < len(s); i++ {
		for j := 0; j < len(chars); j++ {
			if s[i] == chars[j] {
				return true
			}
		}
	}
	return false
}

// ConstNull is a null pointer constant of a specific pointer type.
type ConstNull struct {
	Typ *PtrType
}

// Null returns the null constant of pointer type t.
func Null(t *PtrType) *ConstNull { return &ConstNull{Typ: t} }

// Type returns the null constant's pointer type.
func (c *ConstNull) Type() Type { return c.Typ }

// Ident returns "null".
func (c *ConstNull) Ident() string { return "null" }

// ConstUndef is an undefined value of a given type, used when a value is
// needed syntactically but is never observed.
type ConstUndef struct {
	Typ Type
}

// Undef returns an undef constant of type t.
func Undef(t Type) *ConstUndef { return &ConstUndef{Typ: t} }

// Type returns the undef's type.
func (c *ConstUndef) Type() Type { return c.Typ }

// Ident returns "undef".
func (c *ConstUndef) Ident() string { return "undef" }

// Param is a formal function parameter.
type Param struct {
	Nam    string
	Typ    Type
	Parent *Function
	// SourceName is the variable name from the original source, when known
	// (attached by the frontend, used by the decompiler's variable
	// generation).
	SourceName string
}

// Type returns the parameter's type.
func (p *Param) Type() Type { return p.Typ }

// Ident returns "%name".
func (p *Param) Ident() string { return "%" + p.Nam }

// Name returns the bare parameter name.
func (p *Param) Name() string { return p.Nam }

// Global is a module-level variable. Its value is a pointer to Elem.
type Global struct {
	Nam  string
	Elem Type
	// Init holds a scalar initializer when present; aggregate globals are
	// zero-initialized.
	Init Value
	// Constant marks read-only globals.
	Constant bool
}

// Type returns the pointer-to-element type of the global.
func (g *Global) Type() Type { return Ptr(g.Elem) }

// Ident returns "@name".
func (g *Global) Ident() string { return "@" + g.Nam }

// Name returns the bare global name.
func (g *Global) Name() string { return g.Nam }

// ValueString renders "type ident" for diagnostics.
func ValueString(v Value) string {
	if v == nil {
		return "<nil>"
	}
	return fmt.Sprintf("%s %s", v.Type(), v.Ident())
}
