package ir

import (
	"fmt"
	"strconv"
)

// Function is a function definition (with blocks) or declaration (without).
type Function struct {
	Nam    string
	Sig    *FuncType
	Params []*Param
	Blocks []*Block
	Parent *Module

	// Outlined marks compiler-generated parallel-region functions (the
	// parallelizer's microtasks). The decompiler uses this only for
	// diagnostics; detection itself goes through fork-call arguments.
	Outlined bool

	nameSeq map[string]int
}

// NewFunction creates a function with the given name and signature and
// materializes its parameter values using paramNames (padded/truncated to
// the signature).
func NewFunction(name string, sig *FuncType, paramNames ...string) *Function {
	f := &Function{Nam: name, Sig: sig, nameSeq: map[string]int{}}
	for i, pt := range sig.Params {
		pn := "arg" + strconv.Itoa(i)
		if i < len(paramNames) && paramNames[i] != "" {
			pn = paramNames[i]
		}
		f.Params = append(f.Params, &Param{Nam: f.FreshName(pn), Typ: pt, Parent: f})
	}
	return f
}

// Type returns the function's signature type. (Functions used as operands,
// e.g. microtask pointers passed to fork calls, are typed by signature.)
func (f *Function) Type() Type { return f.Sig }

// Ident returns "@name".
func (f *Function) Ident() string { return "@" + f.Nam }

// Name returns the bare function name.
func (f *Function) Name() string { return f.Nam }

// IsDecl reports whether the function has no body.
func (f *Function) IsDecl() bool { return len(f.Blocks) == 0 }

// Entry returns the entry block, or nil for a declaration.
func (f *Function) Entry() *Block {
	if len(f.Blocks) == 0 {
		return nil
	}
	return f.Blocks[0]
}

// FreshName returns base if unused, otherwise base+N, and records the use.
func (f *Function) FreshName(base string) string {
	if base == "" {
		base = "t"
	}
	if f.nameSeq == nil {
		f.nameSeq = map[string]int{}
	}
	if _, used := f.nameSeq[base]; !used {
		f.nameSeq[base] = 0
		return base
	}
	for {
		f.nameSeq[base]++
		cand := base + strconv.Itoa(f.nameSeq[base])
		if _, used := f.nameSeq[cand]; !used {
			f.nameSeq[cand] = 0
			return cand
		}
	}
}

// NewBlock appends a new block with a fresh label derived from name.
func (f *Function) NewBlock(name string) *Block {
	b := &Block{Nam: f.FreshName(name), Parent: f}
	f.Blocks = append(f.Blocks, b)
	return b
}

// AddBlock appends an existing block (used by the parser and inliner);
// the caller guarantees label uniqueness.
func (f *Function) AddBlock(b *Block) {
	b.Parent = f
	f.Blocks = append(f.Blocks, b)
}

// RemoveBlock deletes block b from the function.
func (f *Function) RemoveBlock(b *Block) {
	for i, x := range f.Blocks {
		if x == b {
			f.Blocks = append(f.Blocks[:i], f.Blocks[i+1:]...)
			return
		}
	}
}

// BlockByName returns the block labeled name, or nil.
func (f *Function) BlockByName(name string) *Block {
	for _, b := range f.Blocks {
		if b.Nam == name {
			return b
		}
	}
	return nil
}

// ReplaceAllUses substitutes new for old in every instruction operand of
// the function.
func (f *Function) ReplaceAllUses(old, new Value) {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			in.ReplaceUses(old, new)
		}
	}
}

// Uses returns all instructions that use v as an operand (or callee).
func (f *Function) Uses(v Value) []*Instr {
	var uses []*Instr
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Callee == v {
				uses = append(uses, in)
				continue
			}
			for _, a := range in.Args {
				if a == v {
					uses = append(uses, in)
					break
				}
			}
		}
	}
	return uses
}

// HasUses reports whether v appears as an operand anywhere in f, ignoring
// debug intrinsics (which never keep a value alive).
func (f *Function) HasUses(v Value) bool {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == OpDbgValue {
				continue
			}
			if in.Callee == v {
				return true
			}
			for _, a := range in.Args {
				if a == v {
					return true
				}
			}
		}
	}
	return false
}

// Instrs iterates over every instruction, calling fn; iteration snapshot is
// taken per block so fn may append to blocks safely (but not remove).
func (f *Function) Instrs(fn func(*Instr)) {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			fn(in)
		}
	}
}

// NumInstrs counts the instructions in the function.
func (f *Function) NumInstrs() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// RenumberNames is not used in this IR: names are stable handles chosen by
// the frontend and passes via FreshName. (LLVM renumbers %N temporaries;
// we keep symbolic names to preserve debug fidelity.)
//
// RecomputeNameSeq rebuilds the fresh-name table after bulk edits such as
// parsing or cloning, so FreshName never collides with existing names.
func (f *Function) RecomputeNameSeq() {
	f.nameSeq = map[string]int{}
	for _, p := range f.Params {
		f.nameSeq[p.Nam] = 0
	}
	for _, b := range f.Blocks {
		f.nameSeq[b.Nam] = 0
		for _, in := range b.Instrs {
			if in.HasResult() {
				f.nameSeq[in.Nam] = 0
			}
		}
	}
}

// Verify checks structural invariants; see verify.go.
func (f *Function) String() string {
	return fmt.Sprintf("func @%s (%d blocks)", f.Nam, len(f.Blocks))
}
