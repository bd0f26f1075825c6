package ghidra

import (
	"strings"
	"testing"

	"repro/internal/cast"
	"repro/internal/cfront"
	"repro/internal/ir"
	"repro/internal/parallel"
	"repro/internal/passes"
)

const src = `
#define N 50
double A[N];
void kernel(long x) {
  for (long i = 0; i < N; i++) {
    A[i] = x * 2.0;
  }
}
`

func TestStripRemovesDebugInfo(t *testing.T) {
	m, err := cfront.CompileSource(src, "t", nil)
	if err != nil {
		t.Fatal(err)
	}
	stripped := Strip(m)
	stripped.Funcs[0].Instrs(func(in *ir.Instr) {})
	for _, f := range stripped.Funcs {
		f.Instrs(func(in *ir.Instr) {
			if in.Op == ir.OpDbgValue {
				t.Errorf("dbg.value survived stripping: %s", in)
			}
		})
	}
	// The original module is untouched.
	found := false
	for _, f := range m.Funcs {
		f.Instrs(func(in *ir.Instr) {
			if in.Op == ir.OpDbgValue {
				found = true
			}
		})
	}
	if !found {
		t.Error("Strip mutated its input")
	}
}

func TestGhidraStyle(t *testing.T) {
	m, err := cfront.CompileSource(src, "t", nil)
	if err != nil {
		t.Fatal(err)
	}
	passes.Optimize(m, passes.RunConfig{})
	parallel.Parallelize(m, parallel.Options{})
	c := cast.Print(Decompile(m))

	// Stripped debug info: synthetic names for params and values; data
	// keeps its symtab name.
	for _, want := range []string{"param_1", "uVar", "double A["} {
		if !strings.Contains(c, want) {
			t.Errorf("missing Ghidra-style element %q:\n%s", want, c)
		}
	}
	// Local source variable names are gone (only the symtab survives).
	if strings.Contains(c, "long i;") || strings.Contains(c, " x;") {
		t.Errorf("local variable names survived stripping:\n%s", c)
	}
	// Runtime calls survive (function symbols come from imports).
	if !strings.Contains(c, "__kmpc_fork_call") {
		t.Errorf("runtime call missing:\n%s", c)
	}
	// Cast-heavy house style.
	if !strings.Contains(c, "(long)") && !strings.Contains(c, "(double)") {
		t.Errorf("no redundant casts:\n%s", c)
	}
}
