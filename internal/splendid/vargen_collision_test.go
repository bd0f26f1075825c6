package splendid

import (
	"testing"

	"repro/internal/ir"
)

// FinalNames suffixes a fallback that collides with a proposed source
// name (i -> i_r), but the chosen fallback must itself be reserved: with
// params %i and %i_r and the source name "i" already taken, both params
// would otherwise land on "i_r" and the emitted C would redeclare it.
func TestFinalNamesFallbackCollision(t *testing.T) {
	m := ir.MustParse(`
define i64 @f(i64 %i, i64 %i_r) {
entry:
  %a = add i64 %i, %i_r
  ret i64 %a
}
`)
	f := m.FuncByName("f")
	var add *ir.Instr
	f.Instrs(func(in *ir.Instr) {
		if in.Nam == "a" {
			add = in
		}
	})
	if add == nil {
		t.Fatal("no %a instruction")
	}
	// Debug metadata relates %a to source variable "i"; both params lost
	// theirs and fall back to IR-derived names.
	names := FinalNames(f, map[ir.Value]string{add: "i"}, nil)

	seen := map[string]ir.Value{}
	for v, n := range names {
		if prev, dup := seen[n]; dup {
			t.Fatalf("name %q assigned to both %s and %s:\n%v", n, prev.Ident(), v.Ident(), names)
		}
		seen[n] = v
	}
	if names[add] != "i" {
		t.Errorf("proposed name dropped: %%a = %q, want \"i\"", names[add])
	}
	for _, p := range f.Params {
		if names[p] == "" {
			t.Errorf("param %%%s got no name", p.Nam)
		}
	}
}
