package rellic

import (
	"strings"
	"testing"

	"repro/internal/cast"
	"repro/internal/cfront"
	"repro/internal/parallel"
	"repro/internal/passes"
	"repro/internal/splendid"
)

const src = `
#define N 100
double A[N];
double B[N];
void kernel() {
  for (long i = 1; i < N - 1; i++) {
    B[i] = (A[i-1] + A[i] + A[i+1]) / 3.0;
  }
}
`

func TestRellicStyle(t *testing.T) {
	m, err := cfront.CompileSource(src, "t", nil)
	if err != nil {
		t.Fatal(err)
	}
	passes.Optimize(m, passes.RunConfig{})
	parallel.Parallelize(m, parallel.Options{})
	c := cast.Print(Decompile(m))

	// Unportable: runtime calls survive in the output (the paper's core
	// criticism of the baseline).
	for _, want := range []string{"__kmpc_fork_call", "__kmpc_for_static_init_8", "__kmpc_for_static_fini"} {
		if !strings.Contains(c, want) {
			t.Errorf("runtime call %q missing:\n%s", want, c)
		}
	}
	// Rotated loops come out as do-while behind a guard if.
	if !strings.Contains(c, "do {") {
		t.Errorf("no do-while:\n%s", c)
	}
	// Register-derived names and cast-heavy expressions.
	if !strings.Contains(c, "val") {
		t.Errorf("no valN names:\n%s", c)
	}
	if !strings.Contains(c, "(long)") {
		t.Errorf("no redundant casts:\n%s", c)
	}
	// No OpenMP pragmas: Rellic does not translate parallelism.
	if strings.Contains(c, "#pragma") {
		t.Errorf("baseline produced pragmas:\n%s", c)
	}
}

// The deliberate contrast of the paper's Figure 1: same IR, SPLENDID
// output is pragma-based and for-looped while Rellic's is not.
func TestContrastWithSplendid(t *testing.T) {
	m, err := cfront.CompileSource(src, "t", nil)
	if err != nil {
		t.Fatal(err)
	}
	passes.Optimize(m, passes.RunConfig{})
	parallel.Parallelize(m, parallel.Options{})
	rellicC := cast.Print(Decompile(m))
	res, err := splendid.Decompile(m, splendid.Full(), passes.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(res.C, "__kmpc") || !strings.Contains(res.C, "#pragma omp") {
		t.Errorf("SPLENDID output not portable:\n%s", res.C)
	}
	if len(rellicC) < 2*len(res.C) {
		t.Errorf("Rellic output (%d bytes) not substantially longer than SPLENDID (%d bytes)",
			len(rellicC), len(res.C))
	}
}

func TestDecompileFunction(t *testing.T) {
	m, err := cfront.CompileSource(src, "t", nil)
	if err != nil {
		t.Fatal(err)
	}
	passes.Optimize(m, passes.RunConfig{})
	fd := DecompileFunction(m.FuncByName("kernel"))
	if fd.Name != "kernel" {
		t.Errorf("name = %q", fd.Name)
	}
	c := cast.Print(&cast.File{Funcs: []*cast.FuncDecl{fd}})
	if !strings.Contains(c, "val") {
		t.Errorf("no valN naming:\n%s", c)
	}
}
