package splendid

import (
	"strings"
	"testing"

	"repro/internal/cfront"
	"repro/internal/interp"
	"repro/internal/passes"
)

// scheduleSrc builds the decompilation input: a worksharing loop
// annotated with the given schedule clause.
func scheduleSrc(clause string) string {
	return `
#define N 300
double A[N];
double B[N];

void seed() {
  for (long i = 0; i < N; i++) {
    B[i] = i % 23;
  }
}
void kernel() {
  #pragma omp parallel
  {
    #pragma omp for ` + clause + `
    for (long i = 0; i < N; i++) {
      A[i] = B[i] * 3.0 + 1.0;
    }
  }
}
`
}

// TestScheduleResugar: each dispatch schedule kind survives the full
// round trip — compile, optimize, decompile back to pragma'd C naming
// the same kind, recompile, and execute bitwise-identically to the
// reference at 1 and 8 threads. The re-sugaring used to know only
// "static" and "dynamic"; guided came back mislabeled as dynamic and
// auto's placeholder chunk leaked into the pragma.
func TestScheduleResugar(t *testing.T) {
	cases := []struct {
		clause string // what the programmer wrote
		want   string // what the decompiler must print
		reject string // what it must not print
	}{
		{"schedule(dynamic, 8)", "schedule(dynamic, 8)", "schedule(guided"},
		{"schedule(guided, 8)", "schedule(guided, 8)", "schedule(dynamic"},
		{"schedule(guided)", "schedule(guided)", "schedule(guided,"},
		{"schedule(auto)", "schedule(auto)", "schedule(auto,"},
	}
	for _, c := range cases {
		t.Run(c.clause, func(t *testing.T) {
			src := scheduleSrc(c.clause)
			m, err := cfront.CompileSource(src, "sched", nil)
			if err != nil {
				t.Fatal(err)
			}
			passes.Optimize(m, passes.RunConfig{})
			res, err := Decompile(m, Full(), passes.RunConfig{})
			if err != nil {
				t.Fatalf("decompile: %v", err)
			}
			if !strings.Contains(res.C, c.want) {
				t.Errorf("re-sugared pragma %q missing:\n%s", c.want, res.C)
			}
			if strings.Contains(res.C, c.reject) {
				t.Errorf("re-sugared output contains %q:\n%s", c.reject, res.C)
			}
			if strings.Contains(res.C, "__kmpc") {
				t.Errorf("runtime calls survived:\n%s", res.C)
			}

			rec, err := cfront.CompileSource(res.C, "rec", nil)
			if err != nil {
				t.Fatalf("recompile: %v\n%s", err, res.C)
			}
			passes.Optimize(rec, passes.RunConfig{})
			ref, _ := cfront.CompileSource(src, "ref", nil)
			refMach := interp.NewMachine(ref, interp.Options{})
			mustRunFns(t, refMach, "seed", "kernel")
			want := refMach.GlobalMem("A")
			for _, threads := range []int{1, 8} {
				mach := interp.NewMachine(rec, interp.Options{NumThreads: threads})
				mustRunFns(t, mach, "seed", "kernel")
				got := mach.GlobalMem("A")
				for i := range want.Cells {
					if want.Cells[i].F != got.Cells[i].F {
						t.Fatalf("threads=%d: A[%d] = %v, want %v\n%s",
							threads, i, got.Cells[i], want.Cells[i], res.C)
					}
				}
			}
		})
	}
}
