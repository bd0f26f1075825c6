package benchgate

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func profile() *Profile {
	return &Profile{
		Schema: ProfileSchema, Threads: 4, Size: "mini", Geomean: 16.7,
		Kernels: []Kernel{
			{Kernel: "gemm", Speedup: 3.98, EngineSpeedup: 15.9},
			{Kernel: "jacobi-2d", Speedup: 3.5, EngineSpeedup: 18.1},
		},
		Schedules: []Schedule{
			{Kernel: "imbalanced", Schedule: "static", Threads: 4, Speedup: 2.26, LoadBalance: 0.57, Chunks: 4},
			{Kernel: "imbalanced", Schedule: "dynamic", Threads: 4, Speedup: 3.66, LoadBalance: 0.94, Chunks: 48},
			{Kernel: "imbalanced", Schedule: "guided", Threads: 4, Speedup: 2.77, LoadBalance: 0.71, Chunks: 21},
			{Kernel: "imbalanced", Schedule: "auto", Threads: 4, Speedup: 2.27, LoadBalance: 0.58, Chunks: 24},
		},
	}
}

// TestGatePasses: an identical candidate clears the gate, as does one
// inside tolerance.
func TestGatePasses(t *testing.T) {
	tol := Tolerances{Geomean: 0.4, Speedup: 0.1, Balance: 0.25}
	// 1 geomean + 2 kernels + 4 schedules x 2 figures + 1 guided-vs-static.
	rep, err := Compare(profile(), profile(), tol)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || len(rep.Checks) != 12 {
		t.Fatalf("identical candidate failed: %+v", rep)
	}

	slower := profile()
	slower.Geomean *= 0.7                  // within the 40% allowance
	slower.Kernels[0].Speedup *= 0.95      // within the 10% allowance
	slower.Schedules[2].LoadBalance *= 0.9 // within the 25% allowance
	slower.Schedules[3].Speedup *= 0.8     // ditto
	rep, err = Compare(profile(), slower, tol)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Errorf("in-tolerance candidate failed: %+v", rep)
	}
}

// TestGateFailsDoctored: a doctored candidate — geomean halved below
// tolerance, one kernel's speedup gutted, another kernel missing — must
// fail with one failed check per regression.
func TestGateFailsDoctored(t *testing.T) {
	tol := Tolerances{Geomean: 0.4, Speedup: 0.1, Balance: 0.25}

	doctored := profile()
	doctored.Geomean *= 0.5 // below the 0.6x floor
	rep, err := Compare(profile(), doctored, tol)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || rep.Failed != 1 {
		t.Errorf("halved geomean not caught: %+v", rep)
	}

	doctored = profile()
	doctored.Kernels[0].Speedup = 1.0
	rep, err = Compare(profile(), doctored, tol)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || rep.Failed != 1 {
		t.Errorf("gutted kernel speedup not caught: %+v", rep)
	}

	doctored = profile()
	doctored.Kernels = doctored.Kernels[:1] // jacobi-2d vanished
	rep, err = Compare(profile(), doctored, tol)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || rep.Failed != 1 {
		t.Errorf("missing kernel not caught: %+v", rep)
	}
	var buf bytes.Buffer
	rep.Write(&buf)
	if !strings.Contains(buf.String(), "REGRESSED") {
		t.Errorf("report does not mark the regression:\n%s", buf.String())
	}
}

// TestGateSchedules: the schedules section gates like the kernels —
// rows drifting beyond the loose Balance tolerance or vanishing fail —
// and the candidate-internal guided-vs-static invariant catches a
// guided schedule that stopped rebalancing even when every row sits
// within drift tolerance of the baseline.
func TestGateSchedules(t *testing.T) {
	tol := Tolerances{Geomean: 0.4, Speedup: 0.1, Balance: 0.25}

	collapsed := profile()
	collapsed.Schedules[1].LoadBalance = 0.3 // dynamic fell off a cliff
	rep, err := Compare(profile(), collapsed, tol)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || rep.Failed != 1 {
		t.Errorf("collapsed dynamic balance not caught: %+v", rep)
	}

	gone := profile()
	gone.Schedules = gone.Schedules[:3] // auto vanished
	rep, err = Compare(profile(), gone, tol)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || rep.Failed != 2 { // speedup and balance both missing
		t.Errorf("missing auto row not caught twice: %+v", rep)
	}

	// Guided degraded to static's balance: every row is within the loose
	// drift tolerance of the baseline, but the invariant still fails.
	degraded := profile()
	degraded.Schedules[2].LoadBalance = 0.58
	rep, err = Compare(profile(), degraded, tol)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || rep.Failed != 1 {
		t.Errorf("guided-at-static-balance not caught by the invariant: %+v", rep)
	}
	found := false
	for _, c := range rep.Checks {
		if c.Name == "guided_rebalances_vs_static" && !c.OK {
			found = true
		}
	}
	if !found {
		t.Errorf("no failed guided_rebalances_vs_static check: %+v", rep.Checks)
	}

	// A pre-schedules baseline gates only its kernels; the candidate's
	// extra section is informational, but its internal invariant still
	// holds the candidate to the guided claim.
	old := profile()
	old.Schedules = nil
	rep, err = Compare(old, profile(), tol)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || len(rep.Checks) != 4 { // geomean + 2 kernels + invariant
		t.Errorf("pre-schedules baseline mis-gated: %+v", rep)
	}
}

// TestGateConfigMismatch: different size or thread count is an error,
// not a verdict.
func TestGateConfigMismatch(t *testing.T) {
	std := profile()
	std.Size = "std"
	if _, err := Compare(profile(), std, Tolerances{}); err == nil {
		t.Error("size mismatch not rejected")
	}
	wide := profile()
	wide.Threads = 8
	if _, err := Compare(profile(), wide, Tolerances{}); err == nil {
		t.Error("thread-count mismatch not rejected")
	}
}

// TestLoad: round-trips a profile file, and rejects wrong schemas and
// empty kernel lists.
func TestLoad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")
	b, _ := json.Marshal(profile())
	os.WriteFile(path, b, 0o644)
	p, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if p.Geomean != 16.7 || len(p.Kernels) != 2 {
		t.Errorf("loaded profile: %+v", p)
	}

	bad := profile()
	bad.Schema = "something/v9"
	b, _ = json.Marshal(bad)
	os.WriteFile(path, b, 0o644)
	if _, err := Load(path); err == nil {
		t.Error("wrong schema accepted")
	}
	empty := profile()
	empty.Kernels = nil
	b, _ = json.Marshal(empty)
	os.WriteFile(path, b, 0o644)
	if _, err := Load(path); err == nil {
		t.Error("kernel-less profile accepted")
	}
	if _, err := Load(filepath.Join(dir, "absent.json")); err == nil {
		t.Error("missing file accepted")
	}
}

// TestLoadRealBaseline: the checked-in BENCH_runtime.json must always
// satisfy the gate against itself — the invariant `make bench-gate`
// relies on.
func TestLoadRealBaseline(t *testing.T) {
	p, err := Load("../../BENCH_runtime.json")
	if err != nil {
		t.Skipf("no checked-in baseline: %v", err)
	}
	rep, err := Compare(p, p, Tolerances{Geomean: 0.4, Speedup: 0.1, Balance: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Errorf("baseline does not pass against itself: %+v", rep)
	}
}
