// Package benchgate is the perf-regression gate over the repo's
// checked-in runtime benchmark artifact (BENCH_runtime.json, schema
// splendid-runtime-profile/v1). It compares a freshly measured
// candidate profile against the baseline and fails when the
// bytecode-vs-tree engine geomean or any kernel's parallel speedup
// regresses beyond tolerance — the two figures the paper's claims rest
// on. Tolerances are fractional: a geomean tolerance of 0.4 accepts a
// candidate down to 60% of the baseline (wall-clock engine ratios are
// noisy across machines), while the parallel speedups are simulated
// work/span ratios and should barely move at all.
//
// When the baseline carries a schedules section (the imbalanced-kernel
// comparison across static/dynamic/guided/auto), the gate also bounds
// each schedule's speedup and load balance with the loose Balance
// tolerance, and enforces the section's reason to exist: the
// candidate's guided load balance must beat its static load balance by
// a fixed margin.
package benchgate

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// ProfileSchema is the BENCH_runtime.json schema the gate understands.
const ProfileSchema = "splendid-runtime-profile/v1"

// Profile is the slice of the runtime benchmark artifact the gate
// compares; the per-region detail is irrelevant here and left behind.
type Profile struct {
	Schema  string   `json:"schema"`
	Threads int      `json:"threads"`
	Size    string   `json:"size"`
	Geomean float64  `json:"bytecode_vs_tree_geomean"`
	Kernels []Kernel `json:"kernels"`
	// Schedules holds the schedule-kind comparison on the triangular
	// imbalanced kernel — the artifact's evidence that guided and auto
	// actually rebalance skewed work instead of silently running as
	// static. Older artifacts predate the section; the gate only
	// enforces it when the baseline carries it.
	Schedules []Schedule `json:"schedules,omitempty"`
}

// Schedule is one schedule kind's load-balance showing on the
// imbalanced kernel.
type Schedule struct {
	Kernel   string `json:"kernel"`
	Schedule string `json:"schedule"`
	Threads  int    `json:"threads"`
	// Speedup is the simulated parallel speedup over the sequential
	// variant; LoadBalance is min/max thread work. Both depend on which
	// worker wins each chunk race, so they gate with the loose Balance
	// tolerance rather than the tight Speedup one.
	Speedup     float64 `json:"speedup"`
	LoadBalance float64 `json:"load_balance"`
	Chunks      int64   `json:"chunks"`
}

// Kernel is one benchmark kernel's headline figures.
type Kernel struct {
	Kernel string `json:"kernel"`
	// Speedup is the simulated parallel speedup (work over span) — a
	// deterministic figure for a given size and thread count.
	Speedup float64 `json:"speedup"`
	// EngineSpeedup is the measured tree-walker / bytecode wall ratio.
	EngineSpeedup float64 `json:"engine_speedup"`
}

// Load reads and validates a profile artifact.
func Load(path string) (*Profile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("benchgate: %w", err)
	}
	var p Profile
	if err := json.Unmarshal(b, &p); err != nil {
		return nil, fmt.Errorf("benchgate: %s: %w", path, err)
	}
	if p.Schema != ProfileSchema {
		return nil, fmt.Errorf("benchgate: %s: schema %q, want %q", path, p.Schema, ProfileSchema)
	}
	if len(p.Kernels) == 0 {
		return nil, fmt.Errorf("benchgate: %s: no kernels", path)
	}
	return &p, nil
}

// Tolerances sets the allowed fractional regression per figure.
type Tolerances struct {
	// Geomean bounds the engine geomean: candidate must be at least
	// baseline * (1 - Geomean).
	Geomean float64
	// Speedup bounds each kernel's parallel speedup the same way.
	Speedup float64
	// Balance bounds the schedule rows' speedup and load balance. These
	// figures hinge on which worker wins each dispatch chunk, so they
	// wander far more than the DOALL speedups and need a loose bound.
	Balance float64
}

// guidedBalanceMargin is how much better than static's load balance
// guided must score on the imbalanced kernel. This is the tentpole
// claim the schedules section exists to pin: guided's decaying chunks
// rebalance the triangular workload that static's contiguous halves
// cannot. Auto gets no such floor: it runs as guided (libomp's choice
// for kmp_sch_auto), so a floor would only repeat guided's.
const guidedBalanceMargin = 0.05

// Check is one gated comparison.
type Check struct {
	Name      string  `json:"name"`
	Baseline  float64 `json:"baseline"`
	Candidate float64 `json:"candidate"`
	// Floor is the minimum candidate value the tolerance admits.
	Floor float64 `json:"floor"`
	OK    bool    `json:"ok"`
}

// Report is the gate's verdict over all checks.
type Report struct {
	Checks []Check `json:"checks"`
	Failed int     `json:"failed"`
}

// Compare gates candidate against baseline. It errors (rather than
// failing checks) when the two profiles measure different
// configurations — comparing a mini run against a std baseline would
// produce meaningless verdicts, not regressions.
func Compare(baseline, candidate *Profile, tol Tolerances) (*Report, error) {
	if baseline.Size != candidate.Size || baseline.Threads != candidate.Threads {
		return nil, fmt.Errorf("benchgate: configuration mismatch: baseline %s/%d threads, candidate %s/%d threads",
			baseline.Size, baseline.Threads, candidate.Size, candidate.Threads)
	}
	rep := &Report{}
	add := func(name string, base, cand, frac float64) {
		floor := base * (1 - frac)
		c := Check{Name: name, Baseline: base, Candidate: cand, Floor: floor, OK: cand >= floor}
		if !c.OK {
			rep.Failed++
		}
		rep.Checks = append(rep.Checks, c)
	}
	add("bytecode_vs_tree_geomean", baseline.Geomean, candidate.Geomean, tol.Geomean)
	byName := map[string]Kernel{}
	for _, k := range candidate.Kernels {
		byName[k.Kernel] = k
	}
	for _, bk := range baseline.Kernels {
		ck, ok := byName[bk.Kernel]
		if !ok {
			rep.Failed++
			rep.Checks = append(rep.Checks, Check{
				Name: "speedup/" + bk.Kernel, Baseline: bk.Speedup,
				Floor: bk.Speedup * (1 - tol.Speedup), OK: false,
			})
			continue
		}
		add("speedup/"+bk.Kernel, bk.Speedup, ck.Speedup, tol.Speedup)
	}
	// Schedule section: only enforced when the baseline carries one
	// (artifacts predating the section still gate their kernels). A
	// schedule kind that vanished from the candidate fails exactly like
	// a vanished kernel.
	schedByName := map[string]Schedule{}
	for _, s := range candidate.Schedules {
		schedByName[s.Schedule] = s
	}
	for _, bs := range baseline.Schedules {
		cs, ok := schedByName[bs.Schedule]
		if !ok {
			rep.Failed += 2
			rep.Checks = append(rep.Checks,
				Check{Name: "sched_speedup/" + bs.Schedule, Baseline: bs.Speedup,
					Floor: bs.Speedup * (1 - tol.Balance), OK: false},
				Check{Name: "sched_balance/" + bs.Schedule, Baseline: bs.LoadBalance,
					Floor: bs.LoadBalance * (1 - tol.Balance), OK: false})
			continue
		}
		add("sched_speedup/"+bs.Schedule, bs.Speedup, cs.Speedup, tol.Balance)
		add("sched_balance/"+bs.Schedule, bs.LoadBalance, cs.LoadBalance, tol.Balance)
	}
	// Candidate-internal invariant: on the freshly measured profile,
	// guided must beat static's load balance by a clear margin. This is
	// an absolute claim about the candidate, not a drift bound, so it
	// ignores the tolerances.
	if g, ok := schedByName["guided"]; ok {
		if s, ok := schedByName["static"]; ok {
			floor := s.LoadBalance + guidedBalanceMargin
			c := Check{Name: "guided_rebalances_vs_static", Baseline: s.LoadBalance,
				Candidate: g.LoadBalance, Floor: floor, OK: g.LoadBalance >= floor}
			if !c.OK {
				rep.Failed++
			}
			rep.Checks = append(rep.Checks, c)
		}
	}
	return rep, nil
}

// OK reports whether every check passed.
func (r *Report) OK() bool { return r.Failed == 0 }

// Write renders the verdict table.
func (r *Report) Write(w io.Writer) {
	fmt.Fprintf(w, "%-28s %12s %12s %12s  %s\n", "check", "baseline", "candidate", "floor", "verdict")
	for _, c := range r.Checks {
		verdict := "ok"
		if !c.OK {
			verdict = "REGRESSED"
		}
		fmt.Fprintf(w, "%-28s %12.4f %12.4f %12.4f  %s\n", c.Name, c.Baseline, c.Candidate, c.Floor, verdict)
	}
	if r.Failed > 0 {
		fmt.Fprintf(w, "benchgate: %d of %d checks regressed\n", r.Failed, len(r.Checks))
	} else {
		fmt.Fprintf(w, "benchgate: all %d checks within tolerance\n", len(r.Checks))
	}
}
