package experiments

import (
	"fmt"
	"io"

	"repro/internal/driver"
	"repro/internal/interp"
	"repro/internal/polybench"
)

func init() {
	register("runtime", "Runtime profile: per-kernel parallel execution (threads x speedup x load balance x race check x engine)", runRuntime)
}

// RuntimeRow is one kernel's runtime observability summary: the
// deterministic speedup (work-span simulated clock), the profiler's
// load-balance and barrier figures, the dynamic conflict checker's
// verdict over the statically parallelized regions, and the bytecode
// engine's wall-clock advantage over the tree-walker.
type RuntimeRow struct {
	Kernel       string  `json:"kernel"`
	Threads      int     `json:"threads"`
	Size         string  `json:"size"`
	Speedup      float64 `json:"speedup"`
	LoadBalance  float64 `json:"load_balance"`
	Regions      int     `json:"regions"`
	Forks        int64   `json:"forks"`
	BarrierWaits int64   `json:"barrier_waits"`
	Conflicts    int64   `json:"conflicts"`
	// TreeWallNS and BytecodeWallNS are the fastest single-threaded
	// kernel wall times per engine; EngineSpeedup is their ratio (how
	// much faster the register VM runs the same module).
	TreeWallNS     int64   `json:"tree_wall_ns"`
	BytecodeWallNS int64   `json:"bytecode_wall_ns"`
	EngineSpeedup  float64 `json:"engine_speedup"`
	// Profile is the full per-region, per-thread runtime profile of the
	// parallel run (BENCH_runtime.json embeds it per kernel).
	Profile *interp.RunProfile `json:"profile"`
}

// RuntimeProfile measures every PolyBench kernel under the
// parallel-region profiler and the conflict checker: sequential vs
// parallel span for the speedup, per-thread stats for load balance,
// tree-walker vs bytecode-VM wall time at 1 thread for the engine
// comparison, and a race-checked run validating the static DOALL
// verdicts dynamically. Timed runs use cfg.Size; the race-checked
// profiled run is always pinned to mini — the shadow log's cost scales
// with every access, and the verdict is size-independent.
func RuntimeProfile(cfg Config) ([]RuntimeRow, error) {
	s := cfg.session()
	threads := cfg.threads()
	size := cfg.size()
	byt, err := driver.EngineFor("bytecode")
	if err != nil {
		return nil, err
	}
	var rows []RuntimeRow
	for _, b := range polybench.All() {
		m, _, err := b.CompileParallelIRSized(s, size)
		if err != nil {
			return nil, err
		}
		seq, err := timeKernels(b, m, interp.Options{NumThreads: 1}, cfg.reps())
		if err != nil {
			return nil, err
		}
		par, err := timeKernels(b, m, interp.Options{NumThreads: threads}, cfg.reps())
		if err != nil {
			return nil, err
		}
		bcode, err := timeKernels(b, m, interp.Options{NumThreads: 1, Body: byt}, cfg.reps())
		if err != nil {
			return nil, err
		}
		if seq.SimSteps != bcode.SimSteps {
			return nil, fmt.Errorf("%s: engines disagree on span: tree %d vs bytecode %d",
				b.Name, seq.SimSteps, bcode.SimSteps)
		}
		mMini := m
		if size.Factor() > 1 {
			if mMini, _, err = b.CompileParallelIR(s); err != nil {
				return nil, err
			}
		}
		mach, err := b.RunWith(mMini, interp.Options{
			NumThreads: threads, Profile: true, CheckRaces: true,
		})
		if err != nil {
			return nil, err
		}
		p := mach.Profile()
		races := mach.Races()
		if cs := races.CrossCheck(mMini); len(cs) != 0 {
			return nil, fmt.Errorf("%s: dynamic conflict contradicts static DOALL verdict: %v", b.Name, cs)
		}
		row := RuntimeRow{
			Kernel:         b.Name,
			Threads:        threads,
			Size:           string(size),
			Speedup:        float64(seq.SimSteps) / float64(par.SimSteps),
			LoadBalance:    p.LoadBalance(),
			Regions:        len(p.Regions),
			Conflicts:      races.Total,
			TreeWallNS:     seq.Wall.Nanoseconds(),
			BytecodeWallNS: bcode.Wall.Nanoseconds(),
			Profile:        p,
		}
		if bcode.Wall > 0 {
			row.EngineSpeedup = float64(seq.Wall) / float64(bcode.Wall)
		}
		for _, r := range p.Regions {
			row.Forks += r.Forks
			for _, t := range r.Threads {
				row.BarrierWaits += t.BarrierWaits
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ScheduleRow is one schedule kind's showing on the triangular
// imbalanced kernel: the deterministic-clock speedup over the
// sequential variant, the profiler's load balance, and the dispatch
// traffic (chunk pulls).
type ScheduleRow struct {
	Kernel      string  `json:"kernel"`
	Schedule    string  `json:"schedule"`
	Threads     int     `json:"threads"`
	Speedup     float64 `json:"speedup"`
	LoadBalance float64 `json:"load_balance"`
	Chunks      int64   `json:"chunks"`
}

// ScheduleBalance runs the triangular imbalanced kernel under every
// schedule kind and measures how each copes with the skewed iteration
// cost: static's contiguous halves leave the low-tid workers with most
// of the work, dynamic/guided/auto rebalance at the shared cursor (auto
// runs as guided). Outputs are cross-checked bitwise against
// the sequential variant — scheduling must never change the answer.
// Speedup and load balance for guided/auto are timing-dependent at
// >1 threads (chunk-to-worker assignment varies run to run), so gates
// over these figures need loose tolerances.
func ScheduleBalance(cfg Config) ([]ScheduleRow, error) {
	s := cfg.session()
	threads := cfg.threads()
	seqB := polybench.ImbalancedKernel("")
	seqM, err := polybench.CompileVariant(s, seqB.Seq, seqB.Name)
	if err != nil {
		return nil, err
	}
	seqCost, err := timeKernels(seqB, seqM, interp.Options{NumThreads: 1}, cfg.reps())
	if err != nil {
		return nil, err
	}
	ref, err := seqB.RunWith(seqM, interp.Options{NumThreads: 1})
	if err != nil {
		return nil, err
	}
	var rows []ScheduleRow
	for _, sched := range polybench.ImbalancedSchedules {
		b := polybench.ImbalancedKernel(sched)
		m, err := polybench.CompileVariant(s, b.Seq, b.Name)
		if err != nil {
			return nil, err
		}
		cost, err := timeKernels(b, m, interp.Options{NumThreads: threads}, cfg.reps())
		if err != nil {
			return nil, err
		}
		mach, err := b.RunWith(m, interp.Options{NumThreads: threads, Profile: true})
		if err != nil {
			return nil, err
		}
		if eq, diff := b.OutputsEqual(ref, mach); !eq {
			return nil, fmt.Errorf("%s: schedule changed the answer: %s", b.Name, diff)
		}
		p := mach.Profile()
		row := ScheduleRow{
			Kernel:      "imbalanced",
			Schedule:    sched,
			Threads:     threads,
			Speedup:     float64(seqCost.SimSteps) / float64(cost.SimSteps),
			LoadBalance: p.LoadBalance(),
		}
		for _, r := range p.Regions {
			for _, t := range r.Threads {
				row.Chunks += t.Chunks
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// runRuntime prints the per-kernel runtime profile table.
func runRuntime(w io.Writer, cfg Config) error {
	rows, err := RuntimeProfile(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-16s %8s %8s %8s %8s %6s %9s %9s %8s\n",
		"Kernel", "Threads", "Speedup", "LoadBal", "Regions", "Forks", "Barriers", "Races", "VMgain")
	var speedups, vmGains []float64
	for _, r := range rows {
		verdict := "clean"
		if r.Conflicts > 0 {
			verdict = fmt.Sprintf("%d!!", r.Conflicts)
		}
		fmt.Fprintf(w, "%-16s %8d %8.2f %8.2f %8d %6d %9d %9s %7.2fx\n",
			r.Kernel, r.Threads, r.Speedup, r.LoadBalance, r.Regions, r.Forks,
			r.BarrierWaits, verdict, r.EngineSpeedup)
		if r.Speedup > 0 {
			speedups = append(speedups, r.Speedup)
		}
		if r.EngineSpeedup > 0 {
			vmGains = append(vmGains, r.EngineSpeedup)
		}
	}
	fmt.Fprintf(w, "\ngeomean speedup: %.2fx over %d kernels (work-span simulated clock, deterministic)\n",
		geomean(speedups), len(rows))
	fmt.Fprintf(w, "geomean bytecode-vs-tree: %.2fx wall at 1 thread, %s size (bitwise-identical outputs)\n",
		geomean(vmGains), cfg.size())
	fmt.Fprintln(w, "races: dynamic conflict checker over all statically parallelized regions")

	srows, err := ScheduleBalance(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\n%-12s %-10s %8s %8s %8s %8s\n",
		"Kernel", "Schedule", "Threads", "Speedup", "LoadBal", "Chunks")
	for _, r := range srows {
		fmt.Fprintf(w, "%-12s %-10s %8d %8.2f %8.2f %8d\n",
			r.Kernel, r.Schedule, r.Threads, r.Speedup, r.LoadBalance, r.Chunks)
	}
	fmt.Fprintln(w, "schedules: triangular workload; guided/auto rebalance what static cannot")
	return nil
}
