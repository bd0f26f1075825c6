package main

import (
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"strconv"
	"strings"

	"repro/internal/bleu"
	"repro/internal/cgen"
	"repro/internal/difftest"
	"repro/internal/driver"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/parallel"
	"repro/internal/polybench"
	"repro/internal/splendid"
)

// threads is the OpenMP team size of every execution the benchmark
// times: the host's core count the figures were tuned on.
const threads = 2

// client is one workload's closed-loop client: it issues op i only
// after op i-1 has returned.
type client interface {
	// op runs operation i. An error means the op failed: a pipeline
	// error, a recompile failure, a wrong output or a divergence.
	op(i int, t *tracer) error
	// passLen is how many ops make one pass over the workload's input
	// mix; a timed run ends only on a pass boundary, so every run sees
	// the same mix.
	passLen() int
	// finish runs the checks deferred out of the timed loop and returns
	// the workload's output-quality figures.
	finish() (quality, error)
}

// quality is what a run's outputs scored, apart from its timings.
type quality struct {
	bleu        float64 // mean Full-SPLENDID BLEU against the reference C
	repeatShare float64 // interactive-edit: share of requests repeating a source
	skipped     int     // difftest-sweep: seeds skipped by the fuel backstop
}

// workload names one closed-loop scenario and builds its client.
// BENCHMARK.json and NOTES.md record why each was chosen.
type workload struct {
	name  string
	setup func(seed uint64, t *tracer) (client, error)
}

var workloads = []workload{
	{"interactive-edit", newEditClient},
	{"polybench-exec", newExecClient},
	{"difftest-sweep", newSweepClient},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// newSession is the one way the benchmark builds a driver session: the
// default worker count (GOMAXPROCS), tracing into t when it is set.
func newSession(t *tracer) *driver.Session {
	s := driver.New(driver.Options{Telemetry: t.ctx()})
	if t != nil {
		t.sessions = append(t.sessions, s)
	}
	return s
}

// sizeDefine matches the `#define NAME <int>` lines that set a PolyBench
// kernel's problem dimensions.
var sizeDefine = regexp.MustCompile(`(?m)^(\s*#define\s+([A-Za-z_][A-Za-z0-9_]*)\s+)([0-9]+)\s*$`)

// resize sets every size #define named in dims to its value there.
func resize(src string, dims map[string]int) string {
	return sizeDefine.ReplaceAllStringFunc(src, func(line string) string {
		m := sizeDefine.FindStringSubmatch(line)
		if v, ok := dims[m[2]]; ok {
			return m[1] + strconv.Itoa(v)
		}
		return line
	})
}

// loc counts non-blank lines, as the paper's Table 4 does.
func loc(src string) int {
	n := 0
	for _, line := range strings.Split(src, "\n") {
		if strings.TrimSpace(line) != "" {
			n++
		}
	}
	return n
}

// compileDecompile is the shared front half of an interactive or
// end-to-end op: C source to parallel IR (cfront, passes, parallel),
// then to natural OpenMP C (splendid), then the emitted C compiled again
// (recompile).
func compileDecompile(s *driver.Session, t *tracer, name, src string) (*splendid.Result, *ir.Module, error) {
	var m *ir.Module
	var pres *parallel.Result
	err := t.do("compile", func() (err error) {
		m, pres, err = s.ParallelIR(name, src)
		return err
	})
	if err != nil {
		return nil, nil, fmt.Errorf("compile %s: %w", name, err)
	}
	if t != nil {
		loops := 0
		for _, n := range pres.Parallelized {
			loops += n
		}
		t.addIR(m, loops)
	}
	var res *splendid.Result
	err = t.do("splendid", func() (err error) {
		res, err = s.Decompile(m, splendid.Full())
		return err
	})
	if err != nil {
		return nil, nil, fmt.Errorf("decompile %s: %w", name, err)
	}
	t.addC(res.C)
	var rec *ir.Module
	err = t.do("recompile", func() (err error) {
		rec, err = s.OptimizedIR(name+".splendid", res.C)
		return err
	})
	if err != nil {
		return nil, nil, fmt.Errorf("recompile %s: %w", name, err)
	}
	return res, rec, nil
}

// ---- interactive-edit ----------------------------------------------

// An interactive-edit pass is 80 requests: every kernel is edited twice
// and re-submitted three times, in a seeded order. Fixing the mix per
// pass (rather than drawing each request independently) keeps two seeds'
// runs comparable. Repeats are 60%, off one half on purpose: repeats and
// edits form two latency clusters, and a 50/50 mix would put the median
// in the gap between them, where it jumps with sampling noise.
const (
	editsPerKernel   = 2
	repeatsPerKernel = 3
)

type editRequest struct {
	kernel *polybench.Benchmark
	src    string // Seq with edited dimensions and a revision comment
	ref    string // Ref with the same dimensions
}

type editClient struct {
	s   *driver.Session
	rng *rand.Rand

	plan    []editStep                // the current pass, in order
	served  map[string][]*editRequest // kernel → sources served so far
	firstC  map[string]string         // source → C emitted the first time it was served
	uses    map[*editRequest]int      // requests per source in the timed loop
	order   []*editRequest            // sources in first-request order
	repeats int
	ops     int
	rev     int
}

// editStep is one planned request: an edit of the kernel or a repeat of
// one of its served sources.
type editStep struct {
	kernel *polybench.Benchmark
	repeat bool
}

func newEditClient(seed uint64, t *tracer) (client, error) {
	c := &editClient{
		s:      newSession(t),
		rng:    rand.New(rand.NewSource(int64(seed))),
		served: map[string][]*editRequest{},
		firstC: map[string]string{},
		uses:   map[*editRequest]int{},
	}
	// The programmer has every kernel open: serve each once at its
	// shipped dimensions, so the timed loop starts with a warm session
	// and every kernel has a source to repeat.
	for _, b := range polybench.All() {
		req := &editRequest{kernel: b, src: b.Seq, ref: b.Ref}
		res, _, err := compileDecompile(c.s, nil, b.Name, req.src)
		if err != nil {
			return nil, err
		}
		c.served[b.Name] = append(c.served[b.Name], req)
		c.firstC[req.src] = res.C
	}
	return c, nil
}

func (c *editClient) passLen() int {
	return len(polybench.All()) * (editsPerKernel + repeatsPerKernel)
}

// next returns the request for the next step of the pass, planning a
// new shuffled pass when the last one is used up. An edit draws fresh
// dimensions and a new revision comment, so it is always a new source.
func (c *editClient) next() (*editRequest, bool) {
	if len(c.plan) == 0 {
		for _, b := range polybench.All() {
			for k := 0; k < editsPerKernel+repeatsPerKernel; k++ {
				c.plan = append(c.plan, editStep{kernel: b, repeat: k >= editsPerKernel})
			}
		}
		c.rng.Shuffle(len(c.plan), func(i, j int) { c.plan[i], c.plan[j] = c.plan[j], c.plan[i] })
	}
	st := c.plan[0]
	c.plan = c.plan[1:]
	b := st.kernel
	if st.repeat {
		srcs := c.served[b.Name]
		return srcs[c.rng.Intn(len(srcs))], true
	}
	dims := map[string]int{}
	for _, m := range sizeDefine.FindAllStringSubmatch(b.Seq, -1) {
		base, _ := strconv.Atoi(m[3])
		dims[m[2]] = base + c.rng.Intn(3*base+1)
	}
	c.rev++
	return &editRequest{
		kernel: b,
		src:    fmt.Sprintf("/* %s revision %d */\n%s", b.Name, c.rev, resize(b.Seq, dims)),
		ref:    resize(b.Ref, dims),
	}, false
}

func (c *editClient) op(i int, t *tracer) error {
	req, repeat := c.next()
	res, _, err := compileDecompile(c.s, t, req.kernel.Name, req.src)
	c.ops++
	if c.uses[req] == 0 {
		c.order = append(c.order, req)
	}
	c.uses[req]++
	if repeat {
		c.repeats++
		if err == nil && res.C != c.firstC[req.src] {
			return fmt.Errorf("%s: repeat request returned different C", req.kernel.Name)
		}
		return err
	}
	if err != nil {
		return err
	}
	c.served[req.kernel.Name] = append(c.served[req.kernel.Name], req)
	c.firstC[req.src] = res.C
	return nil
}

func (c *editClient) finish() (quality, error) {
	var sum float64
	n := 0
	for _, req := range c.order {
		if cs, ok := c.firstC[req.src]; ok {
			sum += float64(c.uses[req]) * bleu.Score(cs, req.ref)
			n += c.uses[req]
		}
	}
	q := quality{repeatShare: float64(c.repeats) / float64(max(c.ops, 1))}
	if n > 0 {
		q.bleu = sum / float64(n)
	}
	return q, nil
}

// ---- polybench-exec ------------------------------------------------

type execClient struct {
	rng    *rand.Rand
	s      *driver.Session
	order  []*polybench.Benchmark
	ref    map[string]map[string][]uint64 // kernel → output global → cell bits
	firstC map[string]string              // kernel → C its first pass emitted
	uses   map[string]int                 // kernel → ops that emitted C
}

func newExecClient(seed uint64, t *tracer) (client, error) {
	c := &execClient{
		rng:    rand.New(rand.NewSource(int64(seed))),
		ref:    map[string]map[string][]uint64{},
		firstC: map[string]string{},
		uses:   map[string]int{},
	}
	// The reference outputs come from the sequential source, unoptimized,
	// run at one thread on the bytecode VM: neither the optimizer, the
	// parallelizer, the decompiler nor the default engine's parallel
	// runtime is on this path.
	s := newSession(nil)
	for _, b := range polybench.All() {
		m, err := s.Frontend(b.Seq, b.Name)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", b.Name, err)
		}
		vm, err := driver.EngineFor("bytecode")
		if err != nil {
			return nil, err
		}
		mach, err := b.RunWith(m, interp.Options{NumThreads: 1, Body: vm})
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", b.Name, err)
		}
		c.ref[b.Name] = outputBits(b, mach)
		if len(c.ref[b.Name]) != len(b.Outputs) {
			return nil, fmt.Errorf("reference %s: missing output globals", b.Name)
		}
	}
	return c, nil
}

func outputBits(b *polybench.Benchmark, mach *interp.Machine) map[string][]uint64 {
	out := map[string][]uint64{}
	for _, g := range b.Outputs {
		mem := mach.GlobalMem(g)
		if mem == nil {
			continue
		}
		bits := make([]uint64, 0, 2*len(mem.Cells))
		for _, cell := range mem.Cells {
			bits = append(bits, math.Float64bits(cell.F), uint64(cell.I))
		}
		out[g] = bits
	}
	return out
}

func (c *execClient) passLen() int { return len(polybench.All()) }

func (c *execClient) op(i int, t *tracer) error {
	k := i % c.passLen()
	if k == 0 {
		// A new pass: a fresh session (so the memo is bypassed) and a
		// fresh seeded kernel order.
		c.s = newSession(t)
		all := polybench.All()
		c.order = make([]*polybench.Benchmark, len(all))
		for j, p := range c.rng.Perm(len(all)) {
			c.order[j] = all[p]
		}
	}
	b := c.order[k]
	res, rec, err := compileDecompile(c.s, t, b.Name, b.Seq)
	if err != nil {
		return err
	}
	c.uses[b.Name]++
	if first, seen := c.firstC[b.Name]; !seen {
		c.firstC[b.Name] = res.C
	} else if first != res.C {
		return fmt.Errorf("%s: decompiled C differs between passes", b.Name)
	}

	var mach *interp.Machine
	err = t.do("interp", func() error {
		body, err := driver.EngineFor("")
		if err != nil {
			return err
		}
		mach, err = b.RunWith(rec, interp.Options{NumThreads: threads, Body: body, Profile: t != nil, Telemetry: t.ctx()})
		return err
	})
	if err != nil {
		return err
	}
	if t != nil {
		p := mach.Profile()
		t.add("interp.steps", float64(mach.Steps()))
		t.add("interp.sim_steps", float64(mach.SimSteps()))
		t.add("interp.barrier_wait_ns", float64(p.BarrierWaitNS()))
		t.add("interp.balance_x_work", p.LoadBalance()*float64(p.TotalWorkSteps))
		t.add("interp.work", float64(p.TotalWorkSteps))
	}
	got := outputBits(b, mach)
	for g, want := range c.ref[b.Name] {
		have := got[g]
		if len(have) != len(want) {
			return fmt.Errorf("%s: output %s has %d cells, reference %d", b.Name, g, len(have), len(want))
		}
		for j := range want {
			if have[j] != want[j] {
				return fmt.Errorf("%s: output %s[%d] differs from the reference", b.Name, g, j)
			}
		}
	}
	return nil
}

func (c *execClient) finish() (quality, error) {
	var sum float64
	n := 0
	for _, b := range polybench.All() {
		if uses := c.uses[b.Name]; uses > 0 {
			sum += float64(uses) * bleu.Score(c.firstC[b.Name], b.Ref)
			n += uses
		}
	}
	return quality{bleu: sum / float64(max(n, 1))}, nil
}

// ---- difftest-sweep ------------------------------------------------

// seedStride spaces the seed ranges of different benchmark seeds far
// enough apart that no run reaches the next range.
const seedStride = 1 << 24

type sweepClient struct {
	s       *driver.Session
	base    uint64
	skipped int
	emitted [][2]string // decompiled C and its source, per seed that was not skipped
}

func newSweepClient(seed uint64, t *tracer) (client, error) {
	c := &sweepClient{s: newSession(t), base: (seed + 1) * seedStride}
	// Warm-up on seeds below the range: fills the heap and exercises
	// every code path once, outside the timed loop.
	warm := newSession(nil)
	for k := uint64(1); k <= 8; k++ {
		if _, err := difftest.CheckSeed(warm, c.base-k, driver.RoundTripOptions{Threads: threads}); err != nil {
			return nil, err
		}
	}
	return c, nil
}

func (c *sweepClient) passLen() int { return 1 }

func (c *sweepClient) op(i int, t *tracer) error {
	seed := c.base + uint64(i)
	var rep *difftest.Report
	var err error
	if t == nil {
		rep, err = difftest.CheckSeed(c.s, seed, driver.RoundTripOptions{Threads: threads})
	} else {
		rep, err = c.tracedCheck(seed, t)
	}
	if err != nil {
		return err
	}
	if rep.Skipped() {
		c.skipped++
		return nil
	}
	c.emitted = append(c.emitted, [2]string{rep.Result.C, rep.Program.Source})
	if rep.Failed() {
		t.add("difftest.divergences", float64(len(rep.Divergences)))
		return fmt.Errorf("seed %d: %d divergences, first %s", seed, len(rep.Divergences), rep.Divergences[0])
	}
	return nil
}

// tracedCheck is difftest.CheckSeed taken apart into the public calls it
// makes, so the traced run can put a span around each layer: the
// generator, the driver's round trip, and the golden evaluator.
func (c *sweepClient) tracedCheck(seed uint64, t *tracer) (*difftest.Report, error) {
	var p *cgen.Program
	_ = t.do("cgen", func() error {
		p = cgen.Generate(cgen.Default(seed))
		return nil
	})
	opts := driver.RoundTripOptions{Threads: threads, Entries: p.Entries}
	var res *driver.RoundTripResult
	err := t.do("difftest.roundtrip", func() error {
		var err error
		res, err = c.s.RoundTrip(fmt.Sprintf("gen%d", seed), p.Source, opts)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("seed %d: %w", seed, err)
	}
	rep := &difftest.Report{Program: p, Result: res}
	if res.FuelExhausted {
		return rep, nil
	}
	if opt, err := ir.Parse(res.OptIR); err == nil {
		t.addIR(opt, res.ParallelizedLoops)
	}
	rep.Divergences = append(rep.Divergences, res.Divergences...)
	err = t.do("difftest.golden", func() error {
		ref, err := ir.Parse(res.RefIR)
		if err != nil {
			return err
		}
		var globals []string
		for _, g := range ref.Globals {
			globals = append(globals, g.Nam)
		}
		rep.Golden = difftest.GoldenRun(ref, p.Entries, globals, 16_000_000) // Check's default fuel
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("seed %d: %w", seed, err)
	}
	for _, d := range rep.Golden.Diff(res.Ref) {
		rep.Divergences = append(rep.Divergences, driver.Divergence{Class: "interp", Detail: d})
	}
	t.addC(res.C)
	return rep, nil
}

func (c *sweepClient) finish() (quality, error) {
	var sum float64
	n := 0
	for _, e := range c.emitted {
		if e[0] != "" {
			sum += bleu.Score(e[0], e[1])
			n++
		}
	}
	q := quality{skipped: c.skipped}
	if n > 0 {
		q.bleu = sum / float64(n)
	}
	return q, nil
}
