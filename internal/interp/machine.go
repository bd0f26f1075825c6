package interp

import (
	"bytes"
	"fmt"
	"sync"

	"repro/internal/ir"
	"repro/internal/metrics"
	"repro/internal/telemetry"
)

// Options configures a Machine.
type Options struct {
	// NumThreads is the OpenMP team size used by fork calls. Zero means 1
	// (sequential execution of parallel regions).
	NumThreads int
	// Fuel bounds the instructions executed per worker; 0 means no bound.
	Fuel int64
	// BalancedChunks selects the libgomp-style static partition (the
	// first trip%threads workers take one extra iteration) instead of
	// the libomp-style ceiling partition. Both cover the iteration space
	// exactly; they model recompiling OpenMP code with GCC vs Clang.
	BalancedChunks bool
	// ForkCost is the simulated instruction cost of one fork/join pair
	// on the work-span clock; 0 uses the default (2000).
	ForkCost int64

	// Profile enables the parallel-region profiler: per-fork wall time,
	// per-thread iteration/chunk/barrier stats, exported via
	// Machine.Profile.
	Profile bool
	// CheckRaces enables the dynamic DOALL conflict checker: workers
	// record shared-memory accesses and fork→join reports cross-thread
	// conflicts via Machine.Races.
	CheckRaces bool
	// Telemetry, when non-nil, receives one region trace event per
	// fork→join and one thread event per team worker, so runtime
	// execution shows up as per-thread tracks in the Chrome trace.
	Telemetry *telemetry.Ctx
	// Metrics, when non-nil, receives live interpreter counters
	// (splendid_interp_*: runs, parallel regions, barrier wait time,
	// detected conflicts) for scraping while the machine runs. Series
	// carry an engine="tree|bytecode" label so the two engines' traffic
	// stays distinguishable on one registry.
	Metrics *metrics.Registry

	// Body selects the function-body engine: nil means the tree-walking
	// reference interpreter; internal/vm supplies the bytecode register
	// VM. Everything outside the body — the __kmpc_* runtime, profiler,
	// race checker, fuel, work-span clock — is shared between engines.
	Body BodyEngine
}

// Machine executes one module. It owns global memory and the output
// stream; a Machine may run many calls sequentially but a single Run call
// may fan out into a goroutine team when the program forks.
type Machine struct {
	Mod  *ir.Module
	Opts Options

	globals map[*ir.Global]*MemObject
	// initTrap is set when global memory could not be allocated; every
	// Run raises it before executing anything.
	initTrap *Trap

	outMu sync.Mutex
	out   bytes.Buffer

	// steps counts instructions executed (total work); span counts the
	// simulated critical path (work-span model: parallel phases advance
	// the clock by their slowest worker plus a fork cost).
	stepMu sync.Mutex
	steps  int64
	span   int64

	funcsMu sync.Mutex
	funcs   map[*ir.Function]*funcInfo

	// atomicMu serializes the __kmpc_atomic_* reduction combiners.
	atomicMu sync.Mutex

	// body executes defined function bodies (never nil; defaults to the
	// tree-walker).
	body BodyEngine

	// Observability (all nil when disabled; every hook is nil-safe so the
	// plain interpretation path pays only pointer checks).
	prof  *profiler
	races *raceChecker
	tc    *telemetry.Ctx
	met   *machMetrics
}

// funcInfo caches per-function slot numbering for frame storage.
type funcInfo struct {
	slots    map[ir.Value]int
	numSlots int
}

// NewMachine prepares a machine for m: global memory is allocated and
// zero-initialized (or scalar-initialized when the global has an
// initializer). A global past MaxObjectCells is not allocated; every
// Run then returns its TrapAllocLimit.
func NewMachine(m *ir.Module, opts Options) *Machine {
	if opts.NumThreads <= 0 {
		opts.NumThreads = 1
	}
	body := opts.Body
	if body == nil {
		body = treeEngine{}
	}
	mach := &Machine{
		Mod:     m,
		Opts:    opts,
		globals: map[*ir.Global]*MemObject{},
		funcs:   map[*ir.Function]*funcInfo{},
		body:    body,
		tc:      opts.Telemetry,
		met:     newMachMetrics(opts.Metrics, body.Name()),
	}
	if opts.Profile {
		mach.prof = newProfiler(opts.NumThreads)
	}
	if opts.CheckRaces {
		mach.races = newRaceChecker()
	}
	for _, g := range m.Globals {
		if t := AllocLimitTrap("@"+g.Nam, ir.SizeOfElems(g.Elem)); t != nil {
			mach.initTrap = t
			break
		}
		obj := NewZeroedObject(g.Nam, g.Elem)
		if g.Init != nil {
			obj.Cells[0] = constValue(g.Init)
		}
		mach.globals[g] = obj
	}
	return mach
}

// NewZeroedObject allocates a memory object sized for elem with every
// cell holding elem's scalar zero — the shape alloca and global
// initialization share, exported so alternate engines allocate
// identically to the tree-walker.
func NewZeroedObject(name string, elem ir.Type) *MemObject {
	obj := NewMemObject(name, ir.SizeOfElems(elem))
	z := zeroOf(scalarBase(elem))
	for i := range obj.Cells {
		obj.Cells[i] = z
	}
	return obj
}

func scalarBase(t ir.Type) ir.Type {
	for {
		a, ok := t.(*ir.ArrayType)
		if !ok {
			return t
		}
		t = a.Elem
	}
}

func zeroOf(t ir.Type) Value {
	if ir.IsFloatType(t) {
		return FloatV(0)
	}
	if ir.IsPtrType(t) {
		return PtrV(Pointer{})
	}
	return IntV(0)
}

func constValue(v ir.Value) Value {
	switch c := v.(type) {
	case *ir.ConstInt:
		return IntV(c.V)
	case *ir.ConstFloat:
		return FloatV(c.V)
	case *ir.ConstNull:
		return PtrV(Pointer{})
	case *ir.ConstUndef:
		return Value{K: KUndef}
	}
	return Value{K: KUndef}
}

// Output returns everything the program printed so far.
func (m *Machine) Output() string {
	m.outMu.Lock()
	defer m.outMu.Unlock()
	return m.out.String()
}

// Steps returns the approximate number of instructions executed.
func (m *Machine) Steps() int64 {
	m.stepMu.Lock()
	defer m.stepMu.Unlock()
	return m.steps
}

func (m *Machine) addSteps(n int64) {
	m.stepMu.Lock()
	m.steps += n
	m.stepMu.Unlock()
}

// SimSteps returns the simulated critical-path length over all Run calls:
// the deterministic stand-in for parallel wall-clock time.
func (m *Machine) SimSteps() int64 {
	m.stepMu.Lock()
	defer m.stepMu.Unlock()
	return m.span
}

func (m *Machine) addSpan(n int64) {
	m.stepMu.Lock()
	m.span += n
	m.stepMu.Unlock()
}

func (m *Machine) forkCost() int64 {
	if m.Opts.ForkCost > 0 {
		return m.Opts.ForkCost
	}
	return 2000
}

func (m *Machine) printf(format string, args ...any) {
	m.outMu.Lock()
	fmt.Fprintf(&m.out, format, args...)
	m.outMu.Unlock()
}

// GlobalMem exposes a global's memory object (tests and harnesses use it
// to seed inputs and read results).
func (m *Machine) GlobalMem(name string) *MemObject {
	g := m.Mod.GlobalByName(name)
	if g == nil {
		return nil
	}
	return m.globals[g]
}

// GlobalObj resolves a global declaration to this machine's memory
// object for it. Engines use it to preresolve global operands at lower
// time.
func (m *Machine) GlobalObj(g *ir.Global) *MemObject {
	return m.globals[g]
}

// EngineName reports which body engine this machine executes with
// ("tree" unless Options.Body overrides it).
func (m *Machine) EngineName() string {
	return m.body.Name()
}

func (m *Machine) info(f *ir.Function) *funcInfo {
	m.funcsMu.Lock()
	defer m.funcsMu.Unlock()
	if fi, ok := m.funcs[f]; ok {
		return fi
	}
	fi := &funcInfo{slots: map[ir.Value]int{}}
	for _, p := range f.Params {
		fi.slots[p] = fi.numSlots
		fi.numSlots++
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.HasResult() {
				fi.slots[in] = fi.numSlots
				fi.numSlots++
			}
		}
	}
	m.funcs[f] = fi
	return fi
}

// Profile returns the accumulated runtime profile, or nil when
// Options.Profile is off.
func (m *Machine) Profile() *RunProfile {
	return m.prof.snapshot()
}

// Races returns the accumulated conflict-checker report, or nil when
// Options.CheckRaces is off.
func (m *Machine) Races() *RaceReport {
	return m.races.snapshot()
}

// Run executes the named function with the given arguments and returns
// its result (undef for void). Traps inside the program surface as *Trap
// errors.
func (m *Machine) Run(name string, args ...Value) (Value, error) {
	f := m.Mod.FuncByName(name)
	if f == nil {
		return Value{}, fmt.Errorf("interp: no function @%s", name)
	}
	m.met.noteRun()
	if m.initTrap != nil {
		return Value{}, m.initTrap
	}
	rt := &RT{m: m, gtid: 0}
	var ret Value
	err := rt.protect(func() {
		ret = rt.Call(f, args)
	})
	m.addSteps(rt.localSteps)
	m.addSpan(rt.spanSteps)
	return ret, err
}
