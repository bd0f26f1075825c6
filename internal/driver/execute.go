package driver

import (
	"fmt"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/vm"
)

// ExecOptions configures one interpreter run launched through the
// session. The zero value runs @main single-threaded with no
// observability.
type ExecOptions struct {
	// Entry is the function to run; "" means "main".
	Entry string
	// Args are the entry function's arguments.
	Args []interp.Value
	// NumThreads is the OpenMP team size (<=0 means 1). Callers exposing
	// this as a flag should validate user input first (see cmd/irrun).
	NumThreads int
	// Fuel bounds instructions per worker (0 = unbounded).
	Fuel int64
	// Profile enables the parallel-region profiler.
	Profile bool
	// CheckRaces enables the dynamic DOALL conflict checker and the
	// static-verdict cross-check.
	CheckRaces bool
	// Engine selects the body engine by name (see EngineFor): "" or
	// "bytecode" for the lowered register VM, "tree" for the reference
	// tree-walker. Both produce bitwise-identical observable behaviour;
	// bytecode is faster.
	Engine string
}

// EngineFor maps an engine name to a fresh body engine for
// interp.Options. This is where the default is decided: "" and
// "bytecode" return the register VM, the engine of the production
// path; "tree" returns the reference tree-walker, which the oracles
// (RoundTrip's reference runs, the engine-parity tests, the runtime
// profile's engine comparison) name explicitly so the VM is never
// checked against itself.
func EngineFor(name string) (interp.BodyEngine, error) {
	switch name {
	case "", "bytecode":
		return vm.New(), nil
	case "tree":
		return interp.NewTreeEngine(), nil
	}
	return nil, fmt.Errorf("unknown engine %q (want tree or bytecode)", name)
}

// EngineNames lists the selectable body engines, sorted — the build
// metadata scrapes and CLIs report this set.
func EngineNames() []string { return []string{"bytecode", "tree"} }

// ExecResult is the outcome of one Execute call.
type ExecResult struct {
	// Ret is the entry function's return value.
	Ret interp.Value
	// Output is everything the program printed.
	Output string
	// Steps is total instructions executed (work); SimSteps the simulated
	// critical path (span) — their ratio at different thread counts is
	// the deterministic speedup measure.
	Steps, SimSteps int64
	// Profile is the runtime profile (nil unless ExecOptions.Profile).
	Profile *interp.RunProfile
	// Races is the conflict report (nil unless ExecOptions.CheckRaces).
	Races *interp.RaceReport
	// Contradictions lists conflicts that landed inside statically
	// accepted DOALL regions — dynamic evidence against the
	// parallelizer's verdict. Empty when the verdicts agree.
	Contradictions []string
}

// Execute runs a compiled module in the interpreter under the session's
// execution policy: the session's telemetry context flows into the
// machine, so parallel-region and per-thread spans land on the same
// timeline (and in the same Chrome trace) as the compile stages that
// produced the module. The module is not modified.
func (s *Session) Execute(m *ir.Module, opts ExecOptions) (*ExecResult, error) {
	entry := opts.Entry
	if entry == "" {
		entry = "main"
	}
	jb := s.startJob("execute", entry)
	res, err := s.execute(m, entry, opts, jb)
	jb.finish(err)
	return res, err
}

func (s *Session) execute(m *ir.Module, entry string, opts ExecOptions, jb *jobBuilder) (*ExecResult, error) {
	sp := s.opts.Telemetry.StartStage("execute")
	defer sp.End()

	body, err := EngineFor(opts.Engine)
	if err != nil {
		return nil, err
	}
	mach := interp.NewMachine(m, interp.Options{
		NumThreads: opts.NumThreads,
		Fuel:       opts.Fuel,
		Profile:    opts.Profile,
		CheckRaces: opts.CheckRaces,
		Telemetry:  s.opts.Telemetry,
		Metrics:    s.opts.Metrics,
		Body:       body,
	})
	jb.engine(mach.EngineName())
	ret, err := mach.Run(entry, opts.Args...)
	if err != nil {
		return nil, fmt.Errorf("execute @%s: %w", entry, err)
	}
	res := &ExecResult{
		Ret:      ret,
		Output:   mach.Output(),
		Steps:    mach.Steps(),
		SimSteps: mach.SimSteps(),
		Profile:  mach.Profile(),
		Races:    mach.Races(),
	}
	res.Contradictions = res.Races.CrossCheck(m)
	jb.profile(res.Profile)
	jb.raceVerdict(res.Races)
	s.count("driver.executions", 1)
	return res, nil
}
