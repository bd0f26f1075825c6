// Command irrun executes a function from a textual IR module on the
// interpreter, with a goroutine-backed OpenMP runtime and optional
// runtime observability: a parallel-region profiler, a Chrome trace
// with one track per team thread, a dynamic DOALL conflict checker
// that validates the static parallelization verdicts, and an embedded
// debug server exposing live metrics, pprof, and the session flight
// recorder.
//
// Usage:
//
//	irrun [-engine bytecode|tree] [-threads N] [-entry main]
//	      [-args "1 2.5"] [-steps] [-prof] [-prof-out FILE]
//	      [-trace FILE] [-check-races] [-metrics-addr HOST:PORT]
//	      [-linger DUR] input.ll
//
// Exit codes: 0 success, 1 execution error, 2 usage error, 3 the
// conflict checker found cross-thread races.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/debugserv"
	"repro/internal/driver"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/metrics"
	"repro/internal/telemetry"
)

func main() {
	engine := flag.String("engine", "bytecode", "body engine: bytecode (lowered register VM) or tree (reference walker)")
	threads := flag.Int("threads", 1, "OpenMP team size for parallel regions (must be >= 1)")
	entry := flag.String("entry", "main", "function to execute")
	argStr := flag.String("args", "", "space-separated scalar arguments (int or float)")
	steps := flag.Bool("steps", false, "print executed instruction counts")
	prof := flag.Bool("prof", false, "profile parallel regions; print the JSON profile to stdout")
	profOut := flag.String("prof-out", "", "write the JSON profile to `file` instead of stdout (implies -prof)")
	traceOut := flag.String("trace", "", "write a Chrome trace_event `file` (one track per team thread)")
	checkRaces := flag.Bool("check-races", false, "record cross-thread memory conflicts; exit 3 if any region raced")
	obs := debugserv.RegisterFlags(flag.CommandLine, "irrun", "run")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: irrun [-engine bytecode|tree] [-threads N] [-entry F] [-args \"...\"] [-prof] [-prof-out FILE] [-trace FILE] [-check-races] [-metrics-addr ADDR] [-linger DUR] input.ll")
		os.Exit(2)
	}
	if *threads < 1 {
		fmt.Fprintf(os.Stderr, "irrun: -threads %d: team size must be >= 1\n", *threads)
		os.Exit(2)
	}
	if _, err := driver.EngineFor(*engine); err != nil {
		fmt.Fprintf(os.Stderr, "irrun: -engine %s: %v\n", *engine, err)
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	m, err := ir.Parse(string(src))
	if err != nil {
		fatal(err)
	}
	var args []interp.Value
	for _, tok := range strings.Fields(*argStr) {
		if n, err := strconv.ParseInt(tok, 10, 64); err == nil {
			args = append(args, interp.IntV(n))
			continue
		}
		f, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			fatal(fmt.Errorf("bad argument %q", tok))
		}
		args = append(args, interp.FloatV(f))
	}
	var tc *telemetry.Ctx
	if *traceOut != "" {
		tc = telemetry.New()
	}
	var reg *metrics.Registry
	if obs.Enabled() {
		reg = metrics.Default()
	}
	s := driver.New(driver.Options{Jobs: 1, Telemetry: tc, Metrics: reg})
	srv, err := obs.Serve(debugserv.Options{Registry: reg, Jobs: s.Recorder()})
	if err != nil {
		fatal(err)
	}

	res, err := s.Execute(m, driver.ExecOptions{
		Entry:      *entry,
		Args:       args,
		NumThreads: *threads,
		Profile:    *prof || *profOut != "",
		CheckRaces: *checkRaces,
		Engine:     *engine,
	})
	if err != nil {
		fatal(err)
	}
	if res.Output != "" {
		fmt.Print(res.Output)
	}
	fmt.Printf("%s returned %s\n", *entry, res.Ret)
	if *steps {
		fmt.Printf("work: %d instructions, span: %d\n", res.Steps, res.SimSteps)
	}
	if res.Profile != nil {
		if err := writeProfile(res.Profile, *profOut); err != nil {
			fatal(err)
		}
	}
	if *traceOut != "" {
		if err := writeTrace(tc, *traceOut); err != nil {
			fatal(err)
		}
	}
	obs.LingerAndClose(srv)
	if *checkRaces {
		os.Exit(reportRaces(res))
	}
}

// writeProfile dumps the run profile as JSON, to stdout or to path.
func writeProfile(p *interp.RunProfile, path string) error {
	if path == "" {
		return p.WriteJSON(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := p.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeTrace(tc *telemetry.Ctx, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tc.WriteTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// reportRaces prints the conflict checker's verdict and returns the
// process exit code: 0 when every region ran clean, 3 otherwise.
func reportRaces(res *driver.ExecResult) int {
	r := res.Races
	if r.Clean() {
		regions := int64(0)
		if r != nil {
			regions = r.RegionsChecked
		}
		fmt.Fprintf(os.Stderr, "irrun: race check clean: %d parallel region(s), 0 conflicts\n", regions)
		return 0
	}
	fmt.Fprintf(os.Stderr, "irrun: race check FAILED: %d conflict(s) in %d region(s)\n",
		r.Total, r.RegionsChecked)
	for _, c := range r.Conflicts {
		fmt.Fprintln(os.Stderr, "  "+c.String())
	}
	for _, contradiction := range res.Contradictions {
		fmt.Fprintln(os.Stderr, "  "+contradiction)
	}
	return 3
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "irrun:", err)
	os.Exit(1)
}
