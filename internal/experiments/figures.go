package experiments

import (
	"fmt"
	"io"

	"repro/internal/bleu"
	"repro/internal/interp"
	"repro/internal/polybench"
)

func init() {
	register("fig6", "Figure 6: portability speedups (Polly vs SPLENDID->Clang vs SPLENDID->GCC)", runFig6)
	register("fig7", "Figure 7: BLEU naturalness comparison", runFig7)
	register("fig8", "Figure 8: variable names reconstructed", runFig8)
	register("fig9", "Figure 9: collaborative parallelization", runFig9)
	register("fig11", "Figures 10/11: BLEU mechanics on hand-crafted examples", runFig11)
}

// Fig6Row is the speedup triple for one benchmark.
type Fig6Row struct {
	Name                           string
	Polly, Clang, Gcc              float64
	SeqMs, PollyMs, ClangMs, GccMs float64
}

// Fig6 measures: sequential baseline; the parallelizer's own output
// ("Polly"); the SPLENDID decompilation recompiled and run with
// libomp-style scheduling ("Clang") and with libgomp-style balanced
// scheduling ("GCC").
func Fig6(cfg Config) ([]Fig6Row, error) {
	s := cfg.session()
	var rows []Fig6Row
	for _, b := range polybench.All() {
		seqM, err := polybench.CompileVariant(s, b.Seq, b.Name)
		if err != nil {
			return nil, err
		}
		seqT, err := timeKernels(b, seqM, "", interp.Options{NumThreads: 1}, cfg.reps())
		if err != nil {
			return nil, err
		}
		parIR, _, err := b.CompileParallelIR(s)
		if err != nil {
			return nil, err
		}
		pollyT, err := timeKernels(b, parIR, "", interp.Options{NumThreads: cfg.threads()}, cfg.reps())
		if err != nil {
			return nil, err
		}
		d, err := decompileAll(s, b)
		if err != nil {
			return nil, err
		}
		rec, err := recompile(s, d.FullC, b.Name+".splendid")
		if err != nil {
			return nil, err
		}
		clangT, err := timeKernels(b, rec, "", interp.Options{NumThreads: cfg.threads()}, cfg.reps())
		if err != nil {
			return nil, err
		}
		gccT, err := timeKernels(b, rec, "", interp.Options{NumThreads: cfg.threads(), BalancedChunks: true}, cfg.reps())
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig6Row{
			Name:    b.Name,
			Polly:   float64(seqT.SimSteps) / float64(pollyT.SimSteps),
			Clang:   float64(seqT.SimSteps) / float64(clangT.SimSteps),
			Gcc:     float64(seqT.SimSteps) / float64(gccT.SimSteps),
			SeqMs:   seqT.Wall.Seconds() * 1000,
			PollyMs: pollyT.Wall.Seconds() * 1000,
			ClangMs: clangT.Wall.Seconds() * 1000,
			GccMs:   gccT.Wall.Seconds() * 1000,
		})
	}
	return rows, nil
}

func runFig6(w io.Writer, cfg Config) error {
	rows, err := Fig6(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "threads=%d reps=%d (speedup = sequential span / parallel span on the\nwork-span simulated clock; deterministic and host-independent)\n\n", cfg.threads(), cfg.reps())
	fmt.Fprintf(w, "%-16s %10s %22s %22s %12s\n", "Benchmark", "Polly", "Polly->SPLENDID->Clang", "Polly->SPLENDID->GCC", "seq ms")
	var p, c, g []float64
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %9.2fx %21.2fx %21.2fx %12.2f\n", r.Name, r.Polly, r.Clang, r.Gcc, r.SeqMs)
		p = append(p, r.Polly)
		c = append(c, r.Clang)
		g = append(g, r.Gcc)
	}
	fmt.Fprintf(w, "%-16s %9.2fx %21.2fx %21.2fx\n", "geomean", geomean(p), geomean(c), geomean(g))
	fmt.Fprintln(w, "\n(paper: 10.7x Polly, 11.3x via GCC on 28 cores; the shape to check is\n Polly ≈ Clang ≈ GCC with all three well above 1x)")
	return nil
}

// Fig7Row is the BLEU ladder for one benchmark.
type Fig7Row struct {
	Name                               string
	Rellic, Ghidra, V1, Portable, Full float64
}

// Fig7 scores every decompiler's output against the reference code.
func Fig7(cfg Config) ([]Fig7Row, error) {
	s := cfg.session()
	var rows []Fig7Row
	for _, b := range polybench.All() {
		d, err := decompileAll(s, b)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig7Row{
			Name:     b.Name,
			Rellic:   bleu.Score(d.RellicC, d.RefC),
			Ghidra:   bleu.Score(d.GhidraC, d.RefC),
			V1:       bleu.Score(d.V1C, d.RefC),
			Portable: bleu.Score(d.PortableC, d.RefC),
			Full:     bleu.Score(d.FullC, d.RefC),
		})
	}
	return rows, nil
}

func runFig7(w io.Writer, cfg Config) error {
	rows, err := Fig7(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-16s %8s %8s %14s %18s %10s\n", "Benchmark", "Rellic", "Ghidra", "SPLENDID v1", "Portable SPLENDID", "SPLENDID")
	var rs, gs, v1s, ps, fs []float64
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %8.2f %8.2f %14.2f %18.2f %10.2f\n",
			r.Name, r.Rellic, r.Ghidra, r.V1, r.Portable, r.Full)
		rs = append(rs, r.Rellic)
		gs = append(gs, r.Ghidra)
		v1s = append(v1s, r.V1)
		ps = append(ps, r.Portable)
		fs = append(fs, r.Full)
	}
	avg := func(xs []float64) float64 {
		t := 0.0
		for _, x := range xs {
			t += x
		}
		return t / float64(len(xs))
	}
	fmt.Fprintf(w, "%-16s %8.2f %8.2f %14.2f %18.2f %10.2f\n",
		"average", avg(rs), avg(gs), avg(v1s), avg(ps), avg(fs))
	if avg(rs) > 0 {
		fmt.Fprintf(w, "\nSPLENDID vs Rellic: %.0fx   SPLENDID vs Ghidra: %.0fx   (paper: 82x, 39x)\n",
			avg(fs)/avg(rs), avg(fs)/avg(gs))
	}
	return nil
}

// Fig8Row is the variable-reconstruction rate for one benchmark.
type Fig8Row struct {
	Name      string
	Declared  int
	Named     int
	Percent   float64
	Conflicts int
}

// Fig8 reports the fraction of emitted C variables that carry
// reconstructed source names.
func Fig8(cfg Config) ([]Fig8Row, error) {
	s := cfg.session()
	var rows []Fig8Row
	for _, b := range polybench.All() {
		d, err := decompileAll(s, b)
		if err != nil {
			return nil, err
		}
		st := d.FullStats
		pct := 0.0
		if st.DeclaredVars > 0 {
			pct = 100 * float64(st.SourceNamedVars) / float64(st.DeclaredVars)
		}
		rows = append(rows, Fig8Row{
			Name: b.Name, Declared: st.DeclaredVars, Named: st.SourceNamedVars,
			Percent: pct, Conflicts: st.VarGen.Conflicts,
		})
	}
	return rows, nil
}

func runFig8(w io.Writer, cfg Config) error {
	rows, err := Fig8(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-16s %10s %8s %10s %10s\n", "Benchmark", "Variables", "Named", "Percent", "Conflicts")
	var tot, named int
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %10d %8d %9.1f%% %10d\n", r.Name, r.Declared, r.Named, r.Percent, r.Conflicts)
		tot += r.Declared
		named += r.Named
	}
	fmt.Fprintf(w, "%-16s %10d %8d %9.1f%%\n", "overall", tot, named, 100*float64(named)/float64(tot))
	fmt.Fprintln(w, "\n(paper: 87.3% of variables reconstructed on average)")
	return nil
}

// Fig9Row is the collaborative speedup triple for one subject.
type Fig9Row struct {
	Name                     string
	ManualOnly, CompilerOnly float64
	Collaborative            float64
	ManualLoC                int
}

// Fig9 measures the paper's collaboration case study on the 7 subjects:
// manual-only parallelization, compiler-only (the SPLENDID-decompiled
// parallelizer output, recompiled), and the collaborative version (the
// programmer's few lines on top of the SPLENDID output).
func Fig9(cfg Config) ([]Fig9Row, error) {
	s := cfg.session()
	var rows []Fig9Row
	for _, b := range polybench.All() {
		if b.Collab == "" {
			continue
		}
		seqM, err := polybench.CompileVariant(s, b.Seq, b.Name)
		if err != nil {
			return nil, err
		}
		seqT, err := timeKernels(b, seqM, "", interp.Options{NumThreads: 1}, cfg.reps())
		if err != nil {
			return nil, err
		}
		manualM, err := polybench.CompileVariant(s, b.Manual, b.Name+".manual")
		if err != nil {
			return nil, err
		}
		manualT, err := timeKernels(b, manualM, "", interp.Options{NumThreads: cfg.threads()}, cfg.reps())
		if err != nil {
			return nil, err
		}
		d, err := decompileAll(s, b)
		if err != nil {
			return nil, err
		}
		rec, err := recompile(s, d.FullC, b.Name+".splendid")
		if err != nil {
			return nil, err
		}
		compilerT, err := timeKernels(b, rec, "", interp.Options{NumThreads: cfg.threads()}, cfg.reps())
		if err != nil {
			return nil, err
		}
		collabM, err := polybench.CompileVariant(s, b.Collab, b.Name+".collab")
		if err != nil {
			return nil, err
		}
		collabT, err := timeKernels(b, collabM, "", interp.Options{NumThreads: cfg.threads()}, cfg.reps())
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig9Row{
			Name:          b.Name,
			ManualOnly:    float64(seqT.SimSteps) / float64(manualT.SimSteps),
			CompilerOnly:  float64(seqT.SimSteps) / float64(compilerT.SimSteps),
			Collaborative: float64(seqT.SimSteps) / float64(collabT.SimSteps),
			ManualLoC:     b.CollabLoC,
		})
	}
	return rows, nil
}

func runFig9(w io.Writer, cfg Config) error {
	rows, err := Fig9(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "threads=%d (speedup over sequential)\n\n", cfg.threads())
	fmt.Fprintf(w, "%-16s %12s %14s %16s %12s\n", "Benchmark", "Manual Only", "Compiler Only", "Compiler-Manual", "LoC changed")
	var m, c, cm []float64
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %11.2fx %13.2fx %15.2fx %12d\n",
			r.Name, r.ManualOnly, r.CompilerOnly, r.Collaborative, r.ManualLoC)
		m = append(m, r.ManualOnly)
		c = append(c, r.CompilerOnly)
		cm = append(cm, r.Collaborative)
	}
	fmt.Fprintf(w, "%-16s %11.2fx %13.2fx %15.2fx\n", "geomean", geomean(m), geomean(c), geomean(cm))
	fmt.Fprintln(w, "\n(paper: collaboration roughly doubles both manual-only and compiler-only)")
	return nil
}

func runFig11(w io.Writer, _ Config) error {
	reference := `
for (i = 1; i < n-1; i++)
  B[i] = (A[i-1] + A[i] + A[i+1]) / 3;
`
	variants := []struct{ name, src string }{
		{"(a) obfuscated variable names", `
for (var0 = 1; var0 < N - 1; var0++)
  var1[var0] = (var2[var0-1] + var2[var0] + var2[var0+1]) / 3;
`},
		{"(b) unnatural control flow", `
if (n - 1 > 0) {
  i = 1;
  do {
    i += 1;
    B[i] = (A[i-1] + A[i] + A[i+1]) / 3;
  } while (i < n - 1);
}
`},
		{"(c) no explicit parallelism", `
__kmpc_fork_call(param1, param2, param3, kmp_int32 4, forked_function, param5, A, B, &lb, &ub);
void forked_function(Type1 arg1, Type2 arg2, double *A, double *B, int *lb, int *ub) {
  __kmpc_for_static_init_8(arg1, arg2, 33, lb, ub, 1, 1);
  for (i = *lb; i < *ub; i++)
    B[i] = (A[i-1] + A[i] + A[i+1]) / 3;
  __kmpc_for_static_fini(arg1, arg2);
}
`},
	}
	fmt.Fprintln(w, "Figure 10: n-gram precisions of \"*(A + i) = fn(j)\" vs \"A[i] = fn(j)\":")
	p := bleu.NGramPrecisions("*(A + i) = fn(j)", "A[i] = fn(j)")
	for n, v := range p {
		fmt.Fprintf(w, "  %d-gram precision: %.3f\n", n+1, v)
	}
	fmt.Fprintln(w, "\nFigure 11: BLEU-4 of each degraded variant vs the reference loop:")
	fmt.Fprintf(w, "  identical reference: %.4f\n", bleu.Score(reference, reference)/100)
	for _, v := range variants {
		fmt.Fprintf(w, "  %-34s %.4f\n", v.name+":", bleu.Score(v.src, reference)/100)
	}
	fmt.Fprintln(w, "\n(paper reports 0.3730 / 0.5928 / 0.3600 for its token set; the ordering\n identical > (b) > (a) is the property to check)")
	return nil
}
