package experiments

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/polybench"
)

func init() {
	register("table1", "Table 1: decompiler feature comparison", runTable1)
	register("table2", "Table 2: SPLENDID techniques vs goals", runTable2)
	register("table3", "Table 3: collaborative loop coverage", runTable3)
	register("table4", "Table 4: LoC similarity to reference", runTable4)
}

// Table 1 is the paper's static feature matrix; this reproduction
// implements the three starred rows (Rellic, the C backend lineage, and
// SPLENDID itself) and reports the published rows for the rest.
func runTable1(w io.Writer, _ Config) error {
	type row struct {
		name, level, goal string
		feats             [8]bool
		inRepo            bool
	}
	rows := []row{
		{"Ghidra", "binary", "Reverse Engineering", [8]bool{false, false, false, false, true, true, false, false}, true},
		{"Gussoni et al.", "binary", "Security", [8]bool{}, false},
		{"Chen et al.", "binary", "Software Maintenance", [8]bool{}, false},
		{"SmartDec", "binary", "Reverse Engineering", [8]bool{}, false},
		{"Phoenix", "binary", "Security", [8]bool{false, false, false, false, true, false, false, false}, false},
		{"Hex-rays IDA Pro", "binary", "Software Validation", [8]bool{false, false, false, false, true, true, false, false}, false},
		{"Relyze", "binary", "Binary Analysis", [8]bool{}, false},
		{"Rellic", "LLVM-IR", "Security", [8]bool{false, false, false, false, true, false, true, false}, true},
		{"LLVM CBackend", "LLVM-IR", "Reverse Engineering", [8]bool{}, true},
		{"SPLENDID (this work)", "LLVM-IR", "Collaborative Parallelization", [8]bool{true, true, true, true, true, true, true, true}, true},
	}
	cols := []string{
		"RuntimeElim", "PragmaGen", "ParLoopRestore", "ForLoopConstr",
		"LoopRotDetrans", "SSADetrans", "CodeInlining", "VarRenaming",
	}
	fmt.Fprintf(w, "%-22s %-8s %-30s %s\n", "Decompiler", "Level", "Primary Goal", strings.Join(cols, " "))
	for _, r := range rows {
		marks := make([]string, len(cols))
		for i := range cols {
			m := "x"
			if r.feats[i] {
				m = "Y"
			}
			marks[i] = fmt.Sprintf("%-*s", len(cols[i]), m)
		}
		tag := ""
		if r.inRepo {
			tag = " *"
		}
		fmt.Fprintf(w, "%-22s %-8s %-30s %s%s\n", r.name, r.level, r.goal, strings.Join(marks, " "), tag)
	}
	fmt.Fprintln(w, "\n(* = implemented in this reproduction; other rows as published)")
	return nil
}

func runTable2(w io.Writer, _ Config) error {
	rows := []struct {
		tech                     string
		portability, naturalness bool
	}{
		{"Parallel Runtime Elimination", true, true},
		{"Loop Parameter Restoration", true, true},
		{"Loop Rotation De-transformation", true, true},
		{"For Loop Construction", true, true},
		{"Parallel Code Inlining", true, true},
		{"Pragma Generation", true, true},
		{"SSA Detransformation", false, true},
		{"Source Variable Renaming", false, true},
	}
	fmt.Fprintf(w, "%-34s %-12s %s\n", "Technique", "Portability", "Naturalness")
	for _, r := range rows {
		p, n := "", "Y"
		if r.portability {
			p = "Y"
		}
		_ = n
		fmt.Fprintf(w, "%-34s %-12s %s\n", r.tech, p, "Y")
	}
	return nil
}

// Table3Row is the measured collaborative coverage for one benchmark.
type Table3Row struct {
	Name string
	// Programmer counts worksharing pragmas in the manual version;
	// Compiler counts loops the parallelizer converted; Total counts
	// loops parallel in the collaborative union; Eliminated counts
	// manual loops the compiler also covers (work the programmer is
	// freed from).
	Programmer, Compiler, Total, Eliminated int
	Paper                                   [4]int
}

// Table3 computes the measured rows.
func Table3(cfg Config) ([]Table3Row, error) {
	s := cfg.session()
	var rows []Table3Row
	for _, b := range polybench.All() {
		_, res, err := b.CompileParallelIR(s)
		if err != nil {
			return nil, err
		}
		compiler := 0
		for _, n := range res.Parallelized {
			compiler += n
		}
		prog := polybench.PragmaCount(b.Manual)
		union := compiler
		if c := b.Collab; c != "" {
			if n := polybench.PragmaCount(c); n > union {
				union = n
			}
		}
		if prog > union {
			union = prog
		}
		elim := prog
		if compiler < elim {
			elim = compiler
		}
		rows = append(rows, Table3Row{
			Name: b.Name, Programmer: prog, Compiler: compiler,
			Total: union, Eliminated: elim, Paper: b.PaperT3,
		})
	}
	return rows, nil
}

func runTable3(w io.Writer, cfg Config) error {
	rows, err := Table3(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-16s %-28s %-26s %-18s %s\n",
		"Benchmark", "Programmer Parallelized", "Compiler Parallelized", "Total", "Eliminated Manual")
	var tp, tc, tt, te int
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %-28s %-26s %-18s %s\n", r.Name,
			fmt.Sprintf("%d (paper %d)", r.Programmer, r.Paper[0]),
			fmt.Sprintf("%d (paper %d)", r.Compiler, r.Paper[1]),
			fmt.Sprintf("%d (paper %d)", r.Total, r.Paper[2]),
			fmt.Sprintf("%d (paper %d)", r.Eliminated, r.Paper[3]))
		tp += r.Programmer
		tc += r.Compiler
		tt += r.Total
		te += r.Eliminated
	}
	fmt.Fprintf(w, "%-16s %-28d %-26d %-18d %d\n", "Total", tp, tc, tt, te)
	if tc > 0 {
		fmt.Fprintf(w, "\nOverlap: %.0f%% of compiler-parallelized work was also on the programmer's plan\n",
			100*float64(te)/float64(tc))
	}
	return nil
}

// Table4Row is the LoC comparison for one benchmark.
type Table4Row struct {
	Name                              string
	Ghidra, Rellic, Splendid, Ref     int
	GhidraPar, RellicPar, SplendidPar int
	RefPar                            int
}

func loc(src string) int {
	n := 0
	for _, line := range strings.Split(src, "\n") {
		if strings.TrimSpace(line) != "" {
			n++
		}
	}
	return n
}

func runTable4(w io.Writer, cfg Config) error {
	rows, err := Table4(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-16s | %-24s %-24s %-24s %-6s | %s\n",
		"Benchmark", "Ghidra LoC", "Rellic LoC", "SPLENDID LoC", "Ref", "ParRep LoC (G/R/S/Ref)")
	var tg, tr, ts, tref int
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s | %-24s %-24s %-24s %-6d | %d / %d / %d / %d\n", r.Name,
			fmt.Sprintf("%d (%.1fx)", r.Ghidra, float64(r.Ghidra)/float64(r.Ref)),
			fmt.Sprintf("%d (%.1fx)", r.Rellic, float64(r.Rellic)/float64(r.Ref)),
			fmt.Sprintf("%d (%.1fx)", r.Splendid, float64(r.Splendid)/float64(r.Ref)),
			r.Ref, r.GhidraPar, r.RellicPar, r.SplendidPar, r.RefPar)
		tg += r.Ghidra
		tr += r.Rellic
		ts += r.Splendid
		tref += r.Ref
	}
	fmt.Fprintf(w, "%-16s | %-24s %-24s %-24s %-6d |\n", "Total",
		fmt.Sprintf("%d (%.1fx)", tg, float64(tg)/float64(tref)),
		fmt.Sprintf("%d (%.1fx)", tr, float64(tr)/float64(tref)),
		fmt.Sprintf("%d (%.1fx)", ts, float64(ts)/float64(tref)),
		tref)
	return nil
}
