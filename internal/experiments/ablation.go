package experiments

import (
	"fmt"
	"io"

	"repro/internal/bleu"
	"repro/internal/polybench"
	"repro/internal/splendid"
)

func init() {
	register("ablation", "Ablation: BLEU cost of disabling each SPLENDID design choice", runAblation)
}

// AblationRow reports the average BLEU of the full system and of the
// full system with exactly one design choice disabled.
type AblationRow struct {
	Name string
	BLEU float64
}

// Ablation scores the full configuration against variants that each
// disable one technique, quantifying the design choices DESIGN.md calls
// out: expression folding (natural compound expressions), for-loop
// construction (vs do-while), explicit parallelism (pragma generation),
// and variable renaming. All five variants fork from the session's
// memoized O2+parallelize prefix, so the 5×16 loop compiles each
// benchmark once and pays only for the decompile tails.
func Ablation(cfg Config) ([]AblationRow, error) {
	variants := []struct {
		name string
		cfg  splendid.Config
	}{
		{"full", splendid.Full()},
		{"-expression folding", splendid.Config{
			RestoreForLoops: true, ExplicitParallelism: true, RenameVariables: true,
			FoldExpressions: false,
		}},
		{"-for-loop construction", splendid.Config{
			RestoreForLoops: false, ExplicitParallelism: true, RenameVariables: true,
			FoldExpressions: true,
		}},
		{"-explicit parallelism", splendid.Config{
			RestoreForLoops: true, ExplicitParallelism: false, RenameVariables: true,
			FoldExpressions: true,
		}},
		{"-variable renaming", splendid.Portable()},
	}
	s := cfg.session()
	var rows []AblationRow
	for _, v := range variants {
		total := 0.0
		count := 0
		for _, b := range polybench.All() {
			parIR, _, err := b.CompileParallelIR(s)
			if err != nil {
				return nil, err
			}
			res, err := s.Decompile(parIR, v.cfg)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", b.Name, v.name, err)
			}
			total += bleu.Score(res.C, b.Ref)
			count++
		}
		rows = append(rows, AblationRow{Name: v.name, BLEU: total / float64(count)})
	}
	return rows, nil
}

func runAblation(w io.Writer, cfg Config) error {
	rows, err := Ablation(cfg)
	if err != nil {
		return err
	}
	full := rows[0].BLEU
	fmt.Fprintf(w, "%-26s %10s %12s\n", "Configuration", "avg BLEU", "vs full")
	for _, r := range rows {
		fmt.Fprintf(w, "%-26s %10.2f %11.1f%%\n", r.Name, r.BLEU, 100*r.BLEU/full)
	}
	fmt.Fprintln(w, "\n(each row disables one technique from the full system; the drop is the\n technique's contribution to naturalness on the 16-benchmark suite)")
	return nil
}
