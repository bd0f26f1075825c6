package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/polybench"
)

var update = flag.Bool("update", false, "rewrite golden files")

// checkGolden compares got byte-for-byte with the golden file at path,
// rewriting the file first under -update.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from its golden file (run `go test -run 'Golden' -update ./internal/experiments` after reviewing)\ngot:\n%s\nwant:\n%s",
			path, got, want)
	}
}

// TestDecompiledGolden locks the emitted C byte-for-byte: every
// PolyBench kernel under every decompiler the figures compare, plus the
// triangular imbalanced kernel under the full system for each schedule
// kind (the schedule clause must come back out as it went in). Nothing
// is executed; the text comes from the session's decompile memo.
func TestDecompiledGolden(t *testing.T) {
	s := testCfg.session()
	for _, b := range polybench.All() {
		d, err := decompileAll(s, b)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []struct{ variant, text string }{
			{"full", d.FullC},
			{"portable", d.PortableC},
			{"v1", d.V1C},
			{"rellic", d.RellicC},
			{"ghidra", d.GhidraC},
		} {
			checkGolden(t, filepath.Join("testdata", "decompiled", b.Name+"."+v.variant+".c"), []byte(v.text))
		}
	}
	for _, sched := range polybench.ImbalancedSchedules {
		b := polybench.ImbalancedKernel(sched)
		m, err := polybench.CompileVariant(s, b.Seq, b.Name)
		if err != nil {
			t.Fatal(err)
		}
		text, _, err := s.DecompileVariant(m, "full")
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, filepath.Join("testdata", "decompiled", b.Name+".full.c"), []byte(text))
	}
}

// figureGolden is the exact-value record of every deterministic paper
// figure: the ones computed from decompiled text and the parallelizer's
// report, never from an execution.
type figureGolden struct {
	Fig7         []Fig7Row
	Fig7FullMean float64
	Table4       []Table4Row
	Fig8         []Fig8Row
	Table3       []Table3Row
	Ablation     []AblationRow
}

// roundFloat keeps nine decimals of a figure value. BLEU goes through
// math.Log and math.Exp, whose last bits may differ between
// architectures (assembly on amd64, pure Go with possible fused
// multiply-add elsewhere); the rounded value does not.
func roundFloat(x float64) float64 { return math.Round(x*1e9) / 1e9 }

// round rewrites every float field of g with roundFloat, leaving the
// integer tables exact.
func (g *figureGolden) round() {
	for i := range g.Fig7 {
		r := &g.Fig7[i]
		for _, f := range []*float64{&r.Rellic, &r.Ghidra, &r.V1, &r.Portable, &r.Full} {
			*f = roundFloat(*f)
		}
	}
	g.Fig7FullMean = roundFloat(g.Fig7FullMean)
	for i := range g.Fig8 {
		g.Fig8[i].Percent = roundFloat(g.Fig8[i].Percent)
	}
	for i := range g.Ablation {
		g.Ablation[i].BLEU = roundFloat(g.Ablation[i].BLEU)
	}
}

// TestFiguresGolden pins Figure 7 BLEU (per kernel and the full-system
// mean), Table 4 LoC, Figure 8 name counts, Table 3 loop counts, and
// the ablation BLEU. Integers are exact; floats are compared at nine
// decimals (see roundFloat).
func TestFiguresGolden(t *testing.T) {
	var g figureGolden
	var err error
	if g.Fig7, err = Fig7(testCfg); err != nil {
		t.Fatal(err)
	}
	for _, r := range g.Fig7 {
		g.Fig7FullMean += r.Full
	}
	g.Fig7FullMean /= float64(len(g.Fig7))
	if g.Table4, err = Table4(testCfg); err != nil {
		t.Fatal(err)
	}
	if g.Fig8, err = Fig8(testCfg); err != nil {
		t.Fatal(err)
	}
	if g.Table3, err = Table3(testCfg); err != nil {
		t.Fatal(err)
	}
	if g.Ablation, err = Ablation(testCfg); err != nil {
		t.Fatal(err)
	}
	g.round()
	got, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, filepath.Join("testdata", "figures.golden.json"), append(got, '\n'))
}
