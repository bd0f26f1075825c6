package splendid_test

import (
	"testing"

	"repro/internal/driver"
	"repro/internal/ir"
	"repro/internal/passes"
	"repro/internal/polybench"
	"repro/internal/splendid"
)

// FuzzParseIR feeds raw bytes through the decompiler's own entry
// point for hand-written IR: ir.Parse, Verify, then splendid.Decompile.
// It is seeded with the printed parallel IR of the 16 PolyBench
// kernels. Any input must end as a parse error, a verifier error, a
// typed decompile error or decompiled C, never a Go panic; crashers
// found so far live in testdata/fuzz/FuzzParseIR.
func FuzzParseIR(f *testing.F) {
	s := driver.New(driver.Options{})
	for _, b := range polybench.All() {
		m, _, err := b.CompileParallelIR(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add([]byte(m.Print()))
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		m, err := ir.Parse(string(src))
		if err != nil {
			return
		}
		if err := m.Verify(); err != nil {
			return
		}
		res, err := splendid.Decompile(m, splendid.Full(), passes.RunConfig{})
		if err == nil && res == nil {
			t.Fatal("Decompile returned neither a result nor an error")
		}
	})
}
