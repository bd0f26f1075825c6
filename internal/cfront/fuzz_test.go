package cfront_test

import (
	"testing"

	"repro/internal/cfront"
	"repro/internal/polybench"
)

// FuzzCompileSource feeds raw bytes to the C frontend, seeded with the 16
// PolyBench sources. Any input must end as a module or an error, never a
// Go panic; crashers found so far live in testdata/fuzz/FuzzCompileSource.
func FuzzCompileSource(f *testing.F) {
	for _, b := range polybench.All() {
		f.Add([]byte(b.Seq))
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		m, err := cfront.CompileSource(string(src), "fuzz", nil)
		if err == nil && m == nil {
			t.Fatal("CompileSource returned neither a module nor an error")
		}
	})
}
