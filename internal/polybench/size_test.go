package polybench

import (
	"testing"

	"repro/internal/driver"
	"repro/internal/interp"
	"repro/internal/ir"
)

// TestLargeGlobalsFitObjectCap compiles every kernel at the largest
// problem size and checks that each global fits under the interpreter's
// object cap, so a change to the cap or to the size factors cannot turn
// a documented large run into an alloc-limit trap.
func TestLargeGlobalsFitObjectCap(t *testing.T) {
	s := driver.New(driver.Options{})
	largest, where := 0, ""
	for _, b := range All() {
		m, _, err := b.CompileParallelIRSized(s, SizeLarge)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range m.Globals {
			n := ir.SizeOfElems(g.Elem)
			if n > interp.MaxObjectCells {
				t.Errorf("%s@large: global @%s has %d cells, past interp.MaxObjectCells = %d",
					b.Name, g.Nam, n, interp.MaxObjectCells)
			}
			if n > largest {
				largest, where = n, b.Name+" @"+g.Nam
			}
		}
	}
	t.Logf("largest global at %s: %s, %d cells (cap %d)", SizeLarge, where, largest, interp.MaxObjectCells)
}
