package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// deterministicCounts runs a workload's first ops traced and returns
// the figures that must repeat exactly: they depend only on the seeded
// inputs and the program, never on timing or thread interleaving.
func deterministicCounts(t *testing.T, w workload, ops int) map[string]float64 {
	t.Helper()
	tr := newTracer()
	c, err := w.setup(7, tr)
	if err != nil {
		t.Fatalf("%s: set-up: %v", w.name, err)
	}
	sts, err := measure(0, ops, &loop{c: c, w: w.name, t: tr})
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	st := sts[0]
	if st.failed != 0 {
		t.Fatalf("%s: %d of %d ops failed: %v", w.name, st.failed, len(st.lat), st.errs)
	}
	r := &result{Metrics: map[string]metric{}}
	r.layerMetrics(tr, st, st)
	out := map[string]float64{
		"ops":          float64(len(st.lat)),
		"bleu":         st.quality.bleu,
		"repeat_share": st.quality.repeatShare,
	}
	for _, k := range []string{"interp.steps", "interp.sim_speedup", "parallel.loops", "splendid.pragmas", "splendid.c_loc"} {
		out[k] = r.Metrics[k].Value
	}
	return out
}

func TestDeterministicCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	ops := map[string]int{"interactive-edit": 60, "polybench-exec": 16, "difftest-sweep": 30}
	for _, w := range workloads {
		a := deterministicCounts(t, w, ops[w.name])
		b := deterministicCounts(t, w, ops[w.name])
		for k, v := range a {
			if b[k] != v {
				t.Errorf("%s: %s = %v then %v", w.name, k, v, b[k])
			}
		}
		if a["bleu"] <= 0 || a["splendid.c_loc"] <= 0 || a["parallel.loops"] <= 0 {
			t.Errorf("%s: implausible counts %v", w.name, a)
		}
		t.Logf("%s: %v", w.name, a)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric and workload
// lists in step with what the benchmark reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names, want []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for _, w := range workloads {
		want = append(want, w.name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if len(names) != len(want) {
		t.Fatalf("workloads %v, benchmark has %v", names, want)
	}
	for i := range names {
		if names[i] != want[i] {
			t.Fatalf("workloads %v, benchmark has %v", names, want)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per_layer metrics listed, benchmark reports %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		got := spec.PerLayer[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per_layer[%d] = %+v, benchmark reports %+v", i, got, m)
		}
	}
	e2e := map[string]string{}
	for _, m := range endToEnd {
		e2e[m.name] = m.unit
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end_to_end metrics listed, benchmark reports %d", len(spec.EndToEnd), len(endToEnd))
	}
	for _, m := range spec.EndToEnd {
		if e2e[m.Name] != m.Unit {
			t.Errorf("end_to_end %s (%s) is not reported with that unit", m.Name, m.Unit)
		}
	}
}
