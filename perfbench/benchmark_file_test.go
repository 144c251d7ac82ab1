package main

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json must list exactly the metrics a run prints, with the same
// units and directions.
func TestBenchmarkFileMatchesCatalog(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	check := func(view string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", view, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, benchmark %+v", view, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd)
	check("per_layer", f.PerLayer, perLayer)
	for _, w := range f.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q has no implementation", w.Name)
		}
	}
}
