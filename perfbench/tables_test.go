package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metric
// tables the runs report from in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the table %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), table %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	names := map[string]bool{}
	for _, w := range spec.Workloads {
		names[w.Name] = true
	}
	for _, w := range []string{"sweep-fig11", "sim-quad", "kv-mixed"} {
		if !names[w] {
			t.Errorf("BENCHMARK.json lacks workload %s", w)
		}
	}
}

func TestSamplePercentiles(t *testing.T) {
	var s samples
	for i := 1; i <= 1000; i++ {
		s = append(s, float64(i))
	}
	if got := s.pct(99); got != 990 {
		t.Errorf("p99 = %v, want 990", got)
	}
	if got := s.median(); got != 500.5 {
		t.Errorf("median = %v, want 500.5", got)
	}
	// 1000 samples leave exactly 10 beyond p99 and 1 beyond p99.9.
	if p, v, ok := s.tail(); !ok || p != 99 || v != 990 {
		t.Errorf("tail = p%v %v %t, want p99 990", p, v, ok)
	}
	if _, _, ok := s[:20].tail(); ok {
		t.Error("20 samples cannot support a tail percentile with 10 beyond it")
	}
	if !math.IsNaN(samples(nil).median()) {
		t.Error("median of nothing should be NaN")
	}
}
