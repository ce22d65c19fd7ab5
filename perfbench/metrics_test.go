package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestMetricNames checks every metric the benchmark emits against the
// name pattern, and the metric lists and workloads against BENCHMARK.json.
func TestMetricNames(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }  `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d defined", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d := bj.Workloads[i]; d.Name != w.name || d.Why != w.why {
			t.Errorf("workload %d: defined %s %q, declared %s %q", i, w.name, w.why, d.Name, d.Why)
		}
	}
	for _, sp := range ungated {
		if !metricName.MatchString(sp.name) {
			t.Errorf("metric name %q does not match %v", sp.name, metricName)
		}
		for _, d := range bj.EndToEnd {
			if d.Name == sp.name {
				t.Errorf("ungated metric %s is declared in BENCHMARK.json", sp.name)
			}
		}
	}
	for _, c := range []struct {
		specs    []metricSpec
		declared []struct{ Name, Unit string }
	}{{endToEndMetrics, bj.EndToEnd}, {perLayerMetrics, bj.PerLayer}} {
		if len(c.specs) != len(c.declared) {
			t.Fatalf("%d metrics emitted, %d declared", len(c.specs), len(c.declared))
		}
		for i, sp := range c.specs {
			if !metricName.MatchString(sp.name) {
				t.Errorf("metric name %q does not match %v", sp.name, metricName)
			}
			if d := c.declared[i]; d.Name != sp.name || d.Unit != sp.unit {
				t.Errorf("metric %d: emitted %s [%s], declared %s [%s]", i, sp.name, sp.unit, d.Name, d.Unit)
			}
		}
	}
}

func TestCheckMetrics(t *testing.T) {
	got := map[string]metricValue{}
	for _, sp := range endToEndMetrics {
		got[sp.name] = metricValue{1, sp.unit}
	}
	if err := checkMetrics(got, endToEndMetrics); err != nil {
		t.Fatal(err)
	}
	delete(got, "setup_s")
	if checkMetrics(got, endToEndMetrics) == nil {
		t.Fatal("missing setup_s accepted")
	}
}
