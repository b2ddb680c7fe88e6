package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metrics the
// command prints in step: same listed workloads, same names, same units,
// in order.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &b); err != nil {
		t.Fatal(err)
	}
	var listed []string
	for _, w := range workloads {
		if w.listed {
			listed = append(listed, w.name)
		}
	}
	if len(b.Workloads) != len(listed) {
		t.Errorf("BENCHMARK.json has %d workloads, the command lists %d", len(b.Workloads), len(listed))
	}
	for i, w := range b.Workloads {
		if i < len(listed) && w.Name != listed[i] {
			t.Errorf("BENCHMARK.json workload %d is %q, the command lists %q", i, w.Name, listed[i])
		}
	}
	check := func(what string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command prints %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), command %s (%s)",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, e2eMetrics)
	check("per_layer", b.PerLayer, layerMetrics())
}

// TestReferenceMatchesResults keeps the embedded reference identical to
// the committed results/metrics.json.
func TestReferenceMatchesResults(t *testing.T) {
	committed, err := os.ReadFile("../results/metrics.json")
	if errors.Is(err, fs.ErrNotExist) {
		t.Skip("no results/metrics.json in this checkout")
	}
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, referenceMetrics) {
		t.Fatal("reference/metrics.json differs from results/metrics.json")
	}
}
