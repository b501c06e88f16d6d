package main

import (
	"encoding/json"
	"os"
	"slices"
	"sort"
	"testing"
)

// The layer map must name exactly BENCHMARK.json's per-layer metrics,
// and only its end-to-end metrics and workloads; BENCHMARK.json's
// workloads must be the ones this program runs.
func TestLayerMapMatchesBenchmark(t *testing.T) {
	var bench struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	var layers struct {
		Workloads map[string]string `json:"workloads"`
		Layers    map[string]struct {
			Moves []string `json:"moves"`
			On    []string `json:"on"`
		} `json:"layers"`
	}
	for path, v := range map[string]any{"../BENCHMARK.json": &bench, "layers.json": &layers} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(b, v); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
	var names, run, mapped []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
		if _, ok := layers.Workloads[w.Name]; !ok {
			t.Errorf("layers.json does not describe workload %s", w.Name)
		}
	}
	for _, w := range workloads {
		run = append(run, w.name)
	}
	if !slices.Equal(names, run) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, run)
	}
	e2e := map[string]bool{}
	for _, m := range bench.EndToEnd {
		e2e[m.Name] = true
	}
	var perLayer []string
	for _, m := range bench.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	for name, l := range layers.Layers {
		mapped = append(mapped, name)
		for _, m := range l.Moves {
			if !e2e[m] {
				t.Errorf("%s moves unknown end-to-end metric %s", name, m)
			}
		}
		for _, w := range l.On {
			if !slices.Contains(names, w) {
				t.Errorf("%s names unknown workload %s", name, w)
			}
		}
	}
	sort.Strings(perLayer)
	sort.Strings(mapped)
	if !slices.Equal(perLayer, mapped) {
		t.Errorf("per-layer metrics %v, layer map %v", perLayer, mapped)
	}
}
