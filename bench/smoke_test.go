package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// tinySizes run every workload in well under a second each.
var tinySizes = map[string]size{
	"census":  {sites: 300, rounds: 3},
	"revisit": {sites: 300, rounds: 3, setups: 2},
	"chaos":   {sites: 400, rounds: 3},
	"replay":  {sites: 300, rounds: 3, setups: 2, days: 3, shards: 2},
}

type declared struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestWorkloadsEmitDeclaredMetrics runs each workload at a tiny size,
// untraced and traced, and checks that it passes its own output checks
// and emits exactly the metrics BENCHMARK.json declares, with their
// units.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl declared
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(decl.Workloads), len(workloads))
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, dw := range decl.Workloads {
		var w *workload
		for i := range workloads {
			if workloads[i].name == dw.Name {
				w = &workloads[i]
			}
		}
		if w == nil {
			t.Errorf("BENCHMARK.json declares unknown workload %q", dw.Name)
			continue
		}
		for _, trace := range []bool{false, true} {
			want := decl.EndToEnd
			if trace {
				want = decl.PerLayer
			}
			res, err := execute(context.Background(), *w, 1, tinySizes[w.name], trace)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.name, trace, err)
			}
			if !res.correct || res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s (trace %v): correct %v, %d of %d failed: %v", w.name, trace, res.correct, res.failed, res.attempted, res.info.Problems)
			}
			units := make(map[string]string)
			for _, m := range res.metrics {
				if !valid.MatchString(m.name) {
					t.Errorf("%s: metric name %q", w.name, m.name)
				}
				units[m.name] = m.unit
			}
			for _, d := range want {
				if u, ok := units[d.Name]; !ok {
					t.Errorf("%s (trace %v): declared metric %s not emitted", w.name, trace, d.Name)
				} else if u != d.Unit {
					t.Errorf("%s (trace %v): %s unit %q, declared %q", w.name, trace, d.Name, u, d.Unit)
				}
			}
			if len(units) != len(want) {
				t.Errorf("%s (trace %v): %d metrics emitted, %d declared", w.name, trace, len(units), len(want))
			}
		}
	}
}
