package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"
)

// TestSmokeMatchesBenchmarkJSON runs every workload at smoke size, untraced
// and traced, and requires the workload and metric names it reports to be
// exactly those BENCHMARK.json declares, with no failed operation. It keeps
// the benchmark from rotting as the engine changes under it.
func TestSmokeMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	sort.Strings(declared)
	if want := slices.Sorted(slices.Values(workloadNames)); !slices.Equal(declared, want) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", declared, workloadNames)
	}

	out := t.TempDir()
	v := &env{ctx: context.Background(), sz: smokeSizes, seed: 1, scratch: &scratch{root: filepath.Join(out, "scratch")}}
	for _, name := range workloadNames {
		o, err := runWorkload(v, name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if o.failed != 0 {
			t.Errorf("%s: %d of %d operations failed: %v", name, o.failed, o.attempted, o.errs)
		}
		compareNames(t, name+" end_to_end", spec.EndToEnd, o.e2e(headline[name][0], headline[name][1]))

		layers, col, err := runTraced(v, name, out)
		if err != nil {
			t.Fatalf("%s traced: %v", name, err)
		}
		if col.failed != 0 {
			t.Errorf("%s traced: %d of %d operations failed: %v", name, col.failed, col.attempted, col.errs)
		}
		compareNames(t, name+" per_layer", spec.PerLayer, layers)
		if _, err := os.Stat(filepath.Join(out, "trace-"+name+".json")); err != nil {
			t.Errorf("%s: no trace file: %v", name, err)
		}
	}
}

func compareNames(t *testing.T, what string, declared []struct{ Name, Unit string }, got map[string]metric) {
	t.Helper()
	units := map[string]string{}
	for _, d := range declared {
		units[d.Name] = d.Unit
		if _, ok := got[d.Name]; !ok {
			t.Errorf("%s: BENCHMARK.json declares %s, the run did not report it", what, d.Name)
		}
	}
	for name, m := range got {
		if unit, ok := units[name]; !ok {
			t.Errorf("%s: the run reports %s, BENCHMARK.json does not declare it", what, name)
		} else if unit != m.Unit {
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", what, name, m.Unit, unit)
		}
	}
}
