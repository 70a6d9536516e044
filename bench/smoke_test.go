package main

import (
	"reflect"
	"testing"
)

// TestQuickSmoke runs every workload once untraced and once traced, with
// tiny inputs and every output check on, and holds the metric sets to
// BENCHMARK.json.
func TestQuickSmoke(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := readSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("BENCHMARK.json runs %d s, the benchmark defaults to %d s", spec.RunSeconds, defaultSeconds)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !reflect.DeepEqual(names, ours) {
		t.Errorf("BENCHMARK.json names workloads %v, the benchmark %v", names, ours)
	}
	units := func(ms []specMetric) map[string]string {
		out := map[string]string{}
		for _, m := range ms {
			out[m.Name] = m.Unit
		}
		return out
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res := runWorkload(w, config{root: root, seed: 1, seconds: 1, trace: trace, quick: true})
			if !res.Correct || res.Attempted != 1 || res.Failed != 0 {
				t.Fatalf("%s (trace %v): correct %v, %d attempted, %d failed: %v",
					w.name, trace, res.Correct, res.Attempted, res.Failed, res.Errors)
			}
			want := units(spec.EndToEnd)
			if trace {
				want = units(spec.PerLayer)
			}
			got := map[string]string{}
			for k, m := range res.Metrics {
				got[k] = m.Unit
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s (trace %v): metrics %v, BENCHMARK.json lists %v", w.name, trace, got, want)
			}
		}
	}
}

func TestNormalizeArgs(t *testing.T) {
	got := normalizeArgs([]string{"--workload", "fabric", "--trace", "1", "--seconds", "15", "--trace", "0"})
	want := []string{"--workload", "fabric", "-trace=1", "--seconds", "15", "-trace=0"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("normalizeArgs = %v, want %v", got, want)
	}
}
