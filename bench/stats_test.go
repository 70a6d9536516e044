package main

import (
	"io"
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

// TestTailKeepsTenBeyond pins the reporting rule: the highest percentile
// of the ladder with at least ten samples beyond it, and that count.
func TestTailKeepsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		pct    float64
		beyond int
	}{
		{19, 0, 0},
		{20, 50, 10},
		{39, 50, 19},
		{40, 75, 10},
		{100, 90, 10},
		{999, 95, 49},
		{1000, 99, 10},
		{10000, 99.9, 10},
	} {
		pct, v, beyond := tail(seq(tc.n))
		if pct != tc.pct || beyond != tc.beyond {
			t.Errorf("n=%d: p%g with %d beyond, want p%g with %d", tc.n, pct, beyond, tc.pct, tc.beyond)
		}
		over := 0
		for _, x := range seq(tc.n) {
			if x > v {
				over++
			}
		}
		if pct > 0 && over < beyond {
			t.Errorf("n=%d: %d samples beyond p%g = %g, reported %d", tc.n, over, pct, v, beyond)
		}
	}
}

// TestQuartilesMatchPython pins the spread rule to Python's
// statistics.quantiles(xs, n=4), which judges repeated runs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{seq(10), 2.75, 8.25},
		{[]float64{5, 1}, 0, 6},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{4}, 4, 4},
	} {
		if q1, q3 := quartiles(tc.xs); q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if got := spread(seq(10)); math.Abs(got-5.5/5.5) > 1e-12 {
		t.Errorf("spread(1..10) = %g, want 1", got)
	}
}

// TestSelfTimeNestedAndOverlapping subtracts the union of a span's
// children, clipped to the span, however they nest or overlap.
func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 2, Name: "a1", Start: 15, End: 20},
		{ID: 4, Parent: 1, Name: "b", Start: 30, End: 60}, // overlaps a
		{ID: 5, Parent: 1, Name: "c", Start: 70, End: 80},
		{ID: 6, Parent: 1, Name: "d", Start: 90, End: 120}, // runs past root
		{ID: 7, Parent: 1, Name: "e", Start: 35, End: 50},  // inside a ∪ b
	}
	want := map[int]float64{1: 100 - 50 - 10 - 10, 2: 30 - 5, 3: 5, 4: 30, 5: 10, 6: 30, 7: 15}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d self time %g, want %g", id, got[id], w)
		}
	}
}

// TestVerdictAgainstBound covers the compare rules: a change within the
// bound is the same, beyond it a regression or an improvement, and a
// spread wider than the bound leaves the row unresolved unless every new
// run beats every old one.
func TestVerdictAgainstBound(t *testing.T) {
	old := []float64{100, 101, 99, 100, 100}
	for _, tc := range []struct {
		name   string
		cur    []float64
		higher bool
		want   string
	}{
		{"within bound", []float64{102, 103, 101, 102, 102}, false, "same"},
		{"slower beyond bound", []float64{110, 111, 109, 110, 110}, false, "REGRESSED"},
		{"faster beyond bound", []float64{90, 91, 89, 90, 90}, false, "improved"},
		{"higher is better", []float64{90, 91, 89, 90, 90}, true, "REGRESSED"},
		{"noisy", []float64{80, 120, 95, 110, 90}, false, "unresolved"},
		{"noisy but always faster", []float64{50, 80, 60, 75, 55}, false, "improved"},
	} {
		if got := verdict(old, tc.cur, tc.higher, 0.05); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}

	bound := 0.05
	spec := &benchSpec{
		Workloads: []specEntry{{Name: "w"}},
		EndToEnd:  []specMetric{{Name: "ops_per_s", Unit: "ops/s", Better: "higher", Bound: &bound}},
	}
	oldRuns := map[string]map[string][]float64{"w": {"ops_per_s": old}}
	if code := compareRuns(spec, oldRuns, map[string]map[string][]float64{"w": {"ops_per_s": {90, 90, 90}}}, io.Discard); code != 1 {
		t.Errorf("a 10%% throughput drop exits %d, want 1", code)
	}
	if code := compareRuns(spec, oldRuns, map[string]map[string][]float64{"w": {"ops_per_s": {99, 100, 101}}}, io.Discard); code != 0 {
		t.Errorf("an unchanged throughput exits %d, want 0", code)
	}
}
