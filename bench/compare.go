package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"text/tabwriter"
)

// benchSpec is BENCHMARK.json: the workloads, and the metrics with the
// bound by which each end-to-end metric may worsen.
type benchSpec struct {
	RunSeconds int          `json:"run_seconds"`
	Workloads  []specEntry  `json:"workloads"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specEntry struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readSpec(root string) (*benchSpec, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// loadSide reads every run of a results file, or of every results file in
// a directory, grouped as workload -> metric -> one value per run.
func loadSide(path string) (map[string]map[string][]float64, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		files, err = filepath.Glob(filepath.Join(path, "*.json"))
		if err != nil {
			return nil, err
		}
	}
	out := map[string]map[string][]float64{}
	for _, f := range files {
		if strings.HasSuffix(f, ".trace.json") {
			continue // span dumps, not results
		}
		rf, err := readResults(f)
		if err != nil {
			return nil, err
		}
		for _, r := range rf.Runs {
			if out[r.Workload] == nil {
				out[r.Workload] = map[string][]float64{}
			}
			for k, m := range r.Metrics {
				out[r.Workload][k] = append(out[r.Workload][k], m.Value)
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return out, nil
}

// verdict compares one (workload, metric) across two sets of runs. A
// metric whose spread on either side exceeds its bound is unresolved,
// unless every new run beats every old run.
func verdict(old, cur []float64, higherBetter bool, bound float64) string {
	change := worseBy(median(old), median(cur), higherBetter)
	if spread(old) > bound || spread(cur) > bound {
		if allBetter(old, cur, higherBetter) {
			return "improved"
		}
		return "unresolved"
	}
	switch {
	case change > bound:
		return "REGRESSED"
	case change < -bound:
		return "improved"
	}
	return "same"
}

func allBetter(old, cur []float64, higherBetter bool) bool {
	for _, o := range old {
		for _, c := range cur {
			if worseBy(o, c, higherBetter) >= 0 {
				return false
			}
		}
	}
	return true
}

// runCompare prints one row per (workload, metric) with both medians and
// returns 1 when any end-to-end metric regressed beyond its bound.
func runCompare(root, oldPath, newPath string, stdout, stderr io.Writer) int {
	spec, err := readSpec(root)
	if err == nil {
		var oldRuns, newRuns map[string]map[string][]float64
		if oldRuns, err = loadSide(oldPath); err == nil {
			if newRuns, err = loadSide(newPath); err == nil {
				return compareRuns(spec, oldRuns, newRuns, stdout)
			}
		}
	}
	fmt.Fprintln(stderr, "bench:", err)
	return 2
}

func compareRuns(spec *benchSpec, oldRuns, newRuns map[string]map[string][]float64, stdout io.Writer) int {
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\told median\tnew median\tchange\tspread old/new\tbound\tverdict")
	code := 0
	for _, w := range spec.Workloads {
		for _, m := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
			old, cur := oldRuns[w.Name][m.Name], newRuns[w.Name][m.Name]
			if len(old) == 0 || len(cur) == 0 {
				continue
			}
			bound, v := "-", "-"
			if m.Bound != nil {
				bound = fmt.Sprintf("%.0f%%", 100**m.Bound)
				v = verdict(old, cur, m.Better == "higher", *m.Bound)
				if v == "REGRESSED" {
					code = 1
				}
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%s\t%.1f%%/%.1f%%\t%s\t%s\n",
				w.Name, m.Name, m.Unit, median(old), median(cur), pctChange(worseBy(median(old), median(cur), false)),
				100*spread(old), 100*spread(cur), bound, v)
		}
	}
	tw.Flush()
	return code
}

func pctChange(c float64) string {
	if math.IsInf(c, 0) || math.IsNaN(c) {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", 100*c)
}
