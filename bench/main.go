// Command bench is the repository's benchmark: four workloads over the
// integration pipeline, fault-injection campaigns and the distributed
// fabric, each a closed loop with one caller, every output checked.
//
// Untraced, a run prints the end-to-end metrics; traced (-trace), it
// replays every call layer by layer through the layers' public functions
// and prints the per-layer metrics. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}. See
// README.md for the metric dictionary and how to compare two commits.
//
// Usage, from the repository root:
//
//	bash bench/run.sh                            # all workloads, one child process each
//	bash bench/run.sh --workload campaign --seed 7 --seconds 15 --trace 1
//	bash bench/run.sh -compare OLD NEW           # results files or directories
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// defaultSeconds is the measured time of one run, as in BENCHMARK.json.
const defaultSeconds = 15

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run in this process (default: every workload, each in a child process)")
	seed := fs.Uint64("seed", 1998, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", defaultSeconds, "measured time of each run")
	trace := fs.Bool("trace", false, "replay every call layer by layer and report the per-layer metrics")
	out := fs.String("out", "", "results file (default bench/out/results.json, or bench/out/<workload>.results.json)")
	compare := fs.Bool("compare", false, "compare two results files or directories: -compare OLD NEW")
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs OLD and NEW")
			return 2
		}
		return runCompare(root, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	cfg := config{root: root, seed: *seed, seconds: *seconds, trace: *trace}
	if *name == "" {
		return runAll(cfg, *out, stdout, stderr)
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	res := runWorkload(w, cfg)
	printRun(stdout, res)
	if *out == "" {
		*out = filepath.Join(root, "bench", "out", resultsName(w.name, cfg.trace))
	}
	if err := writeResults(*out, cfg, []*runResult{res}); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if res.spans != nil {
		if err := res.spans.writeSpans(filepath.Dir(*out), w.name); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	printLast(stdout, res.Correct, res.Attempted, res.Failed, res.Metrics)
	if !res.Correct {
		return 1
	}
	return 0
}

// normalizeArgs rewrites "--trace 0" and "--trace 1" into the "-trace=0"
// form the flag package needs for a boolean flag.
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			a = "-trace=" + args[i+1]
			i++
		}
		out = append(out, a)
	}
	return out
}

// findRoot returns the repository root: the nearest directory, from the
// working directory up, that holds BENCHMARK.json.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no BENCHMARK.json in the working directory or above it")
		}
		dir = parent
	}
}

func resultsName(workload string, trace bool) string {
	if trace {
		return workload + ".traced.results.json"
	}
	return workload + ".results.json"
}

// runAll runs every workload in its own child process of this binary and
// merges their results.
func runAll(cfg config, out string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	dir := filepath.Join(cfg.root, "bench", "out")
	var runs []*runResult
	code := 0
	for _, w := range workloads {
		file := filepath.Join(dir, resultsName(w.name, cfg.trace))
		args := []string{"-workload", w.name, "-seed", fmt.Sprint(cfg.seed),
			"-seconds", fmt.Sprint(cfg.seconds), fmt.Sprintf("-trace=%v", cfg.trace), "-out", file}
		cmd := exec.Command(exe, args...)
		cmd.Dir = cfg.root
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			code = 1
		}
		rf, err := readResults(file)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			code = 1
			continue
		}
		runs = append(runs, rf.Runs...)
	}
	if out == "" {
		out = filepath.Join(dir, "results.json")
		if cfg.trace {
			out = filepath.Join(dir, "results.traced.json")
		}
	}
	if err := writeResults(out, cfg, runs); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	correct, attempted, failed := code == 0, 0, 0
	all := map[string]metric{}
	for _, r := range runs {
		correct = correct && r.Correct
		attempted += r.Attempted
		failed += r.Failed
		for k, m := range r.Metrics {
			all[r.Workload+"/"+k] = m
		}
	}
	fmt.Fprintf(stdout, "bench: wrote %s\n", out)
	printLast(stdout, correct, attempted, failed, all)
	if !correct {
		return 1
	}
	return 0
}

// printRun prints one run as a table: every metric by name with its
// unit, then the informational numbers and any failed check.
func printRun(w io.Writer, r *runResult) {
	bw := bufio.NewWriter(w)
	defer bw.Flush()
	mode := "untraced"
	if r.Trace {
		mode = "traced"
	}
	fmt.Fprintf(bw, "== %s (%s, seed %d): %d calls attempted, %d failed, %.1f s wall\n",
		r.Workload, mode, r.Seed, r.Attempted, r.Failed, r.WallS)
	for _, set := range []map[string]metric{r.Metrics, r.Info} {
		names := make([]string, 0, len(set))
		for k := range set {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Fprintf(bw, "  %-34s %14.6g %s\n", k, set[k].Value, set[k].Unit)
		}
	}
	for _, e := range r.Errors {
		fmt.Fprintf(bw, "  CHECK FAILED: %s\n", e)
	}
}

// printLast prints the one-line JSON summary that ends every run.
func printLast(w io.Writer, correct bool, attempted, failed int, m map[string]metric) {
	if m == nil {
		m = map[string]metric{}
	}
	raw, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, max(attempted, 1), failed, m})
	fmt.Fprintln(w, string(raw))
}

// stamp records the machine and build a results file was measured on.
type stamp struct {
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
}

func newStamp(cfg config) stamp {
	s := stamp{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Trace:      cfg.trace,
	}
	// Only ask git about a checkout that is itself a repository, never a
	// repository that merely encloses it.
	if _, err := os.Stat(filepath.Join(cfg.root, ".git")); err == nil {
		if head, err := exec.Command("git", "-C", cfg.root, "rev-parse", "HEAD").Output(); err == nil {
			s.Commit = strings.TrimSpace(string(head))
		}
	}
	return s
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// resultsFile is the JSON a run writes and -compare reads.
type resultsFile struct {
	Stamp stamp        `json:"stamp"`
	Runs  []*runResult `json:"runs"`
}

func writeResults(path string, cfg config, runs []*runResult) error {
	raw, err := json.MarshalIndent(resultsFile{newStamp(cfg), runs}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func readResults(path string) (*resultsFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultsFile
	if err := json.Unmarshal(raw, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}
