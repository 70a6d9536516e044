package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"repro/internal/scengen"
	"repro/internal/spec"
)

// workers is the parallelism of every pool the benchmark sizes itself:
// campaign Workers and fabric workers. It matches the 2-core machine the
// baseline was recorded on; GOMAXPROCS is left at its default.
const workers = 2

// A run builds its inputs at least minSetups times and until setupSeconds
// have passed (at most maxSetups times); setup_s is the median. Short
// set-ups repeat more, so their median stays steady.
const (
	minSetups    = 3
	maxSetups    = 25
	setupSeconds = 1.0
)

// config is what one workload run is given.
type config struct {
	root    string // repository root: holds testdata/ and BENCHMARK.json
	seed    uint64
	seconds float64
	trace   bool
	quick   bool // go test smoke mode: tiny inputs, one call
}

// workload is one named set of inputs and the closed loop that drives it.
type workload struct {
	name  string
	setup func(cfg config, st *setupStats) (instance, error)
}

var workloads = []workload{
	{"integrate-large", setupLarge},
	{"integrate-mix", setupMix},
	{"campaign", setupCampaign},
	{"fabric", setupFabric},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// call is one closed-loop call of a pass over a workload's inputs.
type call struct {
	family string  // scengen family of the input, "" for none
	ops    float64 // ops the call counts for: 1 per Integrate, 1 per 1,000 trials
}

// instance is a set-up workload. The harness calls run for the timed
// call, then after (untimed) to check and record its output, then, in a
// traced run, replay to repeat it layer by layer. A run ends on a
// multiple of block calls, so every run measures whole balanced blocks of
// the plan.
type instance interface {
	calls() []call
	block() int
	run(i int) error
	after(i int) error
	replay(i int, t *tracer) error
	verify() []error
}

// setupStats accumulates scenario generation time across set-ups.
type setupStats struct {
	genSeconds float64
	scenarios  int
}

// generate builds one scengen scenario, timing it.
func (st *setupStats) generate(fam scengen.Family, processes int, seed uint64) (*spec.System, error) {
	t0 := time.Now()
	sc, err := scengen.Generate(scengen.Config{Family: fam, Processes: processes, Seed: seed, Workers: workers})
	st.genSeconds += time.Since(t0).Seconds()
	st.scenarios++
	if err != nil {
		return nil, err
	}
	return sc.System, nil
}

// maxErrors bounds the failed checks a run reports one by one.
const maxErrors = 20

// inputSeed derives the seed of the k-th generated input of a run.
func inputSeed(run uint64, k int) uint64 { return run*1000 + uint64(k) }

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is everything one workload run reports.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	WallS     float64           `json:"wall_s"`
	Metrics   map[string]metric `json:"metrics"`
	Info      map[string]metric `json:"info"`
	Errors    []string          `json:"errors,omitempty"`
	spans     *tracer
}

// runWorkload sets the workload up repeatedly, runs the closed loop for
// cfg.seconds, checks every output and assembles the metrics: the
// end-to-end set untraced, the per-layer set traced.
func runWorkload(w workload, cfg config) *runResult {
	began := time.Now()
	res := &runResult{Workload: w.name, Seed: cfg.seed, Trace: cfg.trace}
	failures := 0
	fail := func(err error) {
		if failures++; failures <= maxErrors {
			res.Errors = append(res.Errors, err.Error())
		}
	}
	defer func() {
		if failures > maxErrors {
			res.Errors = append(res.Errors, fmt.Sprintf("... and %d more", failures-maxErrors))
		}
		res.Correct = failures == 0
		res.WallS = time.Since(began).Seconds()
	}()

	st := &setupStats{}
	var inst instance
	var setups []float64
	setupCal, loopCal := &calibrator{}, &calibrator{}
	setupCal.sample()
	for r, spent := 0, 0.0; r < maxSetups && (r < minSetups || spent < setupSeconds); r++ {
		inst = nil
		runtime.GC()
		t0 := time.Now()
		in, err := w.setup(cfg, st)
		if err == nil {
			// One untimed warm-up call, so caches and lazy set-up are
			// paid before timing starts.
			if err = in.run(0); err == nil {
				err = in.after(0)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
		spent += setups[r]
		if err != nil {
			fail(fmt.Errorf("setup: %w", err))
			return res
		}
		inst = in
		if cfg.quick {
			break
		}
	}
	setupCal.sample()

	calls, block := inst.calls(), inst.block()
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		res.spans = tr
	}
	var lat []float64
	famLat := map[string][]float64{}
	ops, busy := 0.0, 0.0
	// Reference samples are taken between calls; their allocations are
	// left out of the loop's.
	var ms0, ms1, skipped runtime.MemStats
	calibrate := func() {
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		loopCal.sample()
		runtime.ReadMemStats(&b)
		skipped.TotalAlloc += b.TotalAlloc - a.TotalAlloc
		skipped.Mallocs += b.Mallocs - a.Mallocs
	}
	loopCal.sample()
	runtime.ReadMemStats(&ms0)
	rt0 := readRuntime()
	loopStart := time.Now()
	for i := 0; ; i++ {
		// Untraced runs stop on busy time, so the untimed checks between
		// calls do not shorten the measurement; traced runs stop on wall
		// time, replays included.
		elapsed := busy
		if tr != nil {
			elapsed = time.Since(loopStart).Seconds()
		}
		if i > 0 && (cfg.quick || elapsed >= cfg.seconds && i%block == 0) {
			break
		}
		if i%block == 0 && loopCal.due() {
			calibrate()
		}
		k := i % len(calls)
		t0 := time.Now()
		err := inst.run(k)
		d := time.Since(t0).Seconds()
		res.Attempted++
		busy += d
		if err != nil {
			res.Failed++
			fail(err)
			continue
		}
		ops += calls[k].ops
		lat = append(lat, d)
		if f := calls[k].family; f != "" {
			famLat[f] = append(famLat[f], d)
		}
		if err := inst.after(k); err != nil {
			fail(err)
		}
		if tr != nil {
			tr.op = i
			tr.sum["call.s"] += d
			if err := inst.replay(k, tr); err != nil {
				fail(fmt.Errorf("replay of call %d: %w", k, err))
			}
		}
	}
	rt1 := readRuntime()
	runtime.ReadMemStats(&ms1)
	loopCal.sample()
	peakRSS := vmHWM()

	for _, err := range inst.verify() {
		fail(err)
	}

	res.Info = map[string]metric{
		"calls":          {float64(len(lat)), "count"},
		"latency_ms_p50": {1e3 * median(lat), "ms"},
		"fail_frac":      {float64(res.Failed) / float64(max(res.Attempted, 1)), "ratio"},
		"raw_setup_s":    {median(setups), "s"},
		"raw_ops_per_s":  {ops / max(busy, 1e-9), "ops/s"},
		"ref_per_s":      {loopCal.rate(), "calls/s"},
	}
	if pct, v, beyond := tail(lat); pct > 0 {
		res.Info["latency_ms_"+pctName(pct)] = metric{1e3 * v, "ms"}
		res.Info["latency_beyond_"+pctName(pct)] = metric{float64(beyond), "count"}
	}
	if ops == 0 || busy == 0 {
		fail(fmt.Errorf("no call completed"))
		return res
	}
	if !cfg.trace {
		allocated := ms1.TotalAlloc - ms0.TotalAlloc - skipped.TotalAlloc
		objects := ms1.Mallocs - ms0.Mallocs - skipped.Mallocs
		res.Metrics = map[string]metric{
			"setup_s":         {median(setups) * setupCal.speed(), "s"},
			"ops_per_s":       {ops / busy / loopCal.speed(), "ops/s"},
			"alloc_mb_per_op": {float64(allocated) / 1e6 / ops, "MB"},
			"allocs_per_op":   {float64(objects) / ops, "count"},
			"peak_rss_mb":     {peakRSS, "MB"},
		}
		return res
	}
	tr.sum["gc.cycles"] = rt1.gcCycles - rt0.gcCycles
	if cpu := rt1.cpuTotal - rt0.cpuTotal; cpu > 0 {
		tr.sum["gc.cpu_frac"] = (rt1.cpuGC - rt0.cpuGC) / cpu
	}
	tr.sum["scengen.s"], tr.sum["scengen.n"] = st.genSeconds, float64(st.scenarios)
	res.Metrics = layerMetrics(tr, lat, famLat)
	return res
}

func pctName(p float64) string {
	return "p" + strings.ReplaceAll(strconv.FormatFloat(p, 'f', -1, 64), ".", "_")
}

// runtimeSample is the subset of runtime/metrics the runs read.
type runtimeSample struct {
	gcCycles, cpuGC, cpuTotal, heapObjects float64
}

var runtimeKeys = []string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/memory/classes/heap/objects:bytes",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeKeys))
	for i, k := range runtimeKeys {
		s[i].Name = k
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{v(0), v(1), v(2), v(3)}
}

// readAllocBytes returns the cumulative bytes allocated on the heap.
func readAllocBytes() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// vmHWM returns the process's peak resident set size in MB, from
// /proc/self/status (0 where that file does not exist).
func vmHWM() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb * 1024 / 1e6
			}
		}
	}
	return 0
}
