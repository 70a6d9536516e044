package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"repro/internal/obs"
	"repro/internal/scengen"
)

// maxSpans bounds the spans a traced run keeps in memory; later spans are
// still summed into the layer totals but not written out.
const maxSpans = 1 << 18

// tracer records the spans and counters of a traced run. Spans are timed
// from the benchmark's side of each public call; counters come from the
// registry the layers already publish into.
type tracer struct {
	t0      time.Time
	op      int // closed-loop call the spans belong to
	next    int
	spans   []span
	dropped int
	sum     map[string]float64
	reg     *obs.Registry
	heapMax float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), sum: map[string]float64{}, reg: obs.NewRegistry()}
}

func (t *tracer) now() float64 { return float64(time.Since(t.t0).Nanoseconds()) / 1e3 }

// start opens a span under parent (0 for a root).
func (t *tracer) start(name string, parent int) *span {
	t.next++
	return &span{ID: t.next, Parent: parent, Op: t.op, Name: name, Start: t.now()}
}

// finish closes s, adds its duration to the "<name>.s" total and returns
// the duration in seconds.
func (t *tracer) finish(s *span) float64 {
	s.End = t.now()
	t.keep(*s)
	if h := readRuntime().heapObjects; h > t.heapMax {
		t.heapMax = h
	}
	return (s.End - s.Start) / 1e6
}

// keep stores a completed span and sums its duration by name.
func (t *tracer) keep(s span) {
	t.sum[s.Name+".s"] += (s.End - s.Start) / 1e6
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
}

// stage times fn as a child span of parent.
func (t *tracer) stage(parent int, name string, fn func() error) error {
	s := t.start(name, parent)
	err := fn()
	t.finish(s)
	return err
}

// counter reads a registry counter the layers publish into.
func (t *tracer) counter(name string) float64 { return float64(t.reg.Counter(name, "").Value()) }

// writeSpans writes the kept spans and the self time per span name to
// dir/<workload>.trace.json.
func (t *tracer) writeSpans(dir, workload string) error {
	self := selfTimes(t.spans)
	byName := map[string]float64{}
	for _, s := range t.spans {
		byName[s.Name] += self[s.ID] / 1e3
	}
	raw, err := json.Marshal(struct {
		Workload    string             `json:"workload"`
		SelfMSTotal map[string]float64 `json:"self_ms_by_name"`
		Dropped     int                `json:"spans_dropped"`
		Spans       []span             `json:"spans"`
	}{workload, byName, t.dropped, t.spans})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".trace.json"), raw, 0o644)
}

// layerMetric names one per-layer metric and its unit.
type layerMetric struct{ name, unit string }

// layerMetricList is the per-layer set every traced run reports, in
// report order. A layer a workload does not exercise reads 0; times are
// kept only where every workload has them, so layer costs are shares of
// the replayed op time.
var layerMetricList = func() []layerMetric {
	l := []layerMetric{
		{"op.ms_p50", "ms"}, {"op.ms_tail", "ms"}, {"op.tail_pct", "%"},
		{"op.samples", "count"}, {"op.beyond_tail", "count"},
	}
	for _, f := range scengen.Families() {
		l = append(l, layerMetric{"family." + string(f) + ".ms_p50", "ms"})
	}
	return append(l,
		layerMetric{"spec.share", "ratio"},
		layerMetric{"influence.share", "ratio"},
		layerMetric{"cluster.expand_share", "ratio"},
		layerMetric{"graph.clone_share", "ratio"},
		layerMetric{"cluster.condense_share", "ratio"},
		layerMetric{"sched.share", "ratio"},
		layerMetric{"mapping.assign_share", "ratio"},
		layerMetric{"mapping.evaluate_share", "ratio"},
		layerMetric{"metrics.share", "ratio"},
		layerMetric{"ledger.encode_share", "ratio"},
		layerMetric{"integrate.stage_sum_frac", "ratio"},
		layerMetric{"cluster.pairs_considered_per_op", "count"},
		layerMetric{"cluster.pairs_per_merge", "count"},
		layerMetric{"cluster.merges_per_op", "count"},
		layerMetric{"cluster.feasible_ratio", "ratio"},
		layerMetric{"cluster.fallbacks_per_op", "count"},
		layerMetric{"sched.calls_per_op", "count"},
		layerMetric{"ledger.records_per_op", "count"},
		layerMetric{"ledger.bytes_per_op", "B"},
		layerMetric{"faultsim.chunks", "count"},
		layerMetric{"faultsim.trials_per_s_1w", "trials/s"},
		layerMetric{"faultsim.alloc_kb_per_chunk", "KB"},
		layerMetric{"faultsim.merge_share", "ratio"},
		layerMetric{"fabric.wire_bytes_per_trial", "B"},
		layerMetric{"fabric.frames_per_chunk", "count"},
		layerMetric{"fabric.decode_share", "ratio"},
		layerMetric{"fabric.evaluate_share", "ratio"},
		layerMetric{"fabric.encode_share", "ratio"},
		layerMetric{"fabric.leases_per_chunk", "count"},
		layerMetric{"fabric.reassigned", "count"},
		layerMetric{"fabric.duplicates", "count"},
		layerMetric{"fabric.local_chunks", "count"},
		layerMetric{"fabric.relay_off.trials_per_s", "trials/s"},
		layerMetric{"fabric.relay_on.trials_per_s", "trials/s"},
		layerMetric{"fabric.overhead_frac", "ratio"},
		layerMetric{"scengen.ms_per_scenario", "ms"},
		layerMetric{"runtime.gc_cpu_frac", "ratio"},
		layerMetric{"runtime.gc_cycles", "count"},
		layerMetric{"runtime.heap_peak_mb", "MB"},
		layerMetric{"obs.trace_overhead_frac", "ratio"},
	)
}()

// integrateStages are the replayed Integrate stages, as span names.
var integrateStages = []string{
	"spec", "influence", "cluster.expand", "graph.clone", "cluster.condense",
	"mapping.assign", "mapping.evaluate", "metrics", "ledger.encode",
}

// layerMetrics turns a traced run's totals into the per-layer set.
func layerMetrics(t *tracer, lat []float64, famLat map[string][]float64) map[string]metric {
	s := t.sum
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	v := map[string]float64{}
	pct, tailV, beyond := tail(lat)
	v["op.ms_p50"] = 1e3 * median(lat)
	v["op.ms_tail"], v["op.tail_pct"], v["op.beyond_tail"] = 1e3*tailV, pct, float64(beyond)
	v["op.samples"] = float64(len(lat))
	for f, xs := range famLat {
		v["family."+f+".ms_p50"] = 1e3 * median(xs)
	}

	s["cluster.pairs"] = t.counter("cluster_candidate_pairs_total")
	s["cluster.feasible"] = t.counter("cluster_feasible_pairs_total")
	s["cluster.merges"] = t.counter("cluster_merges_total")
	s["sched.calls"] = t.counter("sched_feasible_calls_total")
	s["sched.s"] = t.reg.Histogram("sched_feasible_seconds", "", obs.DurationBuckets).Sum()
	replay, ints := s["integrate.replay.s"], s["integrate.replays"]
	stageSum := 0.0
	for _, st := range integrateStages {
		stageSum += s[st+".s"]
	}
	v["spec.share"] = div(s["spec.s"], replay)
	v["influence.share"] = div(s["influence.s"], replay)
	v["cluster.expand_share"] = div(s["cluster.expand.s"], replay)
	v["graph.clone_share"] = div(s["graph.clone.s"], replay)
	v["cluster.condense_share"] = div(s["cluster.condense.s"], replay)
	v["sched.share"] = div(s["sched.s"], replay)
	v["mapping.assign_share"] = div(s["mapping.assign.s"], replay)
	v["mapping.evaluate_share"] = div(s["mapping.evaluate.s"], replay)
	v["metrics.share"] = div(s["metrics.s"], replay)
	v["ledger.encode_share"] = div(s["ledger.encode.s"], replay)
	v["integrate.stage_sum_frac"] = div(stageSum, s["call.s"])
	v["cluster.pairs_considered_per_op"] = div(s["cluster.pairs"], ints)
	v["cluster.pairs_per_merge"] = div(s["cluster.pairs"], s["cluster.merges"])
	v["cluster.merges_per_op"] = div(s["cluster.merges"], ints)
	v["cluster.feasible_ratio"] = div(s["cluster.feasible"], s["cluster.pairs"])
	v["cluster.fallbacks_per_op"] = div(s["cluster.fallbacks"], ints)
	v["sched.calls_per_op"] = div(s["sched.calls"], ints)
	v["ledger.records_per_op"] = div(s["ledger.records"], ints)
	v["ledger.bytes_per_op"] = div(s["ledger.bytes"], ints)

	v["faultsim.chunks"] = s["faultsim.chunks"]
	v["faultsim.trials_per_s_1w"] = div(s["faultsim.trials"], s["faultsim.chunk.s"])
	v["faultsim.alloc_kb_per_chunk"] = div(s["faultsim.chunk.bytes"]/1e3, s["faultsim.chunks"])
	v["faultsim.merge_share"] = div(s["faultsim.merge.s"], s["faultsim.chunk.s"]+s["faultsim.merge.s"])

	phases := s["decode.s"] + s["evaluate.s"] + s["encode.s"]
	v["fabric.wire_bytes_per_trial"] = div(s["fabric.bytes"], s["fabric.trials"])
	v["fabric.frames_per_chunk"] = div(s["fabric.frames"], s["fabric.chunks"])
	v["fabric.decode_share"] = div(s["decode.s"], phases)
	v["fabric.evaluate_share"] = div(s["evaluate.s"], phases)
	v["fabric.encode_share"] = div(s["encode.s"], phases)
	v["fabric.leases_per_chunk"] = div(s["fabric.leases"], s["fabric.chunks"])
	v["fabric.reassigned"] = s["fabric.reassigned"]
	v["fabric.duplicates"] = s["fabric.duplicates"]
	v["fabric.local_chunks"] = s["fabric.local_chunks"]
	v["fabric.relay_off.trials_per_s"] = div(s["fabric.off.trials"], s["fabric.off.s"])
	v["fabric.relay_on.trials_per_s"] = div(s["fabric.on.trials"], s["fabric.on.s"])
	if local := div(s["faultsim.local.trials"], s["faultsim.local.s"]); local > 0 {
		fab := div(s["fabric.off.trials"]+s["fabric.on.trials"], s["fabric.off.s"]+s["fabric.on.s"])
		v["fabric.overhead_frac"] = 1 - fab/local
	}

	v["scengen.ms_per_scenario"] = 1e3 * div(s["scengen.s"], s["scengen.n"])
	v["runtime.gc_cpu_frac"] = s["gc.cpu_frac"]
	v["runtime.gc_cycles"] = s["gc.cycles"]
	v["runtime.heap_peak_mb"] = t.heapMax / 1e6
	v["obs.trace_overhead_frac"] = div(s["replay.s"], s["call.s"]) - 1

	out := make(map[string]metric, len(layerMetricList))
	for _, m := range layerMetricList {
		out[m.name] = metric{v[m.name], m.unit}
	}
	return out
}
