package obs

import (
	"sort"
	"sync"
	"time"
)

// pipelineStages are the Integrate stage spans, in execution order; the
// tracker recognises them by name when span events are mirrored onto the
// bus.
var pipelineStages = []string{"partition", "influence", "replicate", "condense", "map", "evaluate"}

// StageProgress is the live state of one Integrate pipeline stage.
type StageProgress struct {
	Name string `json:"name"`
	// State is "pending", "running" or "done".
	State string `json:"state"`
	// Attempts counts how many times the stage has started (fallback
	// chains and races restart condense/map/evaluate).
	Attempts   int     `json:"attempts,omitempty"`
	DurationMS float64 `json:"duration_ms,omitempty"`
}

// CampaignProgress is the live state of one fault-injection campaign as
// reconstructed from campaign_start/checkpoint/done events.
type CampaignProgress struct {
	Label       string  `json:"label"`
	Model       string  `json:"model,omitempty"`
	Workers     int     `json:"workers,omitempty"`
	TrialsDone  int     `json:"trials_done"`
	TrialsTotal int     `json:"trials_total"`
	EscapeRate  float64 `json:"escape_rate"`
	// HalfWidth is the latest Wilson CI half-width of the escape-rate
	// estimate; the trails record its trajectory for convergence plots.
	HalfWidth       float64   `json:"half_width,omitempty"`
	TrailTrials     []int     `json:"trail_trials,omitempty"`
	TrailHalfWidth  []float64 `json:"trail_half_width,omitempty"`
	TrialsPerSec    float64   `json:"trials_per_sec,omitempty"`
	EtaSeconds      float64   `json:"eta_seconds,omitempty"`
	EarlyStopped    bool      `json:"early_stopped,omitempty"`
	Done            bool      `json:"done"`
	startTMS        float64
	lastTMS         float64
	startTrialsDone int // resume offset: trials completed before this run
}

// SearchProgress is the live state of an adversarial search.
type SearchProgress struct {
	Evaluations int     `json:"evaluations"`
	BestScore   float64 `json:"best_score"`
	Scenario    string  `json:"scenario,omitempty"`
	Done        bool    `json:"done"`
}

// CertifyProgress is the live state of a robustness certification.
type CertifyProgress struct {
	Members       int     `json:"members"`
	Levels        int     `json:"levels"`
	Epsilon       float64 `json:"epsilon"`
	StableFrac    float64 `json:"stable_frac"`
	WorstUnstable float64 `json:"worst_unstable_epsilon,omitempty"`
	Done          bool    `json:"done"`
}

// FabricWorkerProgress is the live state of one distributed-campaign
// worker as seen by the coordinator.
type FabricWorkerProgress struct {
	Name string `json:"name"`
	// State is the last liveness transition: join, lost, drain, done (or
	// the worker-side connected/retry/drained when tracking a worker
	// process's own bus).
	State      string `json:"state"`
	Leases     int    `json:"leases"`
	ChunksDone int    `json:"chunks_done"`
	// Chunk-latency quantiles (leased→resulted on the coordinator clock),
	// folded from the latency_ms attribute of fabric_lease result events
	// and computed at Snapshot time over a bounded recent window.
	LatencyP50MS float64 `json:"latency_p50_ms,omitempty"`
	LatencyP95MS float64 `json:"latency_p95_ms,omitempty"`
	// Clock-offset estimate relative to the coordinator (µs, RTT-midpoint
	// method) and the RTT of the sample it came from, from fabric_clock.
	ClockOffsetUS float64 `json:"clock_offset_us,omitempty"`
	RTTUS         float64 `json:"rtt_us,omitempty"`
	// Straggler marks a worker flagged by the coordinator's straggler
	// detector (fabric_straggler); sticky for the connection's lifetime.
	Straggler bool `json:"straggler,omitempty"`

	lat    []float64 // latency ring (workerLatCap)
	latPos int
}

// workerLatCap bounds each worker row's latency window.
const workerLatCap = 64

// FabricProgress is the live state of the distributed campaign fabric,
// folded from fabric_worker/fabric_lease/fabric_quarantine/fabric_done
// events.
type FabricProgress struct {
	Label         string                 `json:"label,omitempty"`
	Workers       []FabricWorkerProgress `json:"workers,omitempty"`
	LeasesGranted int                    `json:"leases_granted"`
	LeasesExpired int                    `json:"leases_expired,omitempty"`
	Reassigned    int                    `json:"reassigned,omitempty"`
	Duplicates    int                    `json:"duplicates,omitempty"`
	// Quarantined counts workers dropped for failing a spot-check;
	// LocalChunks counts chunks the coordinator computed itself after the
	// live worker set emptied.
	Quarantined int  `json:"quarantined,omitempty"`
	LocalChunks int  `json:"local_chunks,omitempty"`
	Done        bool `json:"done"`
	byName      map[string]*FabricWorkerProgress
}

// ProgressSnapshot is the /progress JSON document: everything the bus has
// revealed about the run so far, summarised for an operator.
type ProgressSnapshot struct {
	// Run identifies the current Integrate invocation.
	Run       string             `json:"run,omitempty"`
	Stages    []StageProgress    `json:"stages,omitempty"`
	Campaigns []CampaignProgress `json:"campaigns,omitempty"`
	Search    *SearchProgress    `json:"search,omitempty"`
	Certify   *CertifyProgress   `json:"certify,omitempty"`
	Fabric    *FabricProgress    `json:"fabric,omitempty"`
	// Events/Seq/DroppedEvents describe the bus itself.
	Events        uint64 `json:"events"`
	Seq           uint64 `json:"seq"`
	DroppedEvents uint64 `json:"dropped_events"`
	// UptimeSeconds is the time since the tracker saw its first event.
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// halfWidthTrailCap bounds each campaign's CI-convergence trail.
const halfWidthTrailCap = 240

// Tracker folds the bus's event stream into live progress state — the
// trials/sec throughput, completed-trial frontier, Wilson CI half-width
// trajectory and ETA of every campaign, plus per-stage Integrate
// progress. It attaches to the bus as a synchronous sink; Apply is O(1)
// and never blocks, so publishing stays non-blocking end to end.
type Tracker struct {
	mu        sync.Mutex
	bus       *Bus
	run       string
	stages    []*StageProgress
	campaigns []*CampaignProgress
	byLabel   map[string]*CampaignProgress
	search    *SearchProgress
	certify   *CertifyProgress
	fabric    *FabricProgress
	events    uint64
	firstSeen time.Time
	now       func() time.Time
}

// NewTracker builds a tracker and attaches it to the bus (a nil bus
// yields a detached tracker that only ever reports an empty snapshot).
func NewTracker(b *Bus) *Tracker {
	t := &Tracker{bus: b, byLabel: map[string]*CampaignProgress{}, now: time.Now}
	b.Attach(t.Apply)
	return t
}

// Apply folds one event into the progress state.
func (t *Tracker) Apply(ev BusEvent) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.events++
	if t.firstSeen.IsZero() {
		t.firstSeen = t.now()
	}
	switch ev.Kind {
	case "span_start":
		switch ev.Name {
		case "integrate":
			// A fresh pipeline run: reset the stage board.
			if sys, ok := ev.Attrs["system"].(string); ok {
				t.run = sys
			}
			t.stages = t.stages[:0]
			for _, name := range pipelineStages {
				t.stages = append(t.stages, &StageProgress{Name: name, State: "pending"})
			}
		default:
			if sp := t.stage(ev.Name); sp != nil {
				sp.State = "running"
				sp.Attempts++
			}
		}
	case "span_end":
		if sp := t.stage(ev.Name); sp != nil {
			sp.State = "done"
			if d, ok := toFloat(ev.Attrs["duration_ms"]); ok {
				sp.DurationMS = d
			}
		}
	case "campaign_start":
		c := t.campaign(ev.Name)
		*c = CampaignProgress{Label: ev.Name, startTMS: ev.TMS, lastTMS: ev.TMS}
		if v, ok := toInt(ev.Attrs["trials_total"]); ok {
			c.TrialsTotal = v
		}
		if v, ok := toInt(ev.Attrs["trials_done"]); ok {
			c.TrialsDone = v
			c.startTrialsDone = v
		}
		if v, ok := ev.Attrs["model"].(string); ok {
			c.Model = v
		}
		if v, ok := toInt(ev.Attrs["workers"]); ok {
			c.Workers = v
		}
	case "campaign_checkpoint":
		c := t.campaign(ev.Name)
		c.lastTMS = ev.TMS
		if v, ok := toInt(ev.Attrs["trials_done"]); ok {
			c.TrialsDone = v
		}
		if v, ok := toInt(ev.Attrs["trials_total"]); ok {
			c.TrialsTotal = v
		}
		if v, ok := toFloat(ev.Attrs["escape_rate"]); ok {
			c.EscapeRate = v
		}
		if v, ok := toFloat(ev.Attrs["half_width"]); ok {
			c.HalfWidth = v
			if len(c.TrailTrials) < halfWidthTrailCap {
				c.TrailTrials = append(c.TrailTrials, c.TrialsDone)
				c.TrailHalfWidth = append(c.TrailHalfWidth, v)
			}
		}
	case "campaign_done":
		c := t.campaign(ev.Name)
		c.lastTMS = ev.TMS
		c.Done = true
		if v, ok := toInt(ev.Attrs["trials_done"]); ok {
			c.TrialsDone = v
		}
		if v, ok := toFloat(ev.Attrs["escape_rate"]); ok {
			c.EscapeRate = v
		}
		if v, ok := ev.Attrs["early_stopped"].(bool); ok {
			c.EarlyStopped = v
		}
	case "search_eval":
		if t.search == nil {
			t.search = &SearchProgress{}
		}
		t.search.Evaluations++
		if v, ok := toFloat(ev.Attrs["score"]); ok && v > t.search.BestScore {
			t.search.BestScore = v
			if sc, ok := ev.Attrs["scenario"].(string); ok {
				t.search.Scenario = sc
			}
		}
	case "search_done":
		if t.search == nil {
			t.search = &SearchProgress{}
		}
		t.search.Done = true
		if v, ok := toInt(ev.Attrs["evaluations"]); ok {
			t.search.Evaluations = v
		}
		if v, ok := toFloat(ev.Attrs["score"]); ok {
			t.search.BestScore = v
		}
		if sc, ok := ev.Attrs["scenario"].(string); ok {
			t.search.Scenario = sc
		}
	case "certify_member":
		if t.certify == nil {
			t.certify = &CertifyProgress{}
		}
		t.certify.Members++
		if v, ok := toFloat(ev.Attrs["epsilon"]); ok {
			t.certify.Epsilon = v
		}
	case "certify_level":
		if t.certify == nil {
			t.certify = &CertifyProgress{}
		}
		t.certify.Levels++
		if v, ok := toFloat(ev.Attrs["epsilon"]); ok {
			t.certify.Epsilon = v
		}
		if v, ok := toFloat(ev.Attrs["stable_frac"]); ok {
			t.certify.StableFrac = v
			if v < 1 && t.certify.WorstUnstable == 0 {
				t.certify.WorstUnstable = t.certify.Epsilon
			}
		}
	case "certify_done":
		if t.certify == nil {
			t.certify = &CertifyProgress{}
		}
		t.certify.Done = true
	case "fabric_worker":
		f := t.fabricState()
		if label, ok := ev.Attrs["campaign"].(string); ok && f.Label == "" {
			f.Label = label
		}
		w := f.worker(ev.Name)
		if s, ok := ev.Attrs["state"].(string); ok {
			w.State = s
		}
		if v, ok := toInt(ev.Attrs["leases"]); ok {
			w.Leases = v
		}
		if v, ok := toInt(ev.Attrs["chunks_done"]); ok {
			w.ChunksDone = v
		}
	case "fabric_lease":
		f := t.fabricState()
		if f.Label == "" {
			f.Label = ev.Name
		}
		switch ev.Attrs["state"] {
		case "grant":
			f.LeasesGranted++
		case "result":
			// Latency attribution: fold the delivering worker's
			// leased→resulted time into its bounded ring (O(1); the
			// quantiles are computed at Snapshot time).
			if name, ok := ev.Attrs["worker"].(string); ok && name != "" {
				if ms, ok := toFloat(ev.Attrs["latency_ms"]); ok {
					w := f.worker(name)
					if len(w.lat) < workerLatCap {
						w.lat = append(w.lat, ms)
					} else {
						w.lat[w.latPos%workerLatCap] = ms
					}
					w.latPos++
				}
			}
		case "expire":
			f.LeasesExpired++
		case "reassign":
			f.Reassigned++
		case "duplicate":
			f.Duplicates++
		}
	case "fabric_clock":
		f := t.fabricState()
		if label, ok := ev.Attrs["campaign"].(string); ok && f.Label == "" {
			f.Label = label
		}
		w := f.worker(ev.Name)
		if v, ok := toFloat(ev.Attrs["offset_us"]); ok {
			w.ClockOffsetUS = v
		}
		if v, ok := toFloat(ev.Attrs["rtt_us"]); ok {
			w.RTTUS = v
		}
		if v, ok := toInt(ev.Attrs["chunks_done"]); ok && v > w.ChunksDone {
			w.ChunksDone = v // relayed worker meter; monotone fold
		}
	case "fabric_straggler":
		f := t.fabricState()
		if label, ok := ev.Attrs["campaign"].(string); ok && f.Label == "" {
			f.Label = label
		}
		f.worker(ev.Name).Straggler = true
	case "fabric_quarantine":
		f := t.fabricState()
		if label, ok := ev.Attrs["campaign"].(string); ok && f.Label == "" {
			f.Label = label
		}
		f.Quarantined++
		f.worker(ev.Name).State = "quarantined"
	case "fabric_done":
		f := t.fabricState()
		if f.Label == "" {
			f.Label = ev.Name
		}
		f.Done = true
		// The terminal summary is authoritative; overwrite the folded
		// counters in case lease events were dropped under load.
		if v, ok := toInt(ev.Attrs["leases_granted"]); ok {
			f.LeasesGranted = v
		}
		if v, ok := toInt(ev.Attrs["leases_expired"]); ok {
			f.LeasesExpired = v
		}
		if v, ok := toInt(ev.Attrs["reassigned"]); ok {
			f.Reassigned = v
		}
		if v, ok := toInt(ev.Attrs["duplicates"]); ok {
			f.Duplicates = v
		}
		if v, ok := toInt(ev.Attrs["quarantined"]); ok {
			f.Quarantined = v
		}
		if v, ok := toInt(ev.Attrs["local_chunks"]); ok {
			f.LocalChunks = v
		}
	}
}

// fabricState finds or creates the fabric board. Caller holds t.mu.
func (t *Tracker) fabricState() *FabricProgress {
	if t.fabric == nil {
		t.fabric = &FabricProgress{byName: map[string]*FabricWorkerProgress{}}
	}
	return t.fabric
}

// worker finds or creates a fabric worker row by name.
func (f *FabricProgress) worker(name string) *FabricWorkerProgress {
	if w, ok := f.byName[name]; ok {
		return w
	}
	f.Workers = append(f.Workers, FabricWorkerProgress{Name: name})
	w := &f.Workers[len(f.Workers)-1]
	f.byName[name] = w
	// Appends can move the backing array; rebuild the index so every
	// pointer targets the current slice.
	for i := range f.Workers {
		f.byName[f.Workers[i].Name] = &f.Workers[i]
	}
	return f.byName[name]
}

// stage finds a stage row by name (nil when it is not a pipeline stage).
// Caller holds t.mu.
func (t *Tracker) stage(name string) *StageProgress {
	for _, sp := range t.stages {
		if sp.Name == name {
			return sp
		}
	}
	return nil
}

// campaign finds or creates a campaign row by label. Caller holds t.mu.
func (t *Tracker) campaign(label string) *CampaignProgress {
	if c, ok := t.byLabel[label]; ok {
		return c
	}
	c := &CampaignProgress{Label: label}
	t.byLabel[label] = c
	t.campaigns = append(t.campaigns, c)
	return c
}

// Snapshot returns a deep copy of the progress state with the derived
// rates filled in: trials/sec over the campaign's own event-timestamp
// window, and the ETA extrapolated from it.
func (t *Tracker) Snapshot() ProgressSnapshot {
	var snap ProgressSnapshot
	if t == nil {
		return snap
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	snap.Run = t.run
	for _, sp := range t.stages {
		snap.Stages = append(snap.Stages, *sp)
	}
	for _, c := range t.campaigns {
		cp := *c
		cp.TrailTrials = append([]int(nil), c.TrailTrials...)
		cp.TrailHalfWidth = append([]float64(nil), c.TrailHalfWidth...)
		if dt := (c.lastTMS - c.startTMS) / 1000; dt > 0 && c.TrialsDone > c.startTrialsDone {
			cp.TrialsPerSec = float64(c.TrialsDone-c.startTrialsDone) / dt
			if !c.Done && cp.TrialsPerSec > 0 && c.TrialsTotal > c.TrialsDone {
				cp.EtaSeconds = float64(c.TrialsTotal-c.TrialsDone) / cp.TrialsPerSec
			}
		}
		snap.Campaigns = append(snap.Campaigns, cp)
	}
	if t.search != nil {
		s := *t.search
		snap.Search = &s
	}
	if t.certify != nil {
		c := *t.certify
		snap.Certify = &c
	}
	if t.fabric != nil {
		f := *t.fabric
		f.Workers = append([]FabricWorkerProgress(nil), t.fabric.Workers...)
		f.byName = nil
		for i := range f.Workers {
			w := &f.Workers[i]
			if len(w.lat) > 0 {
				w.LatencyP50MS = Percentile(w.lat, 50)
				w.LatencyP95MS = Percentile(w.lat, 95)
			}
			w.lat, w.latPos = nil, 0 // quantiles rendered; drop the window
		}
		snap.Fabric = &f
	}
	snap.Events = t.events
	snap.Seq = t.bus.Seq()
	snap.DroppedEvents = t.bus.Dropped()
	if !t.firstSeen.IsZero() {
		snap.UptimeSeconds = t.now().Sub(t.firstSeen).Seconds()
	}
	return snap
}

// Percentile is the nearest-rank q-th percentile (0 ≤ q ≤ 100) of a
// sample window, the smallest sample with at least q% of the window at or
// below it; 0 on an empty window. The window is not modified.
func Percentile(window []float64, q int) float64 {
	s := append([]float64(nil), window...)
	sort.Float64s(s)
	return SortedPercentile(s, q)
}

// SortedPercentile is Percentile of a window already sorted ascending,
// for a caller that keeps its window sorted instead of copying and
// sorting it for every percentile.
func SortedPercentile(sorted []float64, q int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := (len(sorted)*q+99)/100 - 1
	return sorted[max(0, min(idx, len(sorted)-1))]
}

// toInt coerces the numeric types Attr values carry in practice.
func toInt(v any) (int, bool) {
	switch n := v.(type) {
	case int:
		return n, true
	case int64:
		return int(n), true
	case float64:
		return int(n), true
	}
	return 0, false
}

func toFloat(v any) (float64, bool) {
	switch n := v.(type) {
	case float64:
		return n, true
	case int:
		return float64(n), true
	case int64:
		return float64(n), true
	}
	return 0, false
}
