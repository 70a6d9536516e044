package obs

import (
	"testing"
	"time"
)

// synthetic event helper: timestamps are milliseconds on the bus clock.
func evAt(tms float64, kind, name string, attrs ...Attr) BusEvent {
	return BusEvent{TMS: tms, Kind: kind, Name: name, Attrs: attrsMap(attrs)}
}

func TestTrackerStageBoard(t *testing.T) {
	tr := NewTracker(nil)
	tr.Apply(evAt(0, "span_start", "integrate", String("system", "paper-example")))
	tr.Apply(evAt(1, "span_start", "partition"))
	tr.Apply(evAt(5, "span_end", "partition", Float("duration_ms", 4)))
	tr.Apply(evAt(6, "span_start", "condense"))

	snap := tr.Snapshot()
	if snap.Run != "paper-example" {
		t.Errorf("run = %q, want paper-example", snap.Run)
	}
	if len(snap.Stages) != len(pipelineStages) {
		t.Fatalf("got %d stages, want %d", len(snap.Stages), len(pipelineStages))
	}
	byName := map[string]StageProgress{}
	for _, sp := range snap.Stages {
		byName[sp.Name] = sp
	}
	if sp := byName["partition"]; sp.State != "done" || sp.DurationMS != 4 || sp.Attempts != 1 {
		t.Errorf("partition = %+v, want done/4ms/1 attempt", sp)
	}
	if sp := byName["condense"]; sp.State != "running" {
		t.Errorf("condense = %+v, want running", sp)
	}
	if sp := byName["evaluate"]; sp.State != "pending" {
		t.Errorf("evaluate = %+v, want pending", sp)
	}

	// A retried stage counts attempts.
	tr.Apply(evAt(7, "span_end", "condense", Float("duration_ms", 1)))
	tr.Apply(evAt(8, "span_start", "condense"))
	if sp := findStage(tr.Snapshot(), "condense"); sp.Attempts != 2 || sp.State != "running" {
		t.Errorf("retried condense = %+v, want 2 attempts running", sp)
	}
}

func findStage(snap ProgressSnapshot, name string) StageProgress {
	for _, sp := range snap.Stages {
		if sp.Name == name {
			return sp
		}
	}
	return StageProgress{}
}

func TestTrackerCampaignRateAndETA(t *testing.T) {
	tr := NewTracker(nil)
	tr.Apply(evAt(1000, "campaign_start", "c",
		Int("trials_total", 10000), Int("trials_done", 0),
		String("model", "crash"), Int("workers", 4)))
	tr.Apply(evAt(3000, "campaign_checkpoint", "c",
		Int("trials_done", 4000), Int("trials_total", 10000),
		Float("escape_rate", 0.05), Float("half_width", 0.02)))

	snap := tr.Snapshot()
	if len(snap.Campaigns) != 1 {
		t.Fatalf("got %d campaigns", len(snap.Campaigns))
	}
	c := snap.Campaigns[0]
	if c.Model != "crash" || c.Workers != 4 || c.TrialsTotal != 10000 {
		t.Errorf("campaign identity = %+v", c)
	}
	// 4000 trials over the 2-second event window.
	if c.TrialsPerSec != 2000 {
		t.Errorf("trials/sec = %g, want 2000", c.TrialsPerSec)
	}
	// 6000 remaining at 2000/s.
	if c.EtaSeconds != 3 {
		t.Errorf("eta = %g, want 3", c.EtaSeconds)
	}
	if len(c.TrailTrials) != 1 || c.TrailTrials[0] != 4000 || c.TrailHalfWidth[0] != 0.02 {
		t.Errorf("trail = %v / %v", c.TrailTrials, c.TrailHalfWidth)
	}

	tr.Apply(evAt(4000, "campaign_done", "c",
		Int("trials_done", 6000), Float("escape_rate", 0.051), Bool("early_stopped", true)))
	c = tr.Snapshot().Campaigns[0]
	if !c.Done || !c.EarlyStopped || c.TrialsDone != 6000 {
		t.Errorf("finished campaign = %+v", c)
	}
	if c.EtaSeconds != 0 {
		t.Errorf("finished campaign still has ETA %g", c.EtaSeconds)
	}
}

// TestTrackerCampaignResume: a campaign resumed from a checkpoint must
// compute throughput from the trials completed in *this* run.
func TestTrackerCampaignResume(t *testing.T) {
	tr := NewTracker(nil)
	tr.Apply(evAt(0, "campaign_start", "c",
		Int("trials_total", 10000), Int("trials_done", 8000)))
	tr.Apply(evAt(1000, "campaign_checkpoint", "c", Int("trials_done", 9000)))
	c := tr.Snapshot().Campaigns[0]
	if c.TrialsPerSec != 1000 {
		t.Errorf("resumed trials/sec = %g, want 1000 (this run's 1000 trials over 1s)", c.TrialsPerSec)
	}
}

func TestTrackerSearchAndCertify(t *testing.T) {
	tr := NewTracker(nil)
	tr.Apply(evAt(0, "search_eval", "search", String("scenario", "a"), Float("score", 0.3)))
	tr.Apply(evAt(1, "search_eval", "search", String("scenario", "b"), Float("score", 0.8)))
	tr.Apply(evAt(2, "search_eval", "search", String("scenario", "c"), Float("score", 0.5)))
	snap := tr.Snapshot()
	if snap.Search == nil || snap.Search.Evaluations != 3 ||
		snap.Search.BestScore != 0.8 || snap.Search.Scenario != "b" {
		t.Errorf("search progress = %+v", snap.Search)
	}
	tr.Apply(evAt(3, "search_done", "search",
		String("scenario", "b"), Float("score", 0.8), Int("evaluations", 3)))
	if s := tr.Snapshot().Search; !s.Done || s.Evaluations != 3 {
		t.Errorf("search done = %+v", s)
	}

	tr.Apply(evAt(4, "certify_member", "certify", Float("epsilon", 0.1), Int("sample", 0)))
	tr.Apply(evAt(5, "certify_member", "certify", Float("epsilon", 0.1), Int("sample", 1)))
	tr.Apply(evAt(6, "certify_level", "certify", Float("epsilon", 0.1), Float("stable_frac", 1)))
	tr.Apply(evAt(7, "certify_level", "certify", Float("epsilon", 0.3), Float("stable_frac", 0.5)))
	tr.Apply(evAt(8, "certify_done", "certify", Int("levels", 2)))
	c := tr.Snapshot().Certify
	if c == nil || c.Members != 2 || c.Levels != 2 || !c.Done {
		t.Fatalf("certify progress = %+v", c)
	}
	if c.StableFrac != 0.5 || c.WorstUnstable != 0.3 {
		t.Errorf("certify stability = %+v, want stable_frac 0.5 worst_unstable 0.3", c)
	}
}

func TestTrackerNilSafety(t *testing.T) {
	var tr *Tracker
	tr.Apply(BusEvent{Kind: "event"})
	if snap := tr.Snapshot(); snap.Events != 0 || snap.Campaigns != nil {
		t.Errorf("nil tracker snapshot = %+v", snap)
	}
	// A tracker on a nil bus still folds events fed directly to Apply.
	tr2 := NewTracker(nil)
	tr2.Apply(evAt(0, "campaign_start", "c", Int("trials_total", 10)))
	if snap := tr2.Snapshot(); len(snap.Campaigns) != 1 || snap.Seq != 0 {
		t.Errorf("nil-bus tracker snapshot = %+v", snap)
	}
}

func TestTrackerUptime(t *testing.T) {
	base := time.Unix(100, 0)
	clock := base
	tr := NewTracker(nil)
	tr.now = func() time.Time { return clock }
	tr.Apply(evAt(0, "event", "x"))
	clock = base.Add(90 * time.Second)
	if got := tr.Snapshot().UptimeSeconds; got != 90 {
		t.Errorf("uptime = %g, want 90", got)
	}
}

func TestTrackerAttachesToBus(t *testing.T) {
	bus := NewBus(16)
	tr := NewTracker(bus)
	bus.Publish("campaign_start", "c", Int("trials_total", 5))
	snap := tr.Snapshot()
	if len(snap.Campaigns) != 1 || snap.Campaigns[0].TrialsTotal != 5 {
		t.Fatalf("tracker missed bus event: %+v", snap.Campaigns)
	}
	if snap.Seq != 1 || snap.Events != 1 {
		t.Errorf("snapshot seq/events = %d/%d, want 1/1", snap.Seq, snap.Events)
	}
}

func TestTrackerFabricBoard(t *testing.T) {
	tr := NewTracker(nil)
	tr.Apply(evAt(0, "fabric_worker", "w1",
		String("state", "join"), String("campaign", "camp"), Int("leases", 2)))
	tr.Apply(evAt(1, "fabric_lease", "camp", String("state", "grant")))
	tr.Apply(evAt(2, "fabric_lease", "camp", String("state", "grant")))
	tr.Apply(evAt(3, "fabric_lease", "camp", String("state", "expire")))
	tr.Apply(evAt(4, "fabric_lease", "camp", String("state", "reassign")))
	tr.Apply(evAt(5, "fabric_worker", "w2", String("state", "join"), Int("leases", 1)))
	tr.Apply(evAt(6, "fabric_worker", "w1",
		String("state", "done"), Int("leases", 0), Int("chunks_done", 7)))

	snap := tr.Snapshot()
	f := snap.Fabric
	if f == nil {
		t.Fatal("no fabric board after fabric events")
	}
	if f.Label != "camp" {
		t.Errorf("Label = %q, want camp", f.Label)
	}
	if f.LeasesGranted != 2 || f.LeasesExpired != 1 || f.Reassigned != 1 {
		t.Errorf("counters = %+v, want 2 granted / 1 expired / 1 reassigned", f)
	}
	if len(f.Workers) != 2 {
		t.Fatalf("Workers = %d, want 2", len(f.Workers))
	}
	if w := f.Workers[0]; w.Name != "w1" || w.State != "done" || w.Leases != 0 || w.ChunksDone != 7 {
		t.Errorf("w1 row = %+v", w)
	}
	if f.Done {
		t.Error("fabric done before fabric_done event")
	}

	// The terminal summary is authoritative: it overwrites the folded
	// counters (some lease events may have been dropped under load).
	tr.Apply(evAt(7, "fabric_done", "camp",
		Int("leases_granted", 9), Int("leases_expired", 3),
		Int("reassigned", 2), Int("duplicates", 1)))
	f = tr.Snapshot().Fabric
	if !f.Done || f.LeasesGranted != 9 || f.LeasesExpired != 3 || f.Reassigned != 2 || f.Duplicates != 1 {
		t.Errorf("after fabric_done: %+v", f)
	}

	// Snapshot isolation: mutating the tracker afterwards must not reach
	// an already-taken snapshot.
	tr.Apply(evAt(8, "fabric_worker", "w3", String("state", "join")))
	if len(f.Workers) != 2 {
		t.Error("snapshot shares worker slice with live tracker")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	if got := Percentile(nil, 95); got != 0 {
		t.Errorf("empty window p95 = %g, want 0", got)
	}
	window := []float64{7, 1, 9, 3, 5, 2, 8, 4, 10, 6}
	for _, tc := range []struct {
		q    int
		want float64
	}{{0, 1}, {10, 1}, {11, 2}, {50, 5}, {95, 10}, {100, 10}} {
		if got := Percentile(window, tc.q); got != tc.want {
			t.Errorf("p%d = %g, want %g", tc.q, got, tc.want)
		}
	}
	if window[0] != 7 {
		t.Error("Percentile sorted the caller's window")
	}
}
