package faultsim

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/attrs"
	"repro/internal/graph"
)

// web builds a small multi-node graph with HW placement and criticality,
// exercising every Result counter a checkpoint must round-trip.
func web(t testing.TB) (*graph.Graph, map[string]string) {
	t.Helper()
	g := graph.New()
	crits := map[string]float64{"a": 12, "b": 3, "c": 7, "d": 1}
	for _, n := range []string{"a", "b", "c", "d"} {
		if err := g.AddNode(n, attrs.New(map[attrs.Kind]float64{attrs.Criticality: crits[n]})); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range []struct {
		from, to string
		w        float64
	}{
		{"a", "b", 0.6}, {"b", "c", 0.4}, {"c", "d", 0.5}, {"d", "a", 0.3}, {"a", "c", 0.2},
	} {
		if err := g.SetEdge(e.from, e.to, e.w); err != nil {
			t.Fatal(err)
		}
	}
	return g, map[string]string{"a": "h1", "b": "h1", "c": "h2", "d": "h2"}
}

// cancelAfter is a context.Context whose Err fires context.Canceled after a
// fixed number of polls — a deterministic stand-in for a kill signal landing
// mid-campaign. The counter is atomic because parallel campaign workers
// poll Err concurrently.
type cancelAfter struct {
	polls atomic.Int64
}

func newCancelAfter(polls int) *cancelAfter {
	c := &cancelAfter{}
	c.polls.Store(int64(polls))
	return c
}

func (c *cancelAfter) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *cancelAfter) Done() <-chan struct{}       { return nil }
func (c *cancelAfter) Value(any) any               { return nil }
func (c *cancelAfter) Err() error {
	if c.polls.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

func campaign(g *graph.Graph, hw map[string]string, path string) Campaign {
	return Campaign{
		Graph:             g,
		HWOf:              hw,
		Trials:            2000,
		Seed:              77,
		CriticalThreshold: 10,
		CommFaultFraction: 0.3,
		CheckpointPath:    path,
		CheckpointEvery:   50,
	}
}

func TestCheckpointKillAndResumeBitIdentical(t *testing.T) {
	g, hw := web(t)
	dir := t.TempDir()

	// Reference: the uninterrupted run (no checkpointing at all).
	ref := campaign(g, hw, "")
	want, err := Run(ref)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: the context dies after ~half the trials; Run must
	// persist the exact boundary and report the cancellation.
	path := filepath.Join(dir, "campaign.ckpt")
	killed := campaign(g, hw, path)
	killed.Ctx = newCancelAfter(killed.Trials / 2)
	if _, err := Run(killed); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run err = %v, want context.Canceled", err)
	}

	// Resume and finish.
	resumed := campaign(g, hw, path)
	resumed.Resume = true
	got, err := Run(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("resumed result differs from uninterrupted run:\n got: %+v\nwant: %+v", got, want)
	}
}

func TestCheckpointResumeExtendsTrials(t *testing.T) {
	g, hw := web(t)
	path := filepath.Join(t.TempDir(), "campaign.ckpt")

	short := campaign(g, hw, path)
	short.Trials = 600
	if _, err := Run(short); err != nil {
		t.Fatal(err)
	}

	long := campaign(g, hw, path)
	long.Trials = 1500
	long.Resume = true
	got, err := Run(long)
	if err != nil {
		t.Fatal(err)
	}

	ref := campaign(g, hw, "")
	ref.Trials = 1500
	want, err := Run(ref)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("extended resume differs from a fresh run of the full length")
	}
}

func TestCheckpointMismatchRejected(t *testing.T) {
	g, hw := web(t)
	path := filepath.Join(t.TempDir(), "campaign.ckpt")

	first := campaign(g, hw, path)
	if _, err := Run(first); err != nil {
		t.Fatal(err)
	}

	other := campaign(g, hw, path)
	other.Seed = 78 // different campaign identity
	other.Resume = true
	if _, err := Run(other); !errors.Is(err, ErrCheckpointMismatch) {
		t.Errorf("resume with foreign checkpoint err = %v, want ErrCheckpointMismatch", err)
	}

	// A resumed shrink (fewer trials than already done) is also a mismatch.
	shrunk := campaign(g, hw, path)
	shrunk.Trials = 10
	shrunk.Resume = true
	if _, err := Run(shrunk); !errors.Is(err, ErrCheckpointMismatch) {
		t.Errorf("resume shrinking trials err = %v, want ErrCheckpointMismatch", err)
	}

	// A counter keyed by an edge the campaign does not have cannot be
	// read back into the dense totals: a mismatch, not a silent drop.
	var cf checkpointFile
	data, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(data, &cf)
	}
	if err != nil {
		t.Fatal(err)
	}
	cf.Result.EdgeTrials["a>z"] = 3
	if data, err = json.Marshal(cf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	foreignKey := campaign(g, hw, path)
	foreignKey.Resume = true
	if _, err := Run(foreignKey); !errors.Is(err, ErrCheckpointMismatch) {
		t.Errorf("resume with an unknown counter key err = %v, want ErrCheckpointMismatch", err)
	}

	// Corrupt checkpoint: surfaced, never silently restarted.
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	corrupt := campaign(g, hw, path)
	corrupt.Resume = true
	if _, err := Run(corrupt); err == nil {
		t.Error("resume from corrupt checkpoint succeeded, want error")
	}

	// An absent checkpoint starts cleanly from trial zero.
	fresh := campaign(g, hw, filepath.Join(t.TempDir(), "absent.ckpt"))
	fresh.Resume = true
	if _, err := Run(fresh); err != nil {
		t.Errorf("resume with absent checkpoint err = %v, want nil", err)
	}
}

func TestRunCancelledBeforeStart(t *testing.T) {
	g, hw := web(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := campaign(g, hw, "")
	c.Ctx = ctx
	if _, err := Run(c); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestEarlyStopping(t *testing.T) {
	g, hw := web(t)
	c := campaign(g, hw, "")
	c.Trials = 100000
	c.StopHalfWidth = 0.02
	c.CheckpointEvery = 100
	res, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if !res.EarlyStopped {
		t.Fatal("campaign did not stop early at a ±0.02 interval in 100k trials")
	}
	if res.Trials >= 100000 || res.Trials < 100 {
		t.Errorf("early-stopped trial count = %d", res.Trials)
	}
	// The interval claim must hold at the stopping point.
	if hwid := wilsonHalfWidth(res.EscapeRate(), res.Trials); hwid > 0.02 {
		t.Errorf("half-width at stop = %g, want <= 0.02", hwid)
	}
	// At p̂ = 0 the Wilson half-width is z²/(2n+2z²), not zero.
	for _, n := range []int{1, 128, 2000} {
		want := stopZ * stopZ / (2*float64(n) + 2*stopZ*stopZ)
		if got := wilsonHalfWidth(0, n); math.Abs(got-want) > 1e-15 {
			t.Errorf("wilsonHalfWidth(0, %d) = %g, want %g", n, got, want)
		}
	}
}

// TestEarlyStopNeedsAnEscape runs campaigns on a graph whose escape rate
// is about 0.5% (a→b 0.5 inside one HW node, b→c 0.01 across to another)
// with a ±0.001 stopping interval. A stop test whose half-width is zero at
// p̂ = 0 ends many of these runs at the first check, around 128 trials,
// certifying a zero escape rate; none may stop before it has seen an
// escape.
func TestEarlyStopNeedsAnEscape(t *testing.T) {
	g := graph.New()
	for _, n := range []string{"a", "b", "c"} {
		if err := g.AddNode(n, attrs.Set{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.SetEdge("a", "b", 0.5); err != nil {
		t.Fatal(err)
	}
	if err := g.SetEdge("b", "c", 0.01); err != nil {
		t.Fatal(err)
	}
	for seed := uint64(0); seed < 20; seed++ {
		res, err := Run(Campaign{
			Graph: g, HWOf: map[string]string{"a": "h1", "b": "h1", "c": "h2"},
			Trials: 20000, Seed: seed, StopHalfWidth: 0.001, CheckpointEvery: 100,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.EarlyStopped && res.TrialsWithEscape == 0 {
			t.Errorf("seed %d stopped after %d trials with no escape", seed, res.Trials)
		}
	}
}

func TestCommFaultFractionBoundaries(t *testing.T) {
	g, hw := web(t)

	// Fraction 0: every fault originates in an FCM.
	zero := campaign(g, hw, "")
	zero.CommFaultFraction = 0
	r, err := Run(zero)
	if err != nil {
		t.Fatal(err)
	}
	if r.CommFaultTrials != 0 {
		t.Errorf("fraction 0: comm fault trials = %d, want 0", r.CommFaultTrials)
	}

	// Fraction 1: every fault originates in a communication edge.
	one := campaign(g, hw, "")
	one.CommFaultFraction = 1
	r, err = Run(one)
	if err != nil {
		t.Fatal(err)
	}
	if r.CommFaultTrials != r.Trials {
		t.Errorf("fraction 1: comm fault trials = %d, want %d", r.CommFaultTrials, r.Trials)
	}

	// Just outside the boundaries: rejected.
	for _, f := range []float64{-0.001, 1.001} {
		bad := campaign(g, hw, "")
		bad.CommFaultFraction = f
		if _, err := Run(bad); err == nil {
			t.Errorf("fraction %g accepted, want error", f)
		}
	}
}

// TestCheckpointWritersLeaveNoTempOnFailedRename: both atomic writers —
// the campaign checkpoint and the search history — must clean up their
// temp file when the final rename fails (here: the target path is a
// non-empty directory), leaving no .faultsim-* debris next to it.
func TestCheckpointWritersLeaveNoTempOnFailedRename(t *testing.T) {
	g, hw := web(t)
	for name, write := range map[string]func(path string) error{
		"campaign": func(path string) error { return saveCheckpoint(path, "fp", 0, Result{}) },
		"search": func(path string) error {
			return (&searcher{cfg: searchConfig(g, hw, path)}).saveCheckpoint()
		},
	} {
		dir := t.TempDir()
		path := filepath.Join(dir, "ckpt")
		if err := os.MkdirAll(filepath.Join(path, "occupied"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := write(path); err == nil {
			t.Fatalf("%s: write over a directory succeeded", name)
		}
		debris, err := filepath.Glob(filepath.Join(dir, ".faultsim-*"))
		if err != nil {
			t.Fatal(err)
		}
		if len(debris) > 0 {
			t.Errorf("%s: failed write left %v behind", name, debris)
		}
	}
}
