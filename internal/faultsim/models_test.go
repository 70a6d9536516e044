package faultsim

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/stage"
)

// modelCatalogue enumerates every non-default model once for the
// determinism suites.
func modelCatalogue() []FaultModel {
	return []FaultModel{Correlated(), Burst(2), Burst(3), Transient(0.5)}
}

// TestCorrelatedFaultsWholeHWNode: forcing the seed FCM onto node "a"
// (host h1, shared with "b") must fault both colocated FCMs in every
// trial.
func TestCorrelatedFaultsWholeHWNode(t *testing.T) {
	g, hw := web(t)
	c := campaign(g, hw, "")
	c.CommFaultFraction = 0
	c.Model = Correlated()
	c.OccurrenceWeights = map[string]float64{"a": 1}
	res, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.InitialFaults != 2*c.Trials {
		t.Errorf("InitialFaults = %d, want %d (both h1 residents per trial)",
			res.InitialFaults, 2*c.Trials)
	}
	if res.AffectedCount["a"] != c.Trials || res.AffectedCount["b"] != c.Trials {
		t.Errorf("colocated FCMs not faulted every trial: a=%d b=%d (trials %d)",
			res.AffectedCount["a"], res.AffectedCount["b"], c.Trials)
	}
}

// TestCorrelatedWithoutHWDegeneratesToSingle: with no HW mapping there is
// no colocation, so the correlated model must make the same draws as the
// single-fault model.
func TestCorrelatedWithoutHWDegeneratesToSingle(t *testing.T) {
	g, _ := web(t)
	mk := func(m FaultModel) Campaign {
		c := campaign(g, nil, "")
		c.CommFaultFraction = 0
		c.Model = m
		return c
	}
	want, err := Run(mk(SingleFault()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(mk(Correlated()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("correlated without HW mapping differs from single-fault")
	}
}

// TestBurstInjectsDistinctFaults: Burst(2) must fault exactly two
// distinct FCMs per trial; an oversized burst clamps to the node count,
// and with every node initially faulty nothing can propagate or escape.
func TestBurstInjectsDistinctFaults(t *testing.T) {
	g, hw := web(t)
	c := campaign(g, hw, "")
	c.Model = Burst(2)
	res, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.InitialFaults != 2*c.Trials {
		t.Errorf("InitialFaults = %d, want %d", res.InitialFaults, 2*c.Trials)
	}

	c.Model = Burst(10) // clamps to the 4 nodes
	res, err = Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.InitialFaults != 4*c.Trials {
		t.Errorf("clamped InitialFaults = %d, want %d", res.InitialFaults, 4*c.Trials)
	}
	if res.TotalAffected != 4*c.Trials {
		t.Errorf("TotalAffected = %d, want %d", res.TotalAffected, 4*c.Trials)
	}
	if res.EscapeRate() != 0 {
		t.Errorf("EscapeRate = %g, want 0 (no transmission can infect a new node)", res.EscapeRate())
	}
}

// TestBurstRespectsForcedSeed: occurrence weights with all mass on one
// node force it into every burst; the remaining draws fall back to
// uniform over the other nodes.
func TestBurstRespectsForcedSeed(t *testing.T) {
	g, hw := web(t)
	c := campaign(g, hw, "")
	c.Model = Burst(2)
	c.OccurrenceWeights = map[string]float64{"d": 1}
	res, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.AffectedCount["d"] != c.Trials {
		t.Errorf("forced node d affected %d times, want every trial (%d)",
			res.AffectedCount["d"], c.Trials)
	}
	others := res.AffectedCount["a"] + res.AffectedCount["b"] + res.AffectedCount["c"]
	if others < c.Trials {
		t.Errorf("second burst fault missing: a+b+c affected only %d times over %d trials",
			others, c.Trials)
	}
}

// TestTransientZeroNeverPropagates: with persistence 0 every fault
// recovers before transmitting, so trials end at their origin: no
// transmissions, no escapes, one transient per initial fault.
func TestTransientZeroNeverPropagates(t *testing.T) {
	g, hw := web(t)
	c := campaign(g, hw, "")
	c.CommFaultFraction = 0
	c.Model = Transient(0)
	res, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.TransientFaults != res.InitialFaults || res.TransientFaults != c.Trials {
		t.Errorf("TransientFaults = %d, InitialFaults = %d, want both %d",
			res.TransientFaults, res.InitialFaults, c.Trials)
	}
	if res.TotalAffected != c.Trials {
		t.Errorf("TotalAffected = %d, want %d (origins only)", res.TotalAffected, c.Trials)
	}
	if len(res.TransmissionCount) != 0 || res.TrialsWithEscape != 0 {
		t.Errorf("transient-0 campaign propagated: transmissions=%v escapes=%d",
			res.TransmissionCount, res.TrialsWithEscape)
	}
}

// TestTransientFullPersistenceEqualsSingle: Transient(1) must be
// bit-identical to the default single-fault model — the recovery draw is
// skipped entirely, not merely ignored, so the RNG streams line up.
func TestTransientFullPersistenceEqualsSingle(t *testing.T) {
	g, hw := web(t)
	want, err := Run(campaign(g, hw, ""))
	if err != nil {
		t.Fatal(err)
	}
	c := campaign(g, hw, "")
	c.Model = Transient(1)
	got, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("Transient(1) differs from the default single-fault campaign")
	}
}

// TestCriticalityWeightedEscapeRate: with a forced origin on h1 every
// criticality point landing on c or d (h2) is escaped mass.
func TestCriticalityWeightedEscapeRate(t *testing.T) {
	g, hw := web(t)
	c := campaign(g, hw, "")
	c.CommFaultFraction = 0
	c.OccurrenceWeights = map[string]float64{"a": 1}
	res, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	wantLoss := float64(res.AffectedCount["c"])*7 + float64(res.AffectedCount["d"])*1
	if math.Abs(res.EscapedCriticalityLoss-wantLoss) > 1e-9 {
		t.Errorf("EscapedCriticalityLoss = %g, want %g (all h2 infections escaped)",
			res.EscapedCriticalityLoss, wantLoss)
	}
	if got, want := res.CriticalityWeightedEscapeRate(), wantLoss/float64(res.Trials); got != want {
		t.Errorf("CriticalityWeightedEscapeRate = %g, want %g", got, want)
	}
	if (Result{}).CriticalityWeightedEscapeRate() != 0 {
		t.Error("zero-trial rate should be 0")
	}
}

// TestCampaignValidation: every invalid injected probability must be
// rejected at campaign start with a stage-taxonomy error classified
// under "inject".
func TestCampaignValidation(t *testing.T) {
	g, hw := web(t)
	cases := []struct {
		name string
		mut  func(*Campaign)
		want error
	}{
		{"zero trials", func(c *Campaign) { c.Trials = 0 }, ErrNoTrials},
		{"nil graph", func(c *Campaign) { c.Graph = nil }, ErrNoNodes},
		{"comm fraction above one", func(c *Campaign) { c.CommFaultFraction = 1.5 }, ErrBadProbability},
		{"comm fraction NaN", func(c *Campaign) { c.CommFaultFraction = math.NaN() }, ErrBadProbability},
		{"negative occurrence weight", func(c *Campaign) {
			c.OccurrenceWeights = map[string]float64{"a": -1}
		}, ErrBadProbability},
		{"NaN occurrence weight", func(c *Campaign) {
			c.OccurrenceWeights = map[string]float64{"b": math.NaN()}
		}, ErrBadProbability},
		{"burst zero", func(c *Campaign) { c.Model = Burst(0) }, ErrBadModel},
		{"transient NaN", func(c *Campaign) { c.Model = Transient(math.NaN()) }, ErrBadModel},
		{"transient above one", func(c *Campaign) { c.Model = Transient(1.5) }, ErrBadModel},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := campaign(g, hw, "")
			tc.mut(&c)
			_, err := Run(c)
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			var se *stage.Error
			if !errors.As(err, &se) {
				t.Fatalf("err %v is not a stage.Error", err)
			}
			if se.Stage != "inject" {
				t.Errorf("stage = %q, want \"inject\"", se.Stage)
			}
		})
	}
}

// TestModelByName covers the CLI selector.
func TestModelByName(t *testing.T) {
	for name, want := range map[string]string{
		"": "single", "single": "single", "correlated": "correlated",
		"burst": "burst", "transient": "transient",
	} {
		m, err := ModelByName(name, 0, 0.5)
		if err != nil {
			t.Fatalf("ModelByName(%q): %v", name, err)
		}
		if m.Name() != want {
			t.Errorf("ModelByName(%q).Name() = %q, want %q", name, m.Name(), want)
		}
	}
	if m, _ := ModelByName("burst", 0, 0); m.(burstModel).k != 2 {
		t.Error("burst default size should be 2")
	}
	if _, err := ModelByName("cosmic-ray", 0, 0); !errors.Is(err, ErrBadModel) {
		t.Errorf("unknown model err = %v, want ErrBadModel", err)
	}
}

// TestModelsParallelBitIdentical extends the worker-pool determinism
// contract to every fault model: DeepEqual-identical Results for Workers
// in {1,2,4,7}.
func TestModelsParallelBitIdentical(t *testing.T) {
	g, hw := web(t)
	for _, m := range modelCatalogue() {
		mk := func(workers int) Campaign {
			c := campaign(g, hw, "")
			c.Model = m
			c.Workers = workers
			return c
		}
		want, err := Run(mk(1))
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		for _, workers := range []int{2, 4, 7} {
			got, err := Run(mk(workers))
			if err != nil {
				t.Fatalf("%s workers=%d: %v", m.Name(), workers, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: workers=%d result differs from serial", m.Name(), workers)
			}
		}
	}
}

// TestModelsKillAndResume: every model killed mid-campaign under a
// parallel pool and resumed under a different pool must reproduce the
// uninterrupted serial run bit for bit (v2 frontier-only checkpoints).
func TestModelsKillAndResume(t *testing.T) {
	g, hw := web(t)
	for _, m := range modelCatalogue() {
		ref := campaign(g, hw, "")
		ref.Model = m
		ref.Workers = 1
		want, err := Run(ref)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}

		path := filepath.Join(t.TempDir(), "model.ckpt")
		killed := campaign(g, hw, path)
		killed.Model = m
		killed.Workers = 4
		killed.Ctx = newCancelAfter(killed.Trials / 2)
		if _, err := Run(killed); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: interrupted run err = %v, want context.Canceled", m.Name(), err)
		}

		resumed := campaign(g, hw, path)
		resumed.Model = m
		resumed.Workers = 7
		resumed.Resume = true
		got, err := Run(resumed)
		if err != nil {
			t.Fatalf("%s resume: %v", m.Name(), err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: kill-and-resume differs from uninterrupted serial run", m.Name())
		}
	}
}

// TestModelCheckpointMismatch: the model identity is part of the
// checkpoint fingerprint, so resuming under a different model — or
// different model parameters — must be rejected, not silently blended.
func TestModelCheckpointMismatch(t *testing.T) {
	g, hw := web(t)
	path := filepath.Join(t.TempDir(), "model.ckpt")
	first := campaign(g, hw, path)
	first.Model = Burst(2)
	if _, err := Run(first); err != nil {
		t.Fatal(err)
	}
	for _, m := range []FaultModel{Burst(3), Correlated(), nil} {
		resumed := campaign(g, hw, path)
		resumed.Model = m
		resumed.Resume = true
		if _, err := Run(resumed); !errors.Is(err, ErrCheckpointMismatch) {
			name := "single(default)"
			if m != nil {
				name = m.Name()
			}
			t.Errorf("resume under %s: err = %v, want ErrCheckpointMismatch", name, err)
		}
	}
}
