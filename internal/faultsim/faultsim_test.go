package faultsim

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/attrs"
	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/spec"
	"repro/internal/stage"
)

func chain(t *testing.T, w float64) *graph.Graph {
	t.Helper()
	g := graph.New()
	for _, n := range []string{"a", "b"} {
		if err := g.AddNode(n, attrs.Set{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.SetEdge("a", "b", w); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestRunValidation(t *testing.T) {
	g := chain(t, 0.5)
	if _, err := Run(Campaign{Graph: g, Trials: 0}); !errors.Is(err, ErrNoTrials) {
		t.Errorf("err = %v, want ErrNoTrials", err)
	}
	if _, err := Run(Campaign{Graph: graph.New(), Trials: 10}); !errors.Is(err, ErrNoNodes) {
		t.Errorf("err = %v, want ErrNoNodes", err)
	}
}

func TestRunDeterministicUnderSeed(t *testing.T) {
	g := chain(t, 0.5)
	r1, err := Run(Campaign{Graph: g, Trials: 1000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(Campaign{Graph: g, Trials: 1000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if r1.TotalAffected != r2.TotalAffected || r1.TrialsWithEscape != r2.TrialsWithEscape {
		t.Error("same seed produced different results")
	}
	r3, err := Run(Campaign{Graph: g, Trials: 1000, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	if r1.TotalAffected == r3.TotalAffected && r1.AffectedCount["b"] == r3.AffectedCount["b"] {
		t.Error("different seeds produced identical results (suspicious)")
	}
}

func TestEstimatedInfluenceRecoversEdgeWeight(t *testing.T) {
	// The estimation path of §4.2.1: injecting faults recovers the edge
	// probability within Monte-Carlo error.
	g := chain(t, 0.3)
	// Force injection at "a" every trial.
	r, err := Run(Campaign{
		Graph: g, Trials: 20000, Seed: 7,
		OccurrenceWeights: map[string]float64{"a": 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	est, trials := r.EstimatedInfluence("a", "b")
	if trials != 20000 {
		t.Fatalf("a->b rests on %d trials, want every one of 20000", trials)
	}
	if math.Abs(est-0.3) > 0.02 {
		t.Errorf("estimated influence = %g, want 0.3 ± 0.02", est)
	}
	if p, trials := r.EstimatedInfluence("b", "a"); p != 0 || trials != 0 {
		t.Errorf("non-existent edge b->a: p=%g over %d trials, want 0 over 0", p, trials)
	}
}

// TestTransmitThresholdMatchesFloat64: the trial loop's transmission
// test on a 53-bit draw x, x < ⌈w·2⁵³⌉, must agree with
// rand.Rand.Float64() < w on every draw around each boundary weight's
// threshold, and Float64 must still be the 53-bit draw over 2⁵³ that the
// threshold assumes.
func TestTransmitThresholdMatchesFloat64(t *testing.T) {
	const one = 1 << 53
	for _, w := range transmitBoundaryWeights {
		e := liveEdge{thr: transmitThreshold(w)}
		base := int64(math.Floor(w * one))
		for x := max(base-1, 0); x <= min(base+2, one-1); x++ {
			got := e.transmits(uint64(x)) == 1
			want := float64(x)/one < w
			if got != want {
				t.Errorf("w = %g (thr %d), x = %d: integer draw transmits = %v, Float64 draw = %v",
					w, e.thr, x, got, want)
			}
		}
	}
	a, b := rand.NewPCG(1, 2), rand.NewPCG(1, 2)
	r := rand.New(b)
	for i := 0; i < 1000; i++ {
		if x, f := a.Uint64()<<11>>11, r.Float64(); float64(x)/one != f {
			t.Fatalf("draw %d: Float64() = %g, want %d/2⁵³", i, f, x)
		}
	}
}

func TestPropagationIsTransitive(t *testing.T) {
	// a->b->c with certain edges: every trial injected at a affects all 3.
	g := graph.New()
	for _, n := range []string{"a", "b", "c"} {
		if err := g.AddNode(n, attrs.Set{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.SetEdge("a", "b", 1); err != nil {
		t.Fatal(err)
	}
	if err := g.SetEdge("b", "c", 1); err != nil {
		t.Fatal(err)
	}
	r, err := Run(Campaign{
		Graph: g, Trials: 50, Seed: 1,
		OccurrenceWeights: map[string]float64{"a": 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.MeanAffected(); got != 3 {
		t.Errorf("mean affected = %g, want 3", got)
	}
	// MaxHops = 1 stops the second hop.
	r, err = Run(Campaign{
		Graph: g, Trials: 50, Seed: 1, MaxHops: 1,
		OccurrenceWeights: map[string]float64{"a": 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.MeanAffected(); got != 2 {
		t.Errorf("hop-limited mean affected = %g, want 2", got)
	}
}

func TestReplicaEdgesDoNotPropagate(t *testing.T) {
	g := graph.New()
	for _, n := range []string{"p1a", "p1b"} {
		if err := g.AddNode(n, attrs.Set{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddReplicaEdge("p1a", "p1b"); err != nil {
		t.Fatal(err)
	}
	r, err := Run(Campaign{Graph: g, Trials: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.MeanAffected(); got != 1 {
		t.Errorf("mean affected = %g, want 1 (replica edges carry no faults)", got)
	}
}

func TestHWBoundaryAccounting(t *testing.T) {
	g := chain(t, 1)
	sameNode := map[string]string{"a": "hw1", "b": "hw1"}
	r, err := Run(Campaign{Graph: g, Trials: 200, Seed: 5, HWOf: sameNode,
		OccurrenceWeights: map[string]float64{"a": 1}})
	if err != nil {
		t.Fatal(err)
	}
	if r.TrialsWithEscape != 0 || r.CrossNodeTransmissions != 0 {
		t.Errorf("colocated: escapes=%d cross=%d, want 0", r.TrialsWithEscape, r.CrossNodeTransmissions)
	}
	apart := map[string]string{"a": "hw1", "b": "hw2"}
	r, err = Run(Campaign{Graph: g, Trials: 200, Seed: 5, HWOf: apart,
		OccurrenceWeights: map[string]float64{"a": 1}})
	if err != nil {
		t.Fatal(err)
	}
	if r.EscapeRate() != 1 {
		t.Errorf("separated, certain edge: escape rate = %g, want 1", r.EscapeRate())
	}
}

func TestCriticalityAccounting(t *testing.T) {
	g := graph.New()
	if err := g.AddNode("lo", attrs.New(map[attrs.Kind]float64{attrs.Criticality: 1})); err != nil {
		t.Fatal(err)
	}
	if err := g.AddNode("hi", attrs.New(map[attrs.Kind]float64{attrs.Criticality: 15})); err != nil {
		t.Fatal(err)
	}
	if err := g.SetEdge("lo", "hi", 1); err != nil {
		t.Fatal(err)
	}
	r, err := Run(Campaign{
		Graph: g, Trials: 10, Seed: 2, CriticalThreshold: 10,
		OccurrenceWeights: map[string]float64{"lo": 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every trial affects lo (1) and hi (15): loss 16/trial, 1 critical.
	if got := r.MeanCriticalityLoss(); got != 16 {
		t.Errorf("mean loss = %g, want 16", got)
	}
	if r.CriticalAffected != 10 {
		t.Errorf("critical affected = %d, want 10", r.CriticalAffected)
	}
}

func TestContainmentShapeH1VsSplit(t *testing.T) {
	// The paper's central containment claim (§6.1): combining nodes with
	// high mutual influence onto shared HW reduces fault transmission
	// across HW nodes. Compare H1's mapping against a deliberately bad
	// mapping (every replica node on its own processor).
	sys := spec.PaperExample()
	g, err := sys.Graph()
	if err != nil {
		t.Fatal(err)
	}
	exp, err := cluster.Expand(g, sys.Jobs())
	if err != nil {
		t.Fatal(err)
	}
	full := exp.Graph.Clone()
	c := cluster.NewCondenser(exp.Graph, exp.Jobs)
	if err := c.ReduceByInfluence(6); err != nil {
		t.Fatal(err)
	}
	h1HW := map[string]string{}
	for i, clusterID := range c.G.Nodes() {
		for _, m := range graph.Members(clusterID) {
			h1HW[m] = string(rune('A' + i))
		}
	}
	splitHW := map[string]string{}
	for i, n := range full.Nodes() {
		splitHW[n] = string(rune('A' + i))
	}
	run := func(hwOf map[string]string) Result {
		r, err := Run(Campaign{Graph: full, Trials: 20000, Seed: 11, HWOf: hwOf})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	h1 := run(h1HW)
	split := run(splitHW)
	if h1.EscapeRate() >= split.EscapeRate() {
		t.Errorf("H1 escape rate %g not below fully-split %g",
			h1.EscapeRate(), split.EscapeRate())
	}
}

func TestRunHWValidation(t *testing.T) {
	if _, err := RunHW(HWFaultCampaign{Trials: 0, ReplicasOf: map[string][]string{"m": {"m"}}}); !errors.Is(err, ErrNoTrials) {
		t.Errorf("err = %v", err)
	}
	if _, err := RunHW(HWFaultCampaign{Trials: 5}); !errors.Is(err, ErrNoNodes) {
		t.Errorf("err = %v", err)
	}
	for _, p := range []float64{math.NaN(), math.Inf(1), 2, -0.1} {
		_, err := RunHW(HWFaultCampaign{
			Trials: 5, ReplicasOf: map[string][]string{"m": {"m"}}, FailureProb: p,
		})
		var se *stage.Error
		if !errors.Is(err, ErrBadProbability) || !errors.As(err, &se) || se.Stage != "inject" {
			t.Errorf("FailureProb %g: err = %v, want an inject-stage ErrBadProbability", p, err)
		}
	}
}

func TestRunHWTMRBeatsSimplex(t *testing.T) {
	// E7 shape: with independent HW node failures, TMR (majority of 3)
	// loses service far less often than simplex, and simplex less than
	// TMR-with-double-faults would suggest. Analytically with p=0.1:
	// simplex 0.1; TMR majority: p^3 + 3p^2(1-p) = 0.028.
	hwOf := map[string]string{
		"s":  "h1",
		"ta": "h2", "tb": "h3", "tc": "h4",
	}
	c := HWFaultCampaign{
		HWOf:             hwOf,
		ReplicasOf:       map[string][]string{"simplex": {"s"}, "tmr": {"ta", "tb", "tc"}},
		Criticality:      map[string]float64{"simplex": 1, "tmr": 10},
		FailureProb:      0.1,
		MajorityRequired: true,
		Trials:           50000,
		Seed:             13,
	}
	r, err := RunHW(c)
	if err != nil {
		t.Fatal(err)
	}
	simplex := r.Unavailability("simplex")
	tmr := r.Unavailability("tmr")
	if math.Abs(simplex-0.1) > 0.01 {
		t.Errorf("simplex unavailability = %g, want ~0.1", simplex)
	}
	if math.Abs(tmr-0.028) > 0.01 {
		t.Errorf("TMR unavailability = %g, want ~0.028", tmr)
	}
	if tmr >= simplex {
		t.Error("TMR not better than simplex")
	}
}

func TestRunHWStandbySemantics(t *testing.T) {
	// One-of-two standby: fails only when both HW nodes fail (p² = 0.01).
	c := HWFaultCampaign{
		HWOf:        map[string]string{"da": "h1", "db": "h2"},
		ReplicasOf:  map[string][]string{"duplex": {"da", "db"}},
		FailureProb: 0.1,
		Trials:      50000,
		Seed:        17,
	}
	r, err := RunHW(c)
	if err != nil {
		t.Fatal(err)
	}
	got := r.Unavailability("duplex")
	if math.Abs(got-0.01) > 0.005 {
		t.Errorf("duplex unavailability = %g, want ~0.01", got)
	}
}

func TestRunHWColocatedReplicasCorrelatedFailure(t *testing.T) {
	// The constraint the framework enforces, demonstrated by violating it:
	// replicas on one HW node fail together, so TMR degenerates to
	// simplex.
	c := HWFaultCampaign{
		HWOf:             map[string]string{"ta": "h1", "tb": "h1", "tc": "h1"},
		ReplicasOf:       map[string][]string{"tmr": {"ta", "tb", "tc"}},
		FailureProb:      0.1,
		MajorityRequired: true,
		Trials:           50000,
		Seed:             19,
	}
	r, err := RunHW(c)
	if err != nil {
		t.Fatal(err)
	}
	got := r.Unavailability("tmr")
	if math.Abs(got-0.1) > 0.01 {
		t.Errorf("colocated TMR unavailability = %g, want ~0.1 (simplex-equivalent)", got)
	}
}

func TestMetricsZeroTrials(t *testing.T) {
	var r Result
	if r.MeanAffected() != 0 || r.EscapeRate() != 0 || r.MeanCriticalityLoss() != 0 {
		t.Error("zero-trial metrics should be 0")
	}
	var hr HWResult
	if hr.Unavailability("x") != 0 {
		t.Error("zero-trial unavailability should be 0")
	}
}

func TestUsesMappingPackageAssignments(t *testing.T) {
	// End-to-end: mapping.Assignment feeds the campaign via NodeOf.
	sys := spec.PaperExample()
	g, err := sys.Graph()
	if err != nil {
		t.Fatal(err)
	}
	exp, err := cluster.Expand(g, sys.Jobs())
	if err != nil {
		t.Fatal(err)
	}
	full := exp.Graph.Clone()
	c := cluster.NewCondenser(exp.Graph, exp.Jobs)
	if err := c.ReduceByInfluence(6); err != nil {
		t.Fatal(err)
	}
	// Identity "platform": cluster id is its own HW node.
	asg := mapping.Assignment{}
	for _, id := range c.G.Nodes() {
		asg[id] = id
	}
	hwOf := map[string]string{}
	for _, base := range full.Nodes() {
		hwOf[base] = asg.NodeOf(base)
		if hwOf[base] == "" {
			t.Fatalf("%s unassigned", base)
		}
	}
	if _, err := Run(Campaign{Graph: full, Trials: 100, Seed: 23, HWOf: hwOf}); err != nil {
		t.Fatal(err)
	}
}

func TestCommFaultInjection(t *testing.T) {
	g := chain(t, 0.5) // a -> b, weight 0.5
	// All trials inject on the edge: b becomes faulty directly.
	r, err := Run(Campaign{
		Graph: g, Trials: 1000, Seed: 5, CommFaultFraction: 1,
		HWOf: map[string]string{"a": "hw1", "b": "hw2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.CommFaultTrials != 1000 {
		t.Errorf("comm fault trials = %d, want 1000", r.CommFaultTrials)
	}
	// Every corrupted message crossed the hw1->hw2 boundary.
	if r.EscapeRate() != 1 {
		t.Errorf("escape rate = %g, want 1", r.EscapeRate())
	}
	// b is the origin every time; a is never affected (no b->a edge).
	if r.AffectedCount["b"] != 1000 || r.AffectedCount["a"] != 0 {
		t.Errorf("affected: %v", r.AffectedCount)
	}
}

func TestCommFaultFractionMixes(t *testing.T) {
	g := chain(t, 0.5)
	r, err := Run(Campaign{Graph: g, Trials: 4000, Seed: 9, CommFaultFraction: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	frac := float64(r.CommFaultTrials) / float64(r.Trials)
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("comm fault fraction = %g, want ~0.5", frac)
	}
}

func TestCommFaultFractionValidation(t *testing.T) {
	g := chain(t, 0.5)
	if _, err := Run(Campaign{Graph: g, Trials: 10, CommFaultFraction: 1.5}); err == nil {
		t.Error("bad fraction accepted")
	}
	// Fraction > 0 on an edgeless graph degrades to node injection.
	lone := graph.New()
	if err := lone.AddNode("x", attrs.Set{}); err != nil {
		t.Fatal(err)
	}
	r, err := Run(Campaign{Graph: lone, Trials: 10, Seed: 1, CommFaultFraction: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if r.CommFaultTrials != 0 {
		t.Errorf("comm trials on edgeless graph = %d", r.CommFaultTrials)
	}
}
