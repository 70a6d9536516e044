package experiments

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/influence"
	"repro/internal/spec"
)

func TestTable1(t *testing.T) {
	txt, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"p1 ", "p8 ", "C  FT  EST  TCD  CT"} {
		if !strings.Contains(txt, want) {
			t.Errorf("Table1 missing %q:\n%s", want, txt)
		}
	}
	if got := strings.Count(txt, "\n"); got != 10 {
		t.Errorf("Table1 lines = %d, want 10", got)
	}
}

func TestFig1(t *testing.T) {
	r, err := Fig1()
	if err != nil {
		t.Fatal(err)
	}
	if r.FCMCount != 10 { // 9 built + 1 clone
		t.Errorf("FCM count = %d, want 10", r.FCMCount)
	}
	if !errors.Is(r.RuleR2Err, core.ErrRuleR2) {
		t.Errorf("R2 rejection = %v", r.RuleR2Err)
	}
	if !strings.Contains(r.Text, "f1#T3") {
		t.Errorf("Fig1 text missing clone:\n%s", r.Text)
	}
}

func TestFig2(t *testing.T) {
	r, err := Fig2()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.CombinedOnN6-0.37) > 1e-12 {
		t.Errorf("combined influence on n6 = %g, want 0.37", r.CombinedOnN6)
	}
}

func TestFig3(t *testing.T) {
	txt, err := Fig3()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt, "nodes=8 directed influence edges=13") {
		t.Errorf("Fig3 summary wrong:\n%s", txt)
	}
}

func TestFig4(t *testing.T) {
	r, err := Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if r.Nodes != 12 {
		t.Errorf("nodes = %d, want 12", r.Nodes)
	}
	// Replica links: p1 (3 pairs) + p2 (1) + p3 (1) = 5 pairs = 10
	// directed edges.
	if r.ReplicaEdges != 10 {
		t.Errorf("replica edges = %d, want 10", r.ReplicaEdges)
	}
}

func TestFig5GoldenValues(t *testing.T) {
	r, err := Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckFig5(r); err != nil {
		t.Error(err)
	}
}

func TestFig6Clusters(t *testing.T) {
	r, err := Fig6()
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(r.Clusters, " ")
	want := "p1c p3b {p1a,p2a} {p1b,p2b} {p3a,p4,p5} {p6,p7,p8}"
	if got != want {
		t.Errorf("clusters = %s, want %s", got, want)
	}
	if len(r.Trace) != 6 {
		t.Errorf("trace steps = %d, want 6 (12 nodes -> 6)", len(r.Trace))
	}
}

func TestFig7Clusters(t *testing.T) {
	r, err := Fig7()
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(r.Clusters, " ")
	want := "{p1a,p8} {p1b,p7} {p1c,p5} {p2a,p6} {p2b,p3b} {p3a,p4}"
	if got != want {
		t.Errorf("clusters = %s, want %s", got, want)
	}
}

func TestFig8Clusters(t *testing.T) {
	r, err := Fig8()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Clusters) < 3 || len(r.Clusters) > 6 {
		t.Errorf("cluster count = %d, want 3..6", len(r.Clusters))
	}
}

func TestE1Algebra(t *testing.T) {
	r, err := E1()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Eq1-0.05) > 1e-12 || math.Abs(r.Eq2-0.76) > 1e-12 || math.Abs(r.Eq4-0.37) > 1e-12 {
		t.Errorf("E1 = %+v", r)
	}
}

func TestE2HeuristicsBeatRandom(t *testing.T) {
	r, err := E2([]int{12, 24}, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Per size: H1 containment >= random containment.
	byKey := map[string]E2Row{}
	for _, row := range r.Rows {
		byKey[row.Heuristic+"@"+itoa(row.N)] = row
	}
	for _, n := range []int{12, 24} {
		h1 := byKey["H1@"+itoa(n)]
		rnd := byKey["random@"+itoa(n)]
		if h1.Err != "" {
			t.Fatalf("H1 failed at n=%d: %s", n, h1.Err)
		}
		if rnd.Err != "" {
			t.Logf("random failed at n=%d (acceptable): %s", n, rnd.Err)
			continue
		}
		if h1.Contain < rnd.Contain {
			t.Errorf("n=%d: H1 containment %g below random %g", n, h1.Contain, rnd.Contain)
		}
	}
}

func itoa(n int) string {
	return strings.TrimSpace(strings.ReplaceAll(strings.Repeat(" ", 0)+fmtInt(n), " ", ""))
}

func fmtInt(n int) string {
	if n == 0 {
		return "0"
	}
	digits := []byte{}
	for n > 0 {
		digits = append([]byte{byte('0' + n%10)}, digits...)
		n /= 10
	}
	return string(digits)
}

func TestE3InfluenceDrivenContainsBest(t *testing.T) {
	r, err := E3(8000, 21)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]E3Row{}
	for _, row := range r.Rows {
		byName[row.Heuristic] = row
	}
	h1, rnd := byName["H1"], byName["random"]
	if h1.Escape > rnd.Escape {
		t.Errorf("H1 escape %g above random %g", h1.Escape, rnd.Escape)
	}
	for _, row := range r.Rows {
		if row.Escape <= 0 || row.Escape >= 1 {
			t.Errorf("%s escape = %g, want in (0,1)", row.Heuristic, row.Escape)
		}
	}
}

func TestE4Converges(t *testing.T) {
	r, err := E4(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 8 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Order 1: no direct edge p1->p5, separation 1.
	if r.Rows[0].Separation != 1 {
		t.Errorf("order-1 separation = %g, want 1", r.Rows[0].Separation)
	}
	// Separation is monotone non-increasing in the order (terms are
	// non-negative), even though deltas oscillate with period 2 (the graph
	// has 2-cycles, so even-length paths carry extra mass).
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].Separation > r.Rows[i-1].Separation+1e-12 {
			t.Errorf("separation rose at order %d: %g -> %g",
				r.Rows[i].Order, r.Rows[i-1].Separation, r.Rows[i].Separation)
		}
	}
	// Overall geometric decay: the first mass arrives at order 3 (the
	// shortest p1→p2→p3→p5 path); the order-8 delta is well below it.
	if r.Rows[2].Delta == 0 {
		t.Error("order-3 term should be the first non-zero one")
	}
	if r.Rows[7].Delta > r.Rows[2].Delta/4 {
		t.Errorf("series not decaying: delta(3)=%g delta(8)=%g",
			r.Rows[2].Delta, r.Rows[7].Delta)
	}
	if last := r.Rows[len(r.Rows)-1].Delta; last > 0.01 {
		t.Errorf("series not converged by order 8: delta %g", last)
	}
}

func TestE5FindsIntegrationFloor(t *testing.T) {
	r, err := E5(2000, 31)
	if err != nil {
		t.Fatal(err)
	}
	// Floor: p1's three replicas force at least 3 nodes; H1's greedy merge
	// order dead-ends at 4 on this workload (timing windows block the
	// last consolidation) — the concrete instance of the paper's
	// integration-level limit.
	if r.Floor < 3 || r.Floor > 4 {
		t.Errorf("integration floor = %d, want 3 or 4", r.Floor)
	}
	// Cross influence decreases monotonically as targets shrink (more
	// integration = more containment), over feasible rows.
	var prev float64 = math.Inf(1)
	for _, row := range r.Rows {
		if !row.Feasible {
			continue
		}
		if row.Cross > prev+1e-9 {
			t.Errorf("cross influence rose at target %d: %g -> %g", row.Target, prev, row.Cross)
		}
		prev = row.Cross
	}
	// Targets 1 and 2 must be infeasible.
	for _, row := range r.Rows {
		if row.Target < 3 && row.Feasible {
			t.Errorf("target %d reported feasible", row.Target)
		}
	}
}

func TestE6R5SavesSubstantially(t *testing.T) {
	r, err := E6(4, 3, 4, 25, 5)
	if err != nil {
		t.Fatal(err)
	}
	if s := r.Model.Savings(); s < 0.5 {
		t.Errorf("R5 savings = %g, want > 0.5 on a 61-FCM hierarchy", s)
	}
}

func TestE7ShapesHold(t *testing.T) {
	r, err := E7(20000, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		if row.TMRVal >= row.Simplex {
			t.Errorf("p=%g: TMR %g not below simplex %g", row.FailureProb, row.TMRVal, row.Simplex)
		}
		if row.Duplex >= row.Simplex {
			t.Errorf("p=%g: duplex %g not below simplex %g", row.FailureProb, row.Duplex, row.Simplex)
		}
		if math.Abs(row.TMRVal-row.TMRAnalytic) > 0.02 {
			t.Errorf("p=%g: measured TMR %g far from analytic %g",
				row.FailureProb, row.TMRVal, row.TMRAnalytic)
		}
	}
}

func TestE8GuardCutsPropagation(t *testing.T) {
	r, err := E8()
	if err != nil {
		t.Fatal(err)
	}
	if r.UnguardedTainted != 4 {
		t.Errorf("unguarded tainted = %d, want 4 (whole pipeline)", r.UnguardedTainted)
	}
	if r.GuardedTainted != 1 {
		t.Errorf("guarded tainted = %d, want 1 (source only)", r.GuardedTainted)
	}
	if r.RBContainment != 1 {
		t.Errorf("recovery-block containment = %g, want 1", r.RBContainment)
	}
}

func TestE9PreemptionContainsTimingFault(t *testing.T) {
	r, err := E9()
	if err != nil {
		t.Fatal(err)
	}
	if r.NonPreemptiveVictims != 5 {
		t.Errorf("non-preemptive victims = %d, want 5", r.NonPreemptiveVictims)
	}
	if r.PreemptiveVictims != 0 {
		t.Errorf("preemptive victims = %d, want 0", r.PreemptiveVictims)
	}
}

func TestSynthesizeValidity(t *testing.T) {
	sys, err := Synthesize(SynthConfig{Processes: 20, EdgesPerNode: 2, ReplicatedFraction: 0.3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Processes) != 20 {
		t.Errorf("processes = %d", len(sys.Processes))
	}
	if err := sys.Validate(); err != nil {
		t.Errorf("synthesized system invalid: %v", err)
	}
	// Deterministic under seed.
	sys2, err := Synthesize(SynthConfig{Processes: 20, EdgesPerNode: 2, ReplicatedFraction: 0.3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	a, b := sys.Processes[7], sys2.Processes[7]
	if a.Name != b.Name || a.Criticality != b.Criticality || a.EST != b.EST ||
		a.TCD != b.TCD || a.CT != b.CT || a.FT != b.FT {
		t.Error("generator not deterministic")
	}
	if _, err := Synthesize(SynthConfig{Processes: 1}); err == nil {
		t.Error("tiny config accepted")
	}
}

func TestFeasibilityProbe(t *testing.T) {
	sys, err := Synthesize(SynthConfig{Processes: 12, EdgesPerNode: 2, ReplicatedFraction: 0.2, Seed: 4, HWNodes: 6})
	if err != nil {
		t.Fatal(err)
	}
	ok, err := FeasibilityProbe(sys, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("12 -> 6 should be feasible on a loose synthetic workload")
	}
	ok, err = FeasibilityProbe(sys, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("reduction to one node should be blocked by replicas")
	}
}

func TestSeparationCheckHelper(t *testing.T) {
	s1, err := SeparationCheck(1)
	if err != nil {
		t.Fatal(err)
	}
	s8, err := SeparationCheck(8)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != 1 || s8 >= s1 {
		t.Errorf("separation order sweep: s1=%g s8=%g", s1, s8)
	}
}

func TestE10EstimationImprovesWithTrials(t *testing.T) {
	r, err := E10([]int{500, 50000}, 13)
	if err != nil {
		t.Fatal(err)
	}
	small, large := r.Rows[0], r.Rows[1]
	if large.MeanAbsError >= small.MeanAbsError {
		t.Errorf("more trials did not reduce error: %g -> %g",
			small.MeanAbsError, large.MeanAbsError)
	}
	if large.Agreement < 0.85 {
		t.Errorf("agreement at 50k trials = %g, want >= 0.85", large.Agreement)
	}
	// The estimated partition's containment cost stays close to truth's.
	if large.CrossEst > large.CrossTrue*1.1 {
		t.Errorf("estimated partition cross %g vs true %g",
			large.CrossEst, large.CrossTrue)
	}
}

func TestE11RefinementHelpsOnSparseTopologies(t *testing.T) {
	r, err := E11()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]E11Row{}
	for _, row := range r.Rows {
		byName[row.Topology] = row
	}
	// Complete platform: all distances 1, nothing to improve.
	if c := byName["complete6"]; c.After != c.Before {
		t.Errorf("complete topology changed: %+v", c)
	}
	// Sparse topologies: refinement must not hurt, and dilation before >=
	// after with at least one of ring/mesh strictly improved.
	improved := false
	for _, name := range []string{"ring6", "mesh2x3"} {
		row := byName[name]
		if row.After > row.Before {
			t.Errorf("%s: refinement hurt: %g -> %g", name, row.Before, row.After)
		}
		if row.After < row.Before {
			improved = true
		}
	}
	if !improved {
		t.Error("refinement improved neither sparse topology")
	}
}

func TestE12DeeperSchemesLocaliseRetests(t *testing.T) {
	r, err := E12(200, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// All shapes hold leaves constant.
	for _, row := range r.Rows {
		if row.Leaves != 64 {
			t.Errorf("%s leaves = %d", row.Scheme, row.Leaves)
		}
	}
	// Mean retest cost strictly decreases with depth (fewer siblings per
	// parent); structural overhead strictly increases.
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].MeanRetest >= r.Rows[i-1].MeanRetest {
			t.Errorf("retest cost not decreasing: %s %.2f -> %s %.2f",
				r.Rows[i-1].Scheme, r.Rows[i-1].MeanRetest,
				r.Rows[i].Scheme, r.Rows[i].MeanRetest)
		}
		if r.Rows[i].TotalFCMs <= r.Rows[i-1].TotalFCMs {
			t.Errorf("overhead not increasing: %d -> %d",
				r.Rows[i-1].TotalFCMs, r.Rows[i].TotalFCMs)
		}
	}
	// Exact expectations: 2-level retest = leaf + process + 63 interfaces
	// = 65; 3-level = leaf + task + 7 interfaces = 9; 4-level = 5.
	want := []float64{65, 9, 5}
	for i, w := range want {
		if r.Rows[i].MeanRetest != w {
			t.Errorf("%s mean retest = %g, want %g", r.Rows[i].Scheme, r.Rows[i].MeanRetest, w)
		}
	}
	// Uniform trees over 64 leaves: 1+64, 1+8+64 and 1+4+16+64 FCMs.
	for i, w := range []int{65, 73, 85} {
		if r.Rows[i].TotalFCMs != w {
			t.Errorf("%s total FCMs = %d, want %d", r.Rows[i].Scheme, r.Rows[i].TotalFCMs, w)
		}
	}
}

func TestE13CommFaultShape(t *testing.T) {
	r, err := E13(10000, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.H1Escape > row.CritEscape {
			t.Errorf("comm=%g: H1 escape %g above criticality %g",
				row.CommFraction, row.H1Escape, row.CritEscape)
		}
	}
}

func TestSynthesizeShapedValid(t *testing.T) {
	for _, shape := range []Shape{ShapeRandom, ShapePipeline, ShapeLayered, ShapeStar} {
		t.Run(shape.String(), func(t *testing.T) {
			sys, err := SynthesizeShaped(shape, 20, 3, 8)
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.Validate(); err != nil {
				t.Errorf("invalid: %v", err)
			}
			if len(sys.Influences) == 0 {
				t.Error("no influence edges generated")
			}
		})
	}
	if _, err := SynthesizeShaped(ShapeRandom, 2, 1, 1); err == nil {
		t.Error("tiny n accepted")
	}
	if _, err := SynthesizeShaped(Shape(99), 20, 1, 8); err == nil {
		t.Error("unknown shape accepted")
	}
}

func TestE14H1DominatesAcrossTopologies(t *testing.T) {
	r, err := E14(24, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.H1Contain < row.RandContain {
			t.Errorf("%s: H1 %g below random %g", row.Shape, row.H1Contain, row.RandContain)
		}
		if row.H1Contain < row.CritContain-0.05 {
			t.Errorf("%s: H1 %g well below criticality %g", row.Shape, row.H1Contain, row.CritContain)
		}
	}
}

func TestE15SimulatedMatchesAnalytic(t *testing.T) {
	r, err := E15(5e5, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 8 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if math.Abs(row.Simulated-row.Analytic) > 0.02 {
			t.Errorf("%s: simulated %g vs analytic %g",
				row.Module, row.Simulated, row.Analytic)
		}
	}
	// TMR p1 has higher availability than any simplex module.
	byName := map[string]E15Row{}
	for _, row := range r.Rows {
		byName[row.Module] = row
	}
	if byName["p1"].Simulated <= byName["p4"].Simulated {
		t.Errorf("TMR p1 %g not above simplex p4 %g",
			byName["p1"].Simulated, byName["p4"].Simulated)
	}
}

// SeparationCheck returns Eq. (3)'s separation(p1,p5) on the worked
// example at the given order.
func SeparationCheck(order int) (float64, error) {
	sys := spec.PaperExample()
	g, err := sys.Graph()
	if err != nil {
		return 0, err
	}
	p, ids := g.Matrix()
	idx := map[string]int{}
	for i, id := range ids {
		idx[id] = i
	}
	return influence.Separation(p, idx["p1"], idx["p5"], order)
}

// FeasibilityProbe reports whether a synthetic system can be reduced to
// the given target under H1.
func FeasibilityProbe(sys *spec.System, target int) (bool, error) {
	g, err := sys.Graph()
	if err != nil {
		return false, err
	}
	exp, err := cluster.Expand(g, sys.Jobs())
	if err != nil {
		return false, err
	}
	c := exp.Condenser()
	if err := c.ReduceByInfluence(target); err != nil {
		return false, nil
	}
	return true, nil
}
