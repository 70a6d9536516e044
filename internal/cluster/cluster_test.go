package cluster

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/attrs"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/spec"
)

// expandPaper builds the replicated worked-example graph (Fig. 4).
func expandPaper(t *testing.T) *Expansion {
	t.Helper()
	sys := spec.PaperExample()
	g, err := sys.Graph()
	if err != nil {
		t.Fatal(err)
	}
	exp, err := Expand(g, sys.Jobs())
	if err != nil {
		t.Fatal(err)
	}
	return exp
}

func TestExpandFig4(t *testing.T) {
	exp := expandPaper(t)
	// 8 processes with FT 3,2,2,1,1,1,1,1 expand to 12 nodes.
	if got := exp.Graph.NumNodes(); got != 12 {
		t.Errorf("expanded nodes = %d, want 12", got)
	}
	// p1 replicates thrice.
	reps := exp.ReplicasOf["p1"]
	if len(reps) != 3 || reps[0] != "p1a" || reps[2] != "p1c" {
		t.Errorf("p1 replicas = %v", reps)
	}
	// Replicas are linked pairwise with weight-0 replica edges.
	if !exp.Graph.AreReplicas("p1a", "p1b") || !exp.Graph.AreReplicas("p1a", "p1c") ||
		!exp.Graph.AreReplicas("p1b", "p1c") {
		t.Error("p1 replicas not pairwise linked")
	}
	// FT=1 nodes keep their name.
	if exp.ReplicasOf["p4"][0] != "p4" {
		t.Errorf("p4 replicas = %v", exp.ReplicasOf["p4"])
	}
	// Edges are replicated: p1->p2 (0.7) becomes 3x2 = 6 edges.
	count := 0
	for _, a := range exp.ReplicasOf["p1"] {
		for _, b := range exp.ReplicasOf["p2"] {
			if exp.Graph.Influence(a, b) == 0.7 {
				count++
			}
		}
	}
	if count != 6 {
		t.Errorf("replicated p1->p2 edges = %d, want 6", count)
	}
	// ReplicasOf names every expanded node exactly once.
	seen := map[string]int{}
	for _, reps := range exp.ReplicasOf {
		for _, r := range reps {
			seen[r]++
		}
	}
	for _, id := range exp.Graph.Nodes() {
		if seen[id] != 1 {
			t.Errorf("expanded node %s is listed %d times in ReplicasOf", id, seen[id])
		}
	}
	if len(seen) != exp.Graph.NumNodes() {
		t.Errorf("ReplicasOf names %d replicas, graph has %d nodes", len(seen), exp.Graph.NumNodes())
	}
	// Jobs cover all 12 replicas.
	if len(exp.Jobs) != 12 {
		t.Errorf("jobs = %d, want 12", len(exp.Jobs))
	}
}

func TestExpandAttributesCopied(t *testing.T) {
	exp := expandPaper(t)
	a := exp.Graph.Attrs("p1b")
	if a.Value(attrs.Criticality) != 15 || a.Value(attrs.ComputeTime) != 5 {
		t.Errorf("p1b attrs = %s", a)
	}
}

func TestCanCombineRules(t *testing.T) {
	exp := expandPaper(t)
	c := exp.Condenser()
	if ok, why := c.CanCombine("p1a", "p1b"); ok {
		t.Error("replicas combinable")
	} else if !strings.Contains(why, "replica") {
		t.Errorf("reason = %q", why)
	}
	if ok, _ := c.CanCombine("p1a", "p2a"); !ok {
		t.Error("p1a+p2a should combine")
	}
	if ok, why := c.CanCombine("p1a", "p1a"); ok || why != "same node" {
		t.Errorf("self combine: %v %q", ok, why)
	}
	if ok, why := c.CanCombine("p1a", "zz"); ok || why != "unknown node" {
		t.Errorf("unknown combine: %v %q", ok, why)
	}
	// The narrative timing conflict: p2 cannot join a {p4,p7} cluster.
	id, err := c.Combine("p4", "p7", "test")
	if err != nil {
		t.Fatal(err)
	}
	if ok, why := c.CanCombine(id, "p2a"); ok {
		t.Error("{p4,p7}+p2a should be infeasible")
	} else if !strings.Contains(why, "timing infeasible") {
		t.Errorf("reason = %q", why)
	}
}

// TestCanCombineZeroAlloc pins the allocation-free feasibility check: once
// both nodes' jobs are cached, CanCombine allocates nothing for a feasible
// pair or a replica pair, observed or not, and a timing rejection
// allocates only when its witness is asked for (CanCombine, not the
// reduction loops' combinable).
func TestCanCombineZeroAlloc(t *testing.T) {
	defer sched.Observe(nil)
	exp := expandPaper(t)
	c := exp.Condenser()
	id, err := c.Combine("p4", "p7", "test")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	for _, observed := range []bool{false, true} {
		if observed {
			c.Observe(nil, reg)
			sched.Observe(reg)
		}
		for _, p := range [][2]string{{"p1a", "p2a"}, {id, "p1c"}, {"p1a", "p1b"}} {
			c.CanCombine(p[0], p[1]) // warm the job cache
			if a := testing.AllocsPerRun(50, func() { c.CanCombine(p[0], p[1]) }); a != 0 {
				t.Errorf("observed=%v: CanCombine(%s, %s) allocates %.1f per call, want 0", observed, p[0], p[1], a)
			}
		}
		if ok, why := c.combinable(id, "p2a"); ok || why != timingInfeasible {
			t.Fatalf("combinable(%s, p2a) = %v, %q", id, ok, why)
		}
		if a := testing.AllocsPerRun(50, func() { c.combinable(id, "p2a") }); a != 0 {
			t.Errorf("observed=%v: timing rejection allocates %.1f per call, want 0", observed, a)
		}
	}
}

func TestReduceByInfluenceFig6(t *testing.T) {
	// The full Approach-A reduction of §6.1: 12 replicated nodes to 6 HW
	// nodes by repeated highest-mutual-influence combination.
	exp := expandPaper(t)
	c := exp.Condenser()
	if err := c.ReduceByInfluence(6); err != nil {
		t.Fatal(err)
	}
	got := strings.Join(c.G.Nodes(), " ")
	want := "p1c p3b {p1a,p2a} {p1b,p2b} {p3a,p4,p5} {p6,p7,p8}"
	if got != want {
		t.Errorf("final clusters:\n got: %s\nwant: %s", got, want)
	}
	// Trace: the first merge is the highest-mutual pair (p1a,p2a) at 1.2;
	// the second is (p1b,p2b).
	if len(c.Trace) < 2 {
		t.Fatalf("trace too short: %v", c.Trace)
	}
	if c.Trace[0].A != "p1a" || c.Trace[0].B != "p2a" || math.Abs(c.Trace[0].Mutual-1.2) > 1e-12 {
		t.Errorf("first step = %+v", c.Trace[0])
	}
	if c.Trace[1].A != "p1b" || c.Trace[1].B != "p2b" {
		t.Errorf("second step = %+v", c.Trace[1])
	}
	// Replica sets are split across distinct clusters.
	for _, reps := range [][]string{
		{"p1a", "p1b", "p1c"},
		{"p2a", "p2b"},
		{"p3a", "p3b"},
	} {
		owner := map[string]string{}
		for _, node := range c.G.Nodes() {
			for _, m := range graph.Members(node) {
				owner[m] = node
			}
		}
		for i := range reps {
			for j := i + 1; j < len(reps); j++ {
				if owner[reps[i]] == owner[reps[j]] {
					t.Errorf("replicas %s and %s share cluster %s",
						reps[i], reps[j], owner[reps[i]])
				}
			}
		}
	}
}

func TestReduceByInfluenceEq4Arithmetic(t *testing.T) {
	// During the Fig. 6 reduction, the cluster {p3a,p4} influences p5 with
	// 1-(1-0.7)(1-0.2) = 0.76, Fig. 5's surviving value.
	exp := expandPaper(t)
	c := exp.Condenser()
	id, err := c.Combine("p3a", "p4", "test")
	if err != nil {
		t.Fatal(err)
	}
	if got := c.G.Influence(id, "p5"); math.Abs(got-0.76) > 1e-12 {
		t.Errorf("{p3a,p4}->p5 = %g, want 0.76", got)
	}
}

func TestReduceByInfluenceTargets(t *testing.T) {
	exp := expandPaper(t)
	c := exp.Condenser()
	if err := c.ReduceByInfluence(0); !errors.Is(err, ErrBadTarget) {
		t.Errorf("target 0 err = %v", err)
	}
	if err := c.ReduceByInfluence(99); !errors.Is(err, ErrBadTarget) {
		t.Errorf("target 99 err = %v", err)
	}
	// Reducing to the replica-count floor (3: p1 has three replicas) can
	// fail feasibly — at minimum the three p1 replicas stay apart.
	err := c.ReduceByInfluence(2)
	if !errors.Is(err, ErrCannotReduce) {
		t.Errorf("reduction below replica floor: err = %v, want ErrCannotReduce", err)
	}
}

func TestReduceByInfluencePairAll(t *testing.T) {
	exp := expandPaper(t)
	c := exp.Condenser()
	if err := c.ReduceByInfluencePairAll(6); err != nil {
		t.Fatal(err)
	}
	if got := c.G.NumNodes(); got != 6 {
		t.Errorf("nodes = %d, want 6", got)
	}
	// All steps labelled with the variant rule.
	for _, s := range c.Trace {
		if s.Rule != "H1-pair-all" {
			t.Errorf("step rule = %q", s.Rule)
		}
	}
}

func TestReduceByMinCutH2(t *testing.T) {
	exp := expandPaper(t)
	c := exp.Condenser()
	if err := c.ReduceByMinCut(6); err != nil {
		t.Fatal(err)
	}
	if got := c.G.NumNodes(); got != 6 {
		t.Errorf("nodes = %d, want 6", got)
	}
	// Feasibility invariants hold after repair.
	for _, s := range c.G.SlotsByName() {
		if !c.groupFeasible([]int{s}) {
			t.Errorf("cluster %s infeasible", c.G.Name(s))
		}
	}
}

func TestReduceBySpheresH3(t *testing.T) {
	exp := expandPaper(t)
	c := exp.Condenser()
	if err := c.ReduceBySpheres(6, defaultWeights(t)); err != nil {
		t.Fatal(err)
	}
	if got := c.G.NumNodes(); got != 6 {
		t.Errorf("nodes = %d, want 6", got)
	}
	// The three p1 replicas are the most important nodes; each must seed
	// its own sphere, so they end in distinct clusters.
	owner := map[string]string{}
	for _, node := range c.G.Nodes() {
		for _, m := range graph.Members(node) {
			owner[m] = node
		}
	}
	if owner["p1a"] == owner["p1b"] || owner["p1b"] == owner["p1c"] || owner["p1a"] == owner["p1c"] {
		t.Errorf("p1 replicas share spheres: %v %v %v", owner["p1a"], owner["p1b"], owner["p1c"])
	}
}

func TestReduceByCriticalityFig7(t *testing.T) {
	// §6.2 Approach B: the exact pairs of Fig. 7, including the p3a/p3b
	// replica-conflict resolution: {p1a,p8} {p1b,p7} {p1c,p5} {p2a,p6}
	// {p2b,p3b} {p3a,p4}.
	exp := expandPaper(t)
	c := exp.Condenser()
	if err := c.ReduceByCriticality(6); err != nil {
		t.Fatal(err)
	}
	got := strings.Join(c.G.Nodes(), " ")
	want := "{p1a,p8} {p1b,p7} {p1c,p5} {p2a,p6} {p2b,p3b} {p3a,p4}"
	if got != want {
		t.Errorf("Fig. 7 clusters:\n got: %s\nwant: %s", got, want)
	}
}

func TestReduceByCriticalitySecondStage(t *testing.T) {
	// "In the next stage, the sets of processes can be ordered based on a
	// summary criticality … until a desired number of nodes is obtained."
	exp := expandPaper(t)
	c := exp.Condenser()
	err := c.ReduceByCriticality(3)
	// Reaching 3 requires putting two replicas of some module together or
	// may succeed: p1a,p1b,p1c must stay separate, so 3 is the floor.
	if err != nil {
		// Acceptable only if feasibility genuinely blocks below 6.
		if !errors.Is(err, ErrCannotReduce) {
			t.Fatalf("unexpected error: %v", err)
		}
		t.Logf("second stage stopped at %d nodes: %v", c.G.NumNodes(), err)
		return
	}
	if got := c.G.NumNodes(); got != 3 {
		t.Errorf("nodes = %d, want 3", got)
	}
}

func TestReduceByTimingFig8(t *testing.T) {
	exp := expandPaper(t)
	c := exp.Condenser()
	if err := c.ReduceByTiming(0); err != nil {
		t.Fatal(err)
	}
	n := c.G.NumNodes()
	// Timing-only grouping reaches at most 6 and at least 3 nodes (the p1
	// replica floor); our greedy first-fit lands at 3 — tighter than the
	// criticality-constrained Fig. 7 result, which is the figure's point.
	if n < 3 || n > 6 {
		t.Errorf("timing grouping nodes = %d, want within [3,6]", n)
	}
	// Every cluster feasible; replicas separated.
	for _, s := range c.G.SlotsByName() {
		if !c.groupFeasible([]int{s}) {
			t.Errorf("cluster %s infeasible", c.G.Name(s))
		}
	}
	owner := map[string]string{}
	for _, node := range c.G.Nodes() {
		for _, m := range graph.Members(node) {
			owner[m] = node
		}
	}
	if owner["p1a"] == owner["p1b"] || owner["p3a"] == owner["p3b"] || owner["p2a"] == owner["p2b"] {
		t.Error("timing grouping put replicas together")
	}
}

func TestReduceByTimingMaxGroups(t *testing.T) {
	exp := expandPaper(t)
	c := exp.Condenser()
	// 2 groups is below the p1 replica floor of 3.
	if err := c.ReduceByTiming(2); !errors.Is(err, ErrCannotReduce) {
		t.Errorf("err = %v, want ErrCannotReduce", err)
	}
}

func TestPartitionAndJobsOf(t *testing.T) {
	exp := expandPaper(t)
	c := exp.Condenser()
	id, err := c.Combine("p1a", "p2a", "test")
	if err != nil {
		t.Fatal(err)
	}
	s, _ := c.G.Slot(id)
	jobs := c.appendJobs(nil, s)
	if len(jobs) != 2 {
		t.Errorf("cluster jobs = %d, want 2", len(jobs))
	}
	part := c.Partition()
	if len(part) != 11 {
		t.Errorf("partition groups = %d, want 11", len(part))
	}
	// The combined group lists both members.
	found := false
	for _, grp := range part {
		if len(grp) == 2 && grp[0] == "p1a" && grp[1] == "p2a" {
			found = true
		}
	}
	if !found {
		t.Errorf("partition missing combined group: %v", part)
	}
}

func TestCombineRejectsInfeasible(t *testing.T) {
	exp := expandPaper(t)
	c := exp.Condenser()
	if _, err := c.Combine("p1a", "p1b", "test"); err == nil {
		t.Error("replica combine accepted")
	}
}

func TestStepString(t *testing.T) {
	s := Step{A: "a", B: "b", Mutual: 0.5, Result: "{a,b}", Rule: "H1"}
	if got := s.String(); got != "H1: a + b (mutual 0.5) -> {a,b}" {
		t.Errorf("Step.String = %q", got)
	}
}

func TestCrossWeightDropsAsReductionProceeds(t *testing.T) {
	// Containment property: H1's final partition contains at least as much
	// influence internally as a random-ish (name-ordered) partition into
	// the same group sizes. Weak but meaningful sanity check on "combining
	// nodes with high mutual influence creates FCRs in HW".
	sys := spec.PaperExample()
	g, err := sys.Graph()
	if err != nil {
		t.Fatal(err)
	}
	exp, err := Expand(g, sys.Jobs())
	if err != nil {
		t.Fatal(err)
	}
	full := exp.Graph.Clone()
	c := NewCondenser(exp.Graph, exp.Jobs)
	if err := c.ReduceByInfluence(6); err != nil {
		t.Fatal(err)
	}
	h1Cross := full.CrossWeight(c.Partition())
	// Name-ordered split into 6 groups of 2.
	var naive [][]string
	nodes := full.Nodes()
	for i := 0; i < len(nodes); i += 2 {
		end := i + 2
		if end > len(nodes) {
			end = len(nodes)
		}
		naive = append(naive, nodes[i:end])
	}
	naiveCross := full.CrossWeight(naive)
	if h1Cross > naiveCross {
		t.Errorf("H1 cross influence %g worse than naive %g", h1Cross, naiveCross)
	}
}

func TestReduceByMinCutSTVariant(t *testing.T) {
	exp := expandPaper(t)
	c := exp.Condenser()
	if err := c.ReduceByMinCutST(6, defaultWeights(t)); err != nil {
		t.Fatal(err)
	}
	if got := c.G.NumNodes(); got != 6 {
		t.Errorf("nodes = %d, want 6", got)
	}
	// Feasibility invariants hold after repair; replicas separated.
	for _, s := range c.G.SlotsByName() {
		if !c.groupFeasible([]int{s}) {
			t.Errorf("cluster %s infeasible", c.G.Name(s))
		}
	}
	owner := map[string]string{}
	for _, node := range c.G.Nodes() {
		for _, m := range graph.Members(node) {
			owner[m] = node
		}
	}
	if owner["p1a"] == owner["p1b"] || owner["p1b"] == owner["p1c"] {
		t.Error("p1 replicas colocated under H2-st")
	}
	for _, s := range c.Trace {
		if s.Rule != "H2-st" {
			t.Errorf("rule = %q", s.Rule)
		}
	}
}

func TestReduceByMinCutSTBadTarget(t *testing.T) {
	exp := expandPaper(t)
	c := exp.Condenser()
	if err := c.ReduceByMinCutST(0, defaultWeights(t)); !errors.Is(err, ErrBadTarget) {
		t.Errorf("err = %v, want ErrBadTarget", err)
	}
}

func defaultWeights(t *testing.T) attrs.Weights {
	t.Helper()
	w, err := attrs.DefaultWeights()
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestCondenserInvalidJobKeepsCheckError: the condenser validates its
// jobs once, when it is built, and then asks the oracle without
// validating again. A pair or group whose job set holds an invalid job
// must still be refused with the ErrBadJob error sched.Check gives for
// that set, and pairs of valid jobs keep their verdicts.
func TestCondenserInvalidJobKeepsCheckError(t *testing.T) {
	g := graph.New()
	for _, n := range []string{"a", "b", "c", "d"} {
		if err := g.AddNode(n, attrs.New(map[attrs.Kind]float64{attrs.Criticality: 1})); err != nil {
			t.Fatal(err)
		}
	}
	jobs := []sched.Job{
		{Name: "a", EST: 0, TCD: 10, CT: 2},
		{Name: "b", EST: 0, TCD: 10, CT: 20}, // needs more than its window
		{Name: "c", EST: 0, TCD: 10, CT: 3},
		{Name: "d", EST: 0, TCD: 10, CT: 8},
	}
	c := NewCondenser(g, jobs)
	for _, p := range []struct{ a, b int }{{0, 1}, {1, 2}, {0, 2}, {2, 3}} {
		ja, jb := jobs[p.a], jobs[p.b]
		wantOK, wantErr := sched.Check([]sched.Job{ja, jb})
		want := ""
		switch {
		case wantErr != nil:
			if !errors.Is(wantErr, sched.ErrBadJob) {
				t.Fatalf("sched.Check(%s, %s) = %v, want ErrBadJob", ja.Name, jb.Name, wantErr)
			}
			want = wantErr.Error()
		case !wantOK:
			want = "timing infeasible: " + sched.Witness([]sched.Job{ja, jb})
		}
		ok, why := c.CanCombine(ja.Name, jb.Name)
		if ok != (want == "") || why != want {
			t.Errorf("CanCombine(%s, %s) = %v, %q; want %q", ja.Name, jb.Name, ok, why, want)
		}
	}
	slot := func(name string) int {
		s, ok := c.G.Slot(name)
		if !ok {
			t.Fatalf("no slot %s", name)
		}
		return s
	}
	if c.groupFeasible([]int{slot("a"), slot("b")}) {
		t.Error("a group holding the invalid job is feasible")
	}
	if !c.groupFeasible([]int{slot("a"), slot("c")}) {
		t.Error("a group of valid jobs that fit is infeasible")
	}
}
