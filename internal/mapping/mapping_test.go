package mapping

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	"repro/internal/attrs"
	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/hw"
	"repro/internal/spec"
)

// reducedPaper returns (full replicated graph, condensed graph) for the
// worked example under H1.
func reducedPaper(t *testing.T) (*graph.Graph, *graph.Graph) {
	t.Helper()
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
	return full, c.G
}

func completePlatform(t *testing.T, n int) *hw.Platform {
	t.Helper()
	p, err := hw.Complete(n)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestAssignByImportancePaperExample(t *testing.T) {
	full, condensed := reducedPaper(t)
	p := completePlatform(t, 6)
	asg, _, err := AssignByImportanceDetailed(condensed, p, defaultWeights(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(asg) != 6 {
		t.Fatalf("assigned %d clusters, want 6", len(asg))
	}
	// Bijective onto the platform.
	usedNodes := map[string]bool{}
	for _, node := range asg {
		if usedNodes[node] {
			t.Errorf("node %s used twice", node)
		}
		usedNodes[node] = true
	}
	rep := Evaluate(full, asg, p, EvalConfig{CriticalThreshold: 10})
	if !rep.ConstraintsOK {
		t.Errorf("violations: %v", rep.Violations)
	}
	if rep.Containment <= 0 || rep.Containment >= 1 {
		t.Errorf("containment = %g, want in (0,1)", rep.Containment)
	}
	// p1 replicas are critical (C=15); each sits alone or with
	// non-criticals, so no colocated critical pair should involve p1.
	if rep.CriticalPairsColocated > 2 {
		t.Errorf("critical pairs colocated = %d", rep.CriticalPairsColocated)
	}
}

func TestAssignmentNodeOf(t *testing.T) {
	_, condensed := reducedPaper(t)
	p := completePlatform(t, 6)
	asg, _, err := AssignByImportanceDetailed(condensed, p, defaultWeights(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	if node := asg.NodeOf("p1a"); node == "" {
		t.Error("p1a not located")
	}
	if node := asg.NodeOf("ghost"); node != "" {
		t.Errorf("ghost located at %s", node)
	}
	// Replicas on distinct HW nodes (§5.2's whole point).
	if asg.NodeOf("p1a") == asg.NodeOf("p1b") || asg.NodeOf("p1b") == asg.NodeOf("p1c") {
		t.Error("p1 replicas share a HW node")
	}
}

func TestAssignTooManyClusters(t *testing.T) {
	_, condensed := reducedPaper(t)
	p := completePlatform(t, 3)
	if _, _, err := AssignByImportanceDetailed(condensed, p, defaultWeights(t), nil); !errors.Is(err, ErrTooManyClusters) {
		t.Errorf("err = %v, want ErrTooManyClusters", err)
	}
}

func TestAssignWithResourceRequirements(t *testing.T) {
	g := graph.New()
	if err := g.AddNode("a", attrs.New(map[attrs.Kind]float64{attrs.Criticality: 5})); err != nil {
		t.Fatal(err)
	}
	if err := g.AddNode("b", attrs.New(map[attrs.Kind]float64{attrs.Criticality: 1})); err != nil {
		t.Fatal(err)
	}
	p := hw.NewPlatform()
	if err := p.AddNode(hw.Node{Name: "plain"}); err != nil {
		t.Fatal(err)
	}
	if err := p.AddNode(hw.Node{Name: "rich", Resources: map[string]bool{"adc": true}}); err != nil {
		t.Fatal(err)
	}
	if err := p.Link("plain", "rich", 1); err != nil {
		t.Fatal(err)
	}
	req := Requirements{"a": {"adc"}}
	asg, _, err := AssignByImportanceDetailed(g, p, defaultWeights(t), req)
	if err != nil {
		t.Fatal(err)
	}
	if asg["a"] != "rich" {
		t.Errorf("a -> %s, want rich", asg["a"])
	}
	// Conflicting requirement: both need the single adc node.
	req["b"] = []string{"adc"}
	if _, _, err := AssignByImportanceDetailed(g, p, defaultWeights(t), req); !errors.Is(err, ErrNoFeasibleNode) {
		t.Errorf("err = %v, want ErrNoFeasibleNode", err)
	}
}

func TestPlacementMinimisesDilation(t *testing.T) {
	// Ring platform: two strongly coupled clusters should land adjacent.
	g := graph.New()
	for _, n := range []string{"x", "y", "z"} {
		if err := g.AddNode(n, attrs.Set{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.SetEdge("x", "y", 0.9); err != nil {
		t.Fatal(err)
	}
	if err := g.SetEdge("y", "x", 0.9); err != nil {
		t.Fatal(err)
	}
	ring, err := hw.Ring(6)
	if err != nil {
		t.Fatal(err)
	}
	asg, _, err := AssignByImportanceDetailed(g, ring, defaultWeights(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	d, ok := ring.Distance(asg["x"], asg["y"])
	if !ok || d != 1 {
		t.Errorf("x and y placed %g apart, want 1", d)
	}
}

func TestAssignLexicographicCriticalityFirst(t *testing.T) {
	full, condensed := reducedPaper(t)
	p := completePlatform(t, 6)
	asg, _, err := AssignLexicographicDetailed(condensed, p, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep := Evaluate(full, asg, p, EvalConfig{CriticalThreshold: 10})
	if !rep.ConstraintsOK {
		t.Errorf("violations: %v", rep.Violations)
	}
}

func TestEvaluateDetectsViolations(t *testing.T) {
	full, _ := reducedPaper(t)
	p := completePlatform(t, 6)
	// Hand-build a bad assignment: two clusters on one node, one base
	// unassigned, unknown HW node.
	asg := Assignment{
		"{p1a,p2a}":   "hw1",
		"{p1b,p2b}":   "hw1",
		"p1c":         "hw2",
		"{p3a,p4,p5}": "hw3",
		"p3b":         "hw9", // unknown
		"{p6,p7,p8}":  "hw4",
	}
	rep := Evaluate(full, asg, p, EvalConfig{})
	if rep.ConstraintsOK {
		t.Fatal("violations not detected")
	}
	joined := strings.Join(rep.Violations, "; ")
	for _, want := range []string{"hosts both", "unknown node"} {
		if !strings.Contains(joined, want) {
			t.Errorf("violations %q missing %q", joined, want)
		}
	}
}

func TestEvaluateContainmentArithmetic(t *testing.T) {
	// Two nodes, one edge each way; colocate them -> full containment.
	g := graph.New()
	for _, n := range []string{"a", "b"} {
		if err := g.AddNode(n, attrs.Set{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.SetEdge("a", "b", 0.4); err != nil {
		t.Fatal(err)
	}
	if err := g.SetEdge("b", "a", 0.1); err != nil {
		t.Fatal(err)
	}
	p := completePlatform(t, 2)
	together := Assignment{"{a,b}": "hw1"}
	rep := Evaluate(g, together, p, EvalConfig{})
	if rep.CrossInfluence != 0 || math.Abs(rep.InternalInfluence-0.5) > 1e-12 || rep.Containment != 1 {
		t.Errorf("together: %+v", rep)
	}
	apart := Assignment{"a": "hw1", "b": "hw2"}
	rep = Evaluate(g, apart, p, EvalConfig{})
	if math.Abs(rep.CrossInfluence-0.5) > 1e-12 || rep.Containment != 0 {
		t.Errorf("apart: %+v", rep)
	}
	// Unit distances: comm cost equals cross influence.
	if math.Abs(rep.CommCost-0.5) > 1e-12 {
		t.Errorf("comm cost = %g, want 0.5", rep.CommCost)
	}
}

func TestEvaluateCriticalityMetrics(t *testing.T) {
	g := graph.New()
	crit := map[string]float64{"a": 10, "b": 10, "c": 1}
	for n, cv := range crit {
		if err := g.AddNode(n, attrs.New(map[attrs.Kind]float64{attrs.Criticality: cv})); err != nil {
			t.Fatal(err)
		}
	}
	p := completePlatform(t, 2)
	asg := Assignment{"{a,b}": "hw1", "c": "hw2"}
	rep := Evaluate(g, asg, p, EvalConfig{CriticalThreshold: 5})
	if rep.MaxNodeCriticality != 20 {
		t.Errorf("MaxNodeCriticality = %g, want 20", rep.MaxNodeCriticality)
	}
	if rep.CriticalPairsColocated != 1 {
		t.Errorf("CriticalPairsColocated = %d, want 1", rep.CriticalPairsColocated)
	}
	// Separating the critical pair clears the metric.
	asg = Assignment{"{a,c}": "hw1", "b": "hw2"}
	rep = Evaluate(g, asg, p, EvalConfig{CriticalThreshold: 5})
	if rep.CriticalPairsColocated != 0 {
		t.Errorf("CriticalPairsColocated = %d, want 0", rep.CriticalPairsColocated)
	}
}

func TestApproachBBeatsAOnCriticalityDispersion(t *testing.T) {
	// The paper's motivation for Approach B: criticality-driven reduction
	// spreads criticality more evenly than influence-driven reduction.
	sys := spec.PaperExample()
	g, err := sys.Graph()
	if err != nil {
		t.Fatal(err)
	}
	run := func(reduce func(c *cluster.Condenser) error) Report {
		exp, err := cluster.Expand(g, sys.Jobs())
		if err != nil {
			t.Fatal(err)
		}
		full := exp.Graph.Clone()
		c := cluster.NewCondenser(exp.Graph, exp.Jobs)
		if err := reduce(c); err != nil {
			t.Fatal(err)
		}
		p := completePlatform(t, 6)
		asg, _, err := AssignByImportanceDetailed(c.G, p, defaultWeights(t), nil)
		if err != nil {
			t.Fatal(err)
		}
		return Evaluate(full, asg, p, EvalConfig{CriticalThreshold: 10})
	}
	repA := run(func(c *cluster.Condenser) error { return c.ReduceByInfluence(6) })
	repB := run(func(c *cluster.Condenser) error { return c.ReduceByCriticality(6) })
	if repB.MaxNodeCriticality > repA.MaxNodeCriticality {
		t.Errorf("Approach B criticality dispersion (%g) worse than A (%g)",
			repB.MaxNodeCriticality, repA.MaxNodeCriticality)
	}
	if repA.CrossInfluence > repB.CrossInfluence {
		t.Errorf("Approach A containment (cross %g) worse than B (cross %g)",
			repA.CrossInfluence, repB.CrossInfluence)
	}
}

func TestRequirementsForCluster(t *testing.T) {
	req := Requirements{"a": {"io", "adc"}, "b": {"io"}}
	got := req.forCluster("{a,b}")
	if strings.Join(got, ",") != "adc,io" {
		t.Errorf("forCluster = %v", got)
	}
	if got := req.forCluster("c"); len(got) != 0 {
		t.Errorf("empty requirements = %v", got)
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

// TestPlacementAllocsBounded pins the placement kernel's allocations to
// its per-call tables plus one alternatives slice per cluster: placing 20
// clusters on a 20-node platform may cost at most 1.5 allocations per
// cluster more than placing 10, so no per-cluster node list, placed-cluster
// list or requirement set is built.
func TestPlacementAllocsBounded(t *testing.T) {
	w := defaultWeights(t)
	p := completePlatform(t, 20)
	allocs := func(k int) float64 {
		pr := rand.New(rand.NewPCG(7, 7))
		g := graph.New()
		for i := 0; i < k; i++ {
			a := attrs.New(map[attrs.Kind]float64{attrs.Criticality: float64(pr.IntN(20))})
			if err := g.AddNode(fmt.Sprintf("c%02d", i), a); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				if i != j && pr.IntN(3) == 0 {
					if err := g.SetEdge(fmt.Sprintf("c%02d", i), fmt.Sprintf("c%02d", j), pr.Float64()); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		return testing.AllocsPerRun(20, func() {
			if _, _, err := AssignByImportanceDetailed(g, p, w, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	a10, a20 := allocs(10), allocs(20)
	if a20 > 80 || a20-a10 > 15 {
		t.Errorf("allocs per call: %v for 10 clusters, %v for 20; want at most 80 for 20, and at most 1.5 more per added cluster", a10, a20)
	}
}

// TestEvaluateDuplicateBaseDeterministic lists base b in two clusters on a
// 4-node ring. Evaluate must place b by the first cluster in id order on
// every call, report the repeat, and NodeOf must agree.
func TestEvaluateDuplicateBaseDeterministic(t *testing.T) {
	g := graph.New()
	for _, n := range []string{"a", "b", "c"} {
		if err := g.AddNode(n, attrs.Set{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.SetEdge("a", "b", 0.5); err != nil {
		t.Fatal(err)
	}
	if err := g.SetEdge("b", "c", 0.25); err != nil {
		t.Fatal(err)
	}
	p, err := hw.Ring(4)
	if err != nil {
		t.Fatal(err)
	}
	asg := Assignment{"{a,b}": "hw1", "{b,c}": "hw3"}
	want := []string{"base node b in both {a,b} and {b,c}"}
	for i := 0; i < 200; i++ {
		rep := Evaluate(g, asg, p, EvalConfig{})
		// b on hw1 with a: only b→c crosses, two hops.
		if rep.CommCost != 0.5 || rep.ConstraintsOK || !reflect.DeepEqual(rep.Violations, want) {
			t.Fatalf("call %d: CommCost %v, ConstraintsOK %v, violations %q; want 0.5, false, %q",
				i, rep.CommCost, rep.ConstraintsOK, rep.Violations, want)
		}
		if node := asg.NodeOf("b"); node != "hw1" {
			t.Fatalf("call %d: NodeOf(b) = %q, want hw1", i, node)
		}
	}
}

// TestEvaluateAllocsBounded evaluates 20 clusters of 5 bases on 20 nodes
// over a sparse and a dense full graph: the slot walk's allocations must
// not grow with the edge count.
func TestEvaluateAllocsBounded(t *testing.T) {
	p := completePlatform(t, 20)
	allocs := func(perBase int) float64 {
		pr := rand.New(rand.NewPCG(9, 9))
		g := graph.New()
		asg := Assignment{}
		var bases []string
		for c := 0; c < 20; c++ {
			var members []string
			for i := 0; i < 5; i++ {
				id := fmt.Sprintf("b%02d%d", c, i)
				a := attrs.New(map[attrs.Kind]float64{attrs.Criticality: float64(pr.IntN(20))})
				if err := g.AddNode(id, a); err != nil {
					t.Fatal(err)
				}
				members = append(members, id)
			}
			asg[graph.ClusterID(members)] = fmt.Sprintf("hw%d", c+1)
			bases = append(bases, members...)
		}
		for _, from := range bases {
			for _, k := range pr.Perm(len(bases))[:perBase] {
				if to := bases[k]; to != from {
					if err := g.SetEdge(from, to, pr.Float64()); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		cfg := EvalConfig{CriticalThreshold: 10}
		return testing.AllocsPerRun(20, func() {
			if rep := Evaluate(g, asg, p, cfg); !rep.ConstraintsOK {
				t.Fatal(rep.Violations)
			}
		})
	}
	sparse, dense := allocs(2), allocs(40)
	t.Logf("allocs per call: %v with about 200 edges, %v with about 4000", sparse, dense)
	if dense > sparse || dense > 30 {
		t.Errorf("allocs per call: %v with about 200 edges, %v with about 4000; want at most 30, not growing with the edges", sparse, dense)
	}
}
