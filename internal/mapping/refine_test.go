package mapping

import (
	"context"
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/attrs"
	"repro/internal/graph"
	"repro/internal/hw"
)

// Dilation computes the communication-cost objective of an assignment
// over the given graph: Σ influence(u→v) × distance(hw(u), hw(v)) for
// cross-node edges, measured at cluster granularity. It is the oracle the
// Refine tests judge their moves by.
func Dilation(asg Assignment, g *graph.Graph, p *hw.Platform) float64 {
	total := 0.0
	for _, e := range g.Edges() {
		if e.Replica {
			continue
		}
		na, nb := asg[e.From], asg[e.To]
		if na == "" || nb == "" || na == nb {
			continue
		}
		d, ok := p.Distance(na, nb)
		if !ok {
			d = float64(p.NumNodes())
		}
		total += e.Weight * d
	}
	return total
}

// lineGraph builds clusters a-b-c-d with strong a<->b and c<->d coupling
// and weak b<->c coupling.
func lineGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New()
	for _, n := range []string{"a", "b", "c", "d"} {
		if err := g.AddNode(n, attrs.Set{}); err != nil {
			t.Fatal(err)
		}
	}
	edges := []struct {
		from, to string
		w        float64
	}{
		{"a", "b", 0.9}, {"b", "a", 0.8},
		{"c", "d", 0.9}, {"d", "c", 0.8},
		{"b", "c", 0.1},
	}
	for _, e := range edges {
		if err := g.SetEdge(e.from, e.to, e.w); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestRefineImprovesBadPlacement(t *testing.T) {
	g := lineGraph(t)
	ring, err := hw.Ring(6)
	if err != nil {
		t.Fatal(err)
	}
	// Adversarial start: strongly coupled pairs placed maximally apart.
	bad := Assignment{"a": "hw1", "b": "hw4", "c": "hw2", "d": "hw5"}
	before := Dilation(bad, g, ring)
	refined, moves, err := Refine(context.Background(), bad, g, ring, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	after := Dilation(refined, g, ring)
	if moves == 0 {
		t.Fatal("no moves applied to an adversarial placement")
	}
	if after >= before {
		t.Errorf("dilation %g -> %g, want improvement", before, after)
	}
	// Strongly coupled pairs end adjacent.
	for _, pair := range [][2]string{{"a", "b"}, {"c", "d"}} {
		d, ok := ring.Distance(refined[pair[0]], refined[pair[1]])
		if !ok || d > 1 {
			t.Errorf("%v placed %g apart after refinement", pair, d)
		}
	}
	// Input untouched.
	if bad["a"] != "hw1" || bad["b"] != "hw4" {
		t.Error("Refine mutated its input")
	}
}

func TestRefineAlreadyOptimalNoMoves(t *testing.T) {
	g := lineGraph(t)
	ring, err := hw.Ring(4)
	if err != nil {
		t.Fatal(err)
	}
	good := Assignment{"a": "hw1", "b": "hw2", "c": "hw3", "d": "hw4"}
	refined, moves, err := Refine(context.Background(), good, g, ring, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if moves != 0 {
		t.Errorf("moves = %d on an optimal placement (refined: %v)", moves, refined)
	}
}

func TestRefineRespectsResources(t *testing.T) {
	g := graph.New()
	for _, n := range []string{"x", "y"} {
		if err := g.AddNode(n, attrs.Set{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.SetEdge("x", "y", 0.9); err != nil {
		t.Fatal(err)
	}
	p := hw.NewPlatform()
	for _, n := range []string{"n1", "n2", "n3"} {
		res := map[string]bool{}
		if n == "n3" {
			res["adc"] = true
		}
		if err := p.AddNode(hw.Node{Name: n, Resources: res}); err != nil {
			t.Fatal(err)
		}
	}
	// Line topology: n1 - n2 - n3.
	if err := p.Link("n1", "n2", 1); err != nil {
		t.Fatal(err)
	}
	if err := p.Link("n2", "n3", 1); err != nil {
		t.Fatal(err)
	}
	req := Requirements{"x": {"adc"}}
	// x is pinned to n3 by its requirement; y starts far away on n1.
	asg := Assignment{"x": "n3", "y": "n1"}
	refined, moves, err := Refine(context.Background(), asg, g, p, req, 0)
	if err != nil {
		t.Fatal(err)
	}
	if refined["x"] != "n3" {
		t.Errorf("x moved off its resource node to %s", refined["x"])
	}
	if refined["y"] != "n2" || moves == 0 {
		t.Errorf("y should relocate to n2: %v (moves %d)", refined, moves)
	}
}

func TestRefineMaxMovesBudget(t *testing.T) {
	g := lineGraph(t)
	ring, err := hw.Ring(8)
	if err != nil {
		t.Fatal(err)
	}
	bad := Assignment{"a": "hw1", "b": "hw5", "c": "hw3", "d": "hw7"}
	_, moves, err := Refine(context.Background(), bad, g, ring, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if moves > 1 {
		t.Errorf("moves = %d, budget was 1", moves)
	}
}

func TestDilationAccounting(t *testing.T) {
	g := lineGraph(t)
	p, err := hw.Complete(4)
	if err != nil {
		t.Fatal(err)
	}
	asg := Assignment{"a": "hw1", "b": "hw1", "c": "hw2", "d": "hw2"}
	// Cross edges: b->c only (0.1) at distance 1.
	if got := Dilation(asg, g, p); got != 0.1 {
		t.Errorf("dilation = %g, want 0.1", got)
	}
	// Unassigned clusters are skipped.
	partial := Assignment{"a": "hw1"}
	if got := Dilation(partial, g, p); got != 0 {
		t.Errorf("partial dilation = %g, want 0", got)
	}
}

// TestRefineDeterministic calls Refine repeatedly on random 8-cluster
// graphs whose few distinct weights make equal-cost moves common, and
// requires every call on one input to return the same assignment and move
// count: the cost sum may not depend on map iteration order.
func TestRefineDeterministic(t *testing.T) {
	ring, err := hw.Ring(10)
	if err != nil {
		t.Fatal(err)
	}
	weights := []float64{0.1, 0.2, 0.3, 0.7}
	nodes := ring.Nodes()
	for seed := uint64(0); seed < 50; seed++ {
		pr := rand.New(rand.NewPCG(seed, 0x5eed))
		g := graph.New()
		var clusters []string
		for i := 0; i < 8; i++ {
			id := fmt.Sprintf("c%d", i)
			if err := g.AddNode(id, attrs.Set{}); err != nil {
				t.Fatal(err)
			}
			clusters = append(clusters, id)
		}
		for _, a := range clusters {
			for _, b := range clusters {
				if a != b && pr.IntN(3) == 0 {
					if err := g.SetEdge(a, b, weights[pr.IntN(len(weights))]); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		start := Assignment{}
		for i, hwi := range pr.Perm(len(nodes))[:len(clusters)] {
			start[clusters[i]] = nodes[hwi]
		}
		first, firstMoves, err := Refine(context.Background(), start, g, ring, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for call := 1; call < 16; call++ {
			got, moves, err := Refine(context.Background(), start, g, ring, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			if moves != firstMoves || !reflect.DeepEqual(got, first) {
				t.Fatalf("seed %d call %d: %v after %d moves, first call %v after %d moves",
					seed, call, got, moves, first, firstMoves)
			}
		}
	}
}
