package graph

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/attrs"
)

func mustAdd(t *testing.T, g *Graph, ids ...string) {
	t.Helper()
	for _, id := range ids {
		if err := g.AddNode(id, attrs.Set{}); err != nil {
			t.Fatalf("AddNode(%q): %v", id, err)
		}
	}
}

func mustEdge(t *testing.T, g *Graph, from, to string, w float64, factors ...string) {
	t.Helper()
	if err := g.SetEdge(from, to, w, factors...); err != nil {
		t.Fatalf("SetEdge(%q,%q,%g): %v", from, to, w, err)
	}
}

func TestAddNodeDuplicate(t *testing.T) {
	g := New()
	mustAdd(t, g, "a")
	err := g.AddNode("a", attrs.Set{})
	if !errors.Is(err, ErrDuplicateNode) {
		t.Errorf("duplicate add: err = %v, want ErrDuplicateNode", err)
	}
}

func TestAddNodeEmptyID(t *testing.T) {
	g := New()
	if err := g.AddNode("", attrs.Set{}); err == nil {
		t.Error("AddNode(\"\") succeeded, want error")
	}
}

func TestRemoveNodeCleansEdges(t *testing.T) {
	g := New()
	mustAdd(t, g, "a", "b", "c")
	mustEdge(t, g, "a", "b", 0.5)
	mustEdge(t, g, "c", "a", 0.2)
	if err := g.RemoveNode("a"); err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 2 || g.NumEdges() != 0 {
		t.Errorf("after remove: nodes=%d edges=%d, want 2, 0", g.NumNodes(), g.NumEdges())
	}
	if err := g.RemoveNode("a"); !errors.Is(err, ErrNoSuchNode) {
		t.Errorf("second remove err = %v, want ErrNoSuchNode", err)
	}
}

func TestSetEdgeValidation(t *testing.T) {
	g := New()
	mustAdd(t, g, "a", "b")
	tests := []struct {
		name     string
		from, to string
		w        float64
		wantErr  error
	}{
		{"self edge", "a", "a", 0.5, ErrSelfEdge},
		{"missing from", "x", "b", 0.5, ErrNoSuchNode},
		{"missing to", "a", "x", 0.5, ErrNoSuchNode},
		{"weight above 1", "a", "b", 1.5, ErrBadWeight},
		{"negative weight", "a", "b", -0.1, ErrBadWeight},
		{"NaN weight", "a", "b", math.NaN(), ErrBadWeight},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := g.SetEdge(tt.from, tt.to, tt.w); !errors.Is(err, tt.wantErr) {
				t.Errorf("err = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestInfluenceAndMutual(t *testing.T) {
	g := New()
	mustAdd(t, g, "p1", "p2")
	mustEdge(t, g, "p1", "p2", 0.7)
	mustEdge(t, g, "p2", "p1", 0.5)
	if got := g.Influence("p1", "p2"); got != 0.7 {
		t.Errorf("Influence(p1,p2) = %g, want 0.7", got)
	}
	if got := g.MutualInfluence("p1", "p2"); math.Abs(got-1.2) > 1e-12 {
		t.Errorf("MutualInfluence = %g, want 1.2", got)
	}
	// Asymmetry: influence need not be symmetric (§3.4.1).
	if g.Influence("p1", "p2") == g.Influence("p2", "p1") {
		t.Error("test fixture should be asymmetric")
	}
	if got := g.Influence("p1", "missing"); got != 0 {
		t.Errorf("Influence to missing node = %g, want 0", got)
	}
}

func TestReplicaEdges(t *testing.T) {
	g := New()
	mustAdd(t, g, "p1a", "p1b", "p2")
	if err := g.AddReplicaEdge("p1a", "p1b"); err != nil {
		t.Fatal(err)
	}
	if !g.AreReplicas("p1a", "p1b") || !g.AreReplicas("p1b", "p1a") {
		t.Error("replica edge not symmetric")
	}
	if g.AreReplicas("p1a", "p2") {
		t.Error("non-replica pair reported as replicas")
	}
	if w := g.Influence("p1a", "p1b"); w != 0 {
		t.Errorf("replica edge weight = %g, want 0", w)
	}
}

func TestEdgeLabel(t *testing.T) {
	e := Edge{Factors: []string{"shared-memory", "timing"}}
	if got := e.Label(); got != "(shared-memory,timing)" {
		t.Errorf("Label = %q", got)
	}
	if got := (Edge{}).Label(); got != "" {
		t.Errorf("empty Label = %q", got)
	}
}

func TestNodesSortedDeterministic(t *testing.T) {
	g := New()
	mustAdd(t, g, "p3", "p1", "p2")
	got := g.Nodes()
	want := []string{"p1", "p2", "p3"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Nodes() = %v, want %v", got, want)
		}
	}
}

func TestOutInEdgesSorted(t *testing.T) {
	g := New()
	mustAdd(t, g, "a", "b", "c", "d")
	mustEdge(t, g, "a", "d", 0.1)
	mustEdge(t, g, "a", "b", 0.2)
	mustEdge(t, g, "a", "c", 0.3)
	mustEdge(t, g, "b", "d", 0.4)
	out := g.OutEdges("a")
	if len(out) != 3 || out[0].To != "b" || out[1].To != "c" || out[2].To != "d" {
		t.Errorf("OutEdges order wrong: %+v", out)
	}
	in := g.InEdges("d")
	if len(in) != 2 || in[0].From != "a" || in[1].From != "b" {
		t.Errorf("InEdges order wrong: %+v", in)
	}
	if n := g.NumEdges(); n != 4 {
		t.Errorf("NumEdges = %d, want 4", n)
	}
}

func TestCloneIndependent(t *testing.T) {
	g := New()
	mustAdd(t, g, "a", "b")
	mustEdge(t, g, "a", "b", 0.5, "globals")
	c := g.Clone()
	c.RemoveEdge("a", "b")
	if _, ok := g.EdgeBetween("a", "b"); !ok {
		t.Error("Clone shares edge storage")
	}
	if err := c.AddNode("z", attrs.Set{}); err != nil {
		t.Fatal(err)
	}
	if g.HasNode("z") {
		t.Error("Clone shares node storage")
	}
}

func TestMatrix(t *testing.T) {
	g := New()
	mustAdd(t, g, "a", "b", "c")
	mustEdge(t, g, "a", "b", 0.5)
	mustEdge(t, g, "b", "c", 0.3)
	if err := g.AddReplicaEdge("a", "c"); err != nil {
		t.Fatal(err)
	}
	p, ids := g.Matrix()
	if len(ids) != 3 || ids[0] != "a" {
		t.Fatalf("ids = %v", ids)
	}
	if p[0][1] != 0.5 || p[1][2] != 0.3 {
		t.Errorf("matrix values wrong: %v", p)
	}
	if p[0][2] != 0 {
		t.Errorf("replica edge leaked into matrix: %g", p[0][2])
	}
}

func TestReachable(t *testing.T) {
	g := New()
	mustAdd(t, g, "a", "b", "c", "d", "e")
	mustEdge(t, g, "a", "b", 0.5)
	mustEdge(t, g, "b", "c", 0.3)
	mustEdge(t, g, "d", "e", 0.2)
	if err := g.AddReplicaEdge("c", "d"); err != nil {
		t.Fatal(err)
	}
	r := g.Reachable("a")
	for _, want := range []string{"a", "b", "c"} {
		if !r[want] {
			t.Errorf("%s not reachable", want)
		}
	}
	// Replica edges do not transmit influence.
	if r["d"] || r["e"] {
		t.Error("reachability crossed a replica edge")
	}
	if len(g.Reachable("missing")) != 0 {
		t.Error("Reachable from missing node should be empty")
	}
}

func TestStringRendering(t *testing.T) {
	g := New()
	if err := g.AddNode("a", attrs.New(map[attrs.Kind]float64{attrs.Criticality: 5})); err != nil {
		t.Fatal(err)
	}
	mustAdd(t, g, "b")
	mustEdge(t, g, "a", "b", 0.5, "globals")
	s := g.String()
	want := "a [C=5]\n  -> b 0.5(globals)\nb []\n"
	if s != want {
		t.Errorf("String() = %q, want %q", s, want)
	}
}

// --- Contract ---

func eq4(ws []float64) float64 {
	prod := 1.0
	for _, w := range ws {
		prod *= 1 - w
	}
	return 1 - prod
}

func fig2Graph(t *testing.T) *Graph {
	// Fig. 2 of the paper: nodes 1..7; nodes 1-4 are combined; the
	// influences of nodes 2 and 4 on node 6 must be combined.
	t.Helper()
	g := New()
	mustAdd(t, g, "n1", "n2", "n3", "n4", "n5", "n6", "n7")
	mustEdge(t, g, "n1", "n2", 0.4)
	mustEdge(t, g, "n2", "n3", 0.3)
	mustEdge(t, g, "n3", "n4", 0.2)
	mustEdge(t, g, "n2", "n6", 0.3)
	mustEdge(t, g, "n4", "n6", 0.1)
	mustEdge(t, g, "n4", "n5", 0.25)
	mustEdge(t, g, "n7", "n1", 0.15)
	return g
}

func TestContractFig2(t *testing.T) {
	g := fig2Graph(t)
	id, err := g.Contract([]string{"n1", "n2", "n3", "n4"}, eq4)
	if err != nil {
		t.Fatal(err)
	}
	if id != "{n1,n2,n3,n4}" {
		t.Errorf("cluster id = %q", id)
	}
	if g.NumNodes() != 4 {
		t.Errorf("nodes after contract = %d, want 4", g.NumNodes())
	}
	// Internal influences disappear; combined influence on n6 per Eq. (4):
	// 1-(1-0.3)(1-0.1) = 0.37. This is the exact value surviving in Fig. 5.
	got := g.Influence(id, "n6")
	if math.Abs(got-0.37) > 1e-12 {
		t.Errorf("cluster->n6 = %g, want 0.37", got)
	}
	if got := g.Influence(id, "n5"); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("cluster->n5 = %g, want 0.25", got)
	}
	if got := g.Influence("n7", id); math.Abs(got-0.15) > 1e-12 {
		t.Errorf("n7->cluster = %g, want 0.15", got)
	}
}

func TestContractMergesFactors(t *testing.T) {
	g := New()
	mustAdd(t, g, "a", "b", "t")
	mustEdge(t, g, "a", "t", 0.3, "globals")
	mustEdge(t, g, "b", "t", 0.1, "timing")
	id, err := g.Contract([]string{"a", "b"}, eq4)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := g.EdgeBetween(id, "t")
	if !ok {
		t.Fatal("no combined edge")
	}
	if e.Label() != "(globals,timing)" {
		t.Errorf("combined label = %q", e.Label())
	}
}

func TestContractRejectsReplicaPair(t *testing.T) {
	g := New()
	mustAdd(t, g, "p1a", "p1b")
	if err := g.AddReplicaEdge("p1a", "p1b"); err != nil {
		t.Fatal(err)
	}
	_, err := g.Contract([]string{"p1a", "p1b"}, eq4)
	if !errors.Is(err, ErrReplicaConflict) {
		t.Errorf("err = %v, want ErrReplicaConflict", err)
	}
}

func TestContractReplicaEdgeAbsorbing(t *testing.T) {
	// §5.2: "if any of the component nodes had an influence of 0 [replica
	// edge] on the neighbor, then the final value is also 0".
	g := New()
	mustAdd(t, g, "p1a", "p1b", "x")
	if err := g.AddReplicaEdge("p1a", "p1b"); err != nil {
		t.Fatal(err)
	}
	mustEdge(t, g, "x", "p1b", 0.9)
	id, err := g.Contract([]string{"p1a", "x"}, eq4)
	if err != nil {
		t.Fatal(err)
	}
	if !g.AreReplicas(id, "p1b") {
		t.Error("cluster should inherit the replica constraint against p1b")
	}
	// The weighted x->p1b edge must not override the replica marker.
	if w := g.Influence(id, "p1b"); w != 0 {
		t.Errorf("influence across inherited replica edge = %g, want 0", w)
	}
}

func TestContractAttributesCombined(t *testing.T) {
	g := New()
	if err := g.AddNode("a", attrs.Timing(15, 3, 0, 20, 5)); err != nil {
		t.Fatal(err)
	}
	if err := g.AddNode("b", attrs.Timing(10, 2, 8, 16, 5)); err != nil {
		t.Fatal(err)
	}
	id, err := g.Contract([]string{"a", "b"}, eq4)
	if err != nil {
		t.Fatal(err)
	}
	a := g.Attrs(id)
	if a.Value(attrs.Criticality) != 15 || a.Value(attrs.Deadline) != 16 ||
		a.Value(attrs.ComputeTime) != 10 {
		t.Errorf("cluster attrs = %s", a)
	}
}

func TestContractErrors(t *testing.T) {
	g := New()
	mustAdd(t, g, "a")
	if _, err := g.Contract(nil, eq4); err == nil {
		t.Error("empty contract succeeded")
	}
	if _, err := g.Contract([]string{"a", "a"}, eq4); err == nil {
		t.Error("duplicate member accepted")
	}
	if _, err := g.Contract([]string{"zz"}, eq4); !errors.Is(err, ErrNoSuchNode) {
		t.Errorf("unknown member err = %v", err)
	}
}

// TestContractRejectsNaNCombinedWeight: a combine function that returns
// NaN must fail the range check like any other out-of-range weight, and
// the failed Contract must leave the node and edge sets as they were.
func TestContractRejectsNaNCombinedWeight(t *testing.T) {
	g := New()
	mustAdd(t, g, "a", "b", "c")
	mustEdge(t, g, "a", "c", 0.5)
	nodes, edges := g.Nodes(), g.Edges()
	nan := func([]float64) float64 { return math.NaN() }
	if _, err := g.Contract([]string{"a", "b"}, nan); !errors.Is(err, ErrBadWeight) {
		t.Fatalf("Contract with a NaN combine: err = %v, want ErrBadWeight", err)
	}
	if got := g.Nodes(); !reflect.DeepEqual(got, nodes) {
		t.Errorf("nodes after failed Contract = %v, want %v", got, nodes)
	}
	if got := g.Edges(); !reflect.DeepEqual(got, edges) {
		t.Errorf("edges after failed Contract = %v, want %v", got, edges)
	}
}

func TestContractFlattensNestedClusters(t *testing.T) {
	g := New()
	mustAdd(t, g, "a", "b", "c")
	id1, err := g.Contract([]string{"a", "b"}, eq4)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := g.Contract([]string{id1, "c"}, eq4)
	if err != nil {
		t.Fatal(err)
	}
	if id2 != "{a,b,c}" {
		t.Errorf("nested cluster id = %q, want {a,b,c}", id2)
	}
}

func TestMembersRoundTrip(t *testing.T) {
	tests := []struct {
		id   string
		want []string
	}{
		{"p1", []string{"p1"}},
		{"{a,b}", []string{"a", "b"}},
		{"{}", nil},
		{"{a}", []string{"a"}},
		{"{a,b,c}", []string{"a", "b", "c"}},
		{"{a", []string{"{a"}},
	}
	for _, tt := range tests {
		got := Members(tt.id)
		if len(got) != len(tt.want) {
			t.Errorf("Members(%q) = %v, want %v", tt.id, got, tt.want)
			continue
		}
		for i := range got {
			if got[i] != tt.want[i] {
				t.Errorf("Members(%q) = %v, want %v", tt.id, got, tt.want)
			}
		}
		if app := AppendMembers([]string{"x"}, tt.id); !slices.Equal(app, append([]string{"x"}, tt.want...)) {
			t.Errorf("AppendMembers(x, %q) = %v, want x then %v", tt.id, app, tt.want)
		}
		// The result is presized: one allocation, however many members.
		allocs := testing.AllocsPerRun(20, func() { Members(tt.id) })
		if want := float64(min(len(tt.want), 1)); allocs != want {
			t.Errorf("Members(%q) allocates %v times, want %v", tt.id, allocs, want)
		}
	}
}

func TestClusterIDSorted(t *testing.T) {
	if id := ClusterID([]string{"b", "a"}); id != "{a,b}" {
		t.Errorf("ClusterID = %q, want {a,b}", id)
	}
}

// --- Cuts ---

func TestGlobalMinCutTwoClusters(t *testing.T) {
	g := New()
	mustAdd(t, g, "a1", "a2", "b1", "b2")
	mustEdge(t, g, "a1", "a2", 0.9)
	mustEdge(t, g, "a2", "a1", 0.9)
	mustEdge(t, g, "b1", "b2", 0.8)
	mustEdge(t, g, "b2", "b1", 0.8)
	mustEdge(t, g, "a1", "b1", 0.05)
	cut, err := g.GlobalMinCut()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cut.Weight-0.05) > 1e-12 {
		t.Errorf("cut weight = %g, want 0.05", cut.Weight)
	}
	sides := map[string]int{}
	for _, id := range cut.S {
		sides[id] = 1
	}
	for _, id := range cut.T {
		sides[id] = 2
	}
	if sides["a1"] != sides["a2"] || sides["b1"] != sides["b2"] || sides["a1"] == sides["b1"] {
		t.Errorf("cut sides wrong: S=%v T=%v", cut.S, cut.T)
	}
}

func TestGlobalMinCutTooSmall(t *testing.T) {
	g := New()
	mustAdd(t, g, "only")
	if _, err := g.GlobalMinCut(); !errors.Is(err, ErrTooSmall) {
		t.Errorf("err = %v, want ErrTooSmall", err)
	}
}

func TestGlobalMinCutDisconnected(t *testing.T) {
	g := New()
	mustAdd(t, g, "a", "b")
	cut, err := g.GlobalMinCut()
	if err != nil {
		t.Fatal(err)
	}
	if cut.Weight != 0 {
		t.Errorf("disconnected cut weight = %g, want 0", cut.Weight)
	}
}

func TestMinCutSTMatchesBottleneck(t *testing.T) {
	// Path a - b - c with a weak middle link: min s-t cut is the weak link.
	g := New()
	mustAdd(t, g, "a", "b", "c")
	mustEdge(t, g, "a", "b", 0.9)
	mustEdge(t, g, "b", "c", 0.1)
	cut, err := g.MinCutST("a", "c")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cut.Weight-0.1) > 1e-9 {
		t.Errorf("s-t cut weight = %g, want 0.1", cut.Weight)
	}
	inS := map[string]bool{}
	for _, id := range cut.S {
		inS[id] = true
	}
	if !inS["a"] || !inS["b"] || inS["c"] {
		t.Errorf("cut sides: S=%v T=%v", cut.S, cut.T)
	}
}

func TestMinCutSTErrors(t *testing.T) {
	g := New()
	mustAdd(t, g, "a", "b")
	if _, err := g.MinCutST("a", "a"); !errors.Is(err, ErrSelfEdge) {
		t.Errorf("self cut err = %v", err)
	}
	if _, err := g.MinCutST("a", "zz"); !errors.Is(err, ErrNoSuchNode) {
		t.Errorf("missing node err = %v", err)
	}
}

func TestCrossAndInternalWeight(t *testing.T) {
	g := New()
	mustAdd(t, g, "a", "b", "c", "d")
	mustEdge(t, g, "a", "b", 0.5)
	mustEdge(t, g, "c", "d", 0.4)
	mustEdge(t, g, "a", "c", 0.3)
	mustEdge(t, g, "d", "b", 0.2)
	part := [][]string{{"a", "b"}, {"c", "d"}}
	if got := g.CrossWeight(part); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("CrossWeight = %g, want 0.5", got)
	}
	if got := g.InternalWeight(part); math.Abs(got-0.9) > 1e-12 {
		t.Errorf("InternalWeight = %g, want 0.9", got)
	}
}

func TestCrossPlusInternalIsTotal(t *testing.T) {
	// Property: for any bipartition covering all nodes, cross + internal
	// equals the total edge weight.
	f := func(seed uint8) bool {
		g := New()
		ids := []string{"a", "b", "c", "d", "e"}
		for _, id := range ids {
			if err := g.AddNode(id, attrs.Set{}); err != nil {
				return false
			}
		}
		// Deterministic pseudo-random edges from the seed.
		s := uint32(seed) + 1
		next := func() float64 {
			s = s*1664525 + 1013904223
			return float64(s%1000) / 1000
		}
		total := 0.0
		for i, from := range ids {
			for j, to := range ids {
				if i == j {
					continue
				}
				w := next()
				if w > 0.5 {
					continue
				}
				if err := g.SetEdge(from, to, w); err != nil {
					return false
				}
				total += w
			}
		}
		part := [][]string{{"a", "b"}, {"c", "d", "e"}}
		sum := g.CrossWeight(part) + g.InternalWeight(part)
		return math.Abs(sum-total) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGlobalMinCutSeparatesReplicas(t *testing.T) {
	// Replica edges have weight zero, so a min cut will happily split them.
	g := New()
	mustAdd(t, g, "p1a", "p1b")
	if err := g.AddReplicaEdge("p1a", "p1b"); err != nil {
		t.Fatal(err)
	}
	cut, err := g.GlobalMinCut()
	if err != nil {
		t.Fatal(err)
	}
	if cut.Weight != 0 {
		t.Errorf("replica pair cut weight = %g, want 0", cut.Weight)
	}
	if len(cut.S) != 1 || len(cut.T) != 1 {
		t.Errorf("cut sides: %v | %v", cut.S, cut.T)
	}
}

func TestCrossWeightSumsInEdgeOrder(t *testing.T) {
	// One heavy cross edge and many tiny ones: adding the tiny ones to
	// 1 first loses them, adding them to each other first keeps them, so
	// the sum depends on the order of the additions.
	g := New()
	mustAdd(t, g, "a", "b", "c", "d", "e", "f", "g", "h")
	mustEdge(t, g, "a", "e", 1)
	for _, from := range []string{"b", "c", "d"} {
		for _, to := range []string{"e", "f", "g", "h"} {
			mustEdge(t, g, from, to, 1e-16)
		}
	}
	part := [][]string{{"a", "b", "c", "d"}, {"e", "f", "g", "h"}}
	inEdgeOrder, reversed := 0.0, 0.0
	es := g.Edges()
	for _, e := range es {
		inEdgeOrder += e.Weight
	}
	for i := len(es) - 1; i >= 0; i-- {
		reversed += es[i].Weight
	}
	if inEdgeOrder == reversed {
		t.Fatal("fixture weights do not make the sum order-dependent")
	}
	c := g.Clone()
	for i := 0; i < 100; i++ {
		for _, h := range []*Graph{g, c} {
			if got := h.CrossWeight(part); math.Float64bits(got) != math.Float64bits(inEdgeOrder) {
				t.Fatalf("call %d: CrossWeight = %v, want %v (Edges() order)", i, got, inEdgeOrder)
			}
			if got := h.InternalWeight([][]string{{"a", "b", "c", "d", "e", "f", "g", "h"}}); math.Float64bits(got) != math.Float64bits(inEdgeOrder) {
				t.Fatalf("call %d: InternalWeight = %v, want %v (Edges() order)", i, got, inEdgeOrder)
			}
		}
	}
}

// allocGraph builds a 60-node graph with timing attributes, factor-labelled
// edges (unsorted and repeated lists among them) and replica links between
// nodes i and i+30.
func allocGraph(t *testing.T) *Graph {
	t.Helper()
	g := New()
	for i := 0; i < 60; i++ {
		if err := g.AddNode(fmt.Sprintf("n%02d", i), attrs.Timing(float64(i%7), 1+i%3, float64(i%5), float64(40+i%9), 1)); err != nil {
			t.Fatal(err)
		}
	}
	factors := [][]string{{"message"}, {"timing", "message"}, {"shared-memory", "timing"}, {"message", "message"}}
	s := uint32(7)
	for i := 0; i < 60; i++ {
		for k := 0; k < 4; k++ {
			s = s*1664525 + 1013904223
			j := int(s>>8) % 60
			if j == i || j == i+30 || i == j+30 {
				continue
			}
			mustEdge(t, g, fmt.Sprintf("n%02d", i), fmt.Sprintf("n%02d", j), float64(s>>16%1000)/1000, factors[(i+k)%4]...)
		}
		if i < 30 {
			if err := g.AddReplicaEdge(fmt.Sprintf("n%02d", i), fmt.Sprintf("n%02d", i+30)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return g
}

func TestContractAllocsSteadyState(t *testing.T) {
	g := allocGraph(t)
	var pairs [][]string
	for i := 0; i < 60; i += 2 {
		pairs = append(pairs, []string{fmt.Sprintf("n%02d", i), fmt.Sprintf("n%02d", i+1)})
	}
	next := 0
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := g.Contract(pairs[next], eq4); err != nil {
			t.Fatal(err)
		}
		next++
	})
	// The cluster id string, and now and then a row that outgrows the
	// larger of its members' rows.
	if allocs > 2 {
		t.Errorf("Contract made %.1f allocations per call, want at most 2", allocs)
	}
}

// TestMinCutAllocsConstant pins the min-cuts' allocations to a count that
// does not grow with the graph: Stoer–Wagner runs n−1 phases and
// Edmonds–Karp one BFS per augmenting path, all on buffers allocated once
// per cut. The count is the matrix and its rows, the slot order and
// ranks, the cut's buffers and its two sides as indices and as names.
func TestMinCutAllocsConstant(t *testing.T) {
	const bound = 16
	small, large := New(), allocGraph(t)
	mustAdd(t, small, "a", "b", "c", "d")
	mustEdge(t, small, "a", "b", 0.5)
	mustEdge(t, small, "c", "d", 0.25)
	mustEdge(t, small, "b", "c", 0.125)
	for _, tc := range []struct {
		name string
		g    *Graph
		s, t string
	}{{"4 nodes", small, "a", "d"}, {"60 nodes", large, "n00", "n59"}} {
		global := testing.AllocsPerRun(5, func() {
			if _, err := tc.g.GlobalMinCut(); err != nil {
				t.Fatal(err)
			}
		})
		st := testing.AllocsPerRun(5, func() {
			if _, err := tc.g.MinCutST(tc.s, tc.t); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: GlobalMinCut %.0f, MinCutST %.0f allocations", tc.name, global, st)
		if global > bound || st > bound {
			t.Errorf("%s: GlobalMinCut made %.0f and MinCutST %.0f allocations, want at most %d each", tc.name, global, st, bound)
		}
	}
}

// TestMutualRowSymmetricBits checks the fact H1's pair table relies on to
// read each pair's mutual influence from either slot's row: for every
// two live slots s and x, MutualRow(s)[x] and MutualRow(x)[s] are the same
// float64 bit for bit. Random graphs carry −0, subnormal, 1.0 and other
// weights and replica edges, and are checked before and after each of a
// series of random ContractSlots calls, which combine weights by Eq. (4)
// or keep the last member's weight, so −0 and subnormals survive merges.
func TestMutualRowSymmetricBits(t *testing.T) {
	weights := []float64{math.Copysign(0, -1), math.SmallestNonzeroFloat64, 0x1p-1030, 1, 0.5, 0.1, 0.3}
	keepLast := func(ws []float64) float64 { return ws[len(ws)-1] }
	rng := rand.New(rand.NewPCG(1998, 7))
	pairs := 0
	check := func(g *Graph, label string) {
		t.Helper()
		rs, rx := make([]float64, g.NumSlots()), make([]float64, g.NumSlots())
		order := g.SlotsByName()
		for i, s := range order {
			g.MutualRow(s, rs)
			for _, x := range order[i+1:] {
				g.MutualRow(x, rx)
				if math.Float64bits(rs[x]) != math.Float64bits(rx[s]) {
					t.Fatalf("%s: MutualRow(%s)[%s] = %v (%#x), MutualRow(%s)[%s] = %v (%#x)", label,
						g.Name(s), g.Name(x), rs[x], math.Float64bits(rs[x]),
						g.Name(x), g.Name(s), rx[s], math.Float64bits(rx[s]))
				}
				pairs++
			}
		}
	}
	for round := 0; round < 60; round++ {
		g := New()
		n := 2 + rng.IntN(14)
		name := func(i int) string { return fmt.Sprintf("n%02d", i) }
		for i := 0; i < n; i++ {
			mustAdd(t, g, name(i))
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				switch k := rng.IntN(10); {
				case i == j || k > 4:
				case k == 0:
					if err := g.AddReplicaEdge(name(i), name(j)); err != nil {
						t.Fatal(err)
					}
				case k == 1:
					mustEdge(t, g, name(i), name(j), rng.Float64())
				default:
					mustEdge(t, g, name(i), name(j), weights[rng.IntN(len(weights))])
				}
			}
		}
		check(g, fmt.Sprintf("round %d", round))
		for step := 0; g.NumNodes() > 1; step++ {
			live := g.SlotsByName()
			rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
			members := live[:min(len(live), 2+rng.IntN(2))]
			combine := CombineWeights(eq4)
			if rng.IntN(2) == 0 {
				combine = keepLast
			}
			if _, err := g.ContractSlots(members, combine); err != nil {
				if !errors.Is(err, ErrReplicaConflict) {
					t.Fatal(err)
				}
				if step > 4*n {
					break // only replica pairs are left to try
				}
				continue
			}
			check(g, fmt.Sprintf("round %d, step %d", round, step))
		}
	}
	t.Logf("%d pairs checked", pairs)
}
