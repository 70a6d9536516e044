package influence

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/attrs"
	"repro/internal/graph"
)

// randomScriptGraph builds a graph from a seeded script of node adds,
// SetEdge calls (zero, tied and random weights), replica links, edge and
// node removals and Contract calls, so the result holds clusters, replica
// arcs, zero-weight arcs and freed (then reused) slots.
func randomScriptGraph(t *testing.T, pr *rand.Rand) *graph.Graph {
	t.Helper()
	g := graph.New()
	next := 0
	addNode := func() {
		if err := g.AddNode(fmt.Sprintf("n%02d", next), attrs.Set{}); err != nil {
			t.Fatal(err)
		}
		next++
	}
	for i := 0; i < 4+pr.IntN(8); i++ {
		addNode()
	}
	pick := func() string {
		ids := g.Nodes()
		return ids[pr.IntN(len(ids))]
	}
	for step := 0; step < 40+pr.IntN(60); step++ {
		if g.NumNodes() < 3 {
			addNode()
			continue
		}
		a, b := pick(), pick()
		if a == b {
			continue
		}
		switch op := pr.IntN(10); {
		case op < 4:
			w := pr.Float64()
			switch pr.IntN(4) {
			case 0:
				w = 0
			case 1:
				w = float64(pr.IntN(3)) / 2
			}
			if err := g.SetEdge(a, b, w, "f"); err != nil {
				t.Fatal(err)
			}
		case op == 4:
			if err := g.AddReplicaEdge(a, b); err != nil {
				t.Fatal(err)
			}
		case op == 5:
			g.RemoveEdge(a, b)
		case op == 6:
			if err := g.RemoveNode(a); err != nil {
				t.Fatal(err)
			}
			addNode()
		case op == 7:
			addNode()
		default:
			members := []string{a, b}
			if c := pick(); c != a && c != b && pr.IntN(2) == 0 {
				members = append(members, c)
			}
			// Contract refuses replicas of one module; the script
			// goes on with the graph as it is.
			g.Contract(members, MustCombine)
		}
	}
	return g
}

// TestGraphSeparationMatchesMatrix holds the graph-built Eq. (3) path to
// the dense one: on graphs left by random Contract/SetEdge scripts,
// Graph.SparseMatrix must hold exactly the entries newSparse keeps of
// Graph.Matrix, under the same ids, and SeparationSparse must equal
// SeparationMatrixWorkers over Matrix bit for bit at orders 1–9 with 1
// and 2 workers.
func TestGraphSeparationMatchesMatrix(t *testing.T) {
	var clusters, replicaArcs, zeroArcs, freedSlots int
	for seed := uint64(0); seed < 60; seed++ {
		pr := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
		g := randomScriptGraph(t, pr)
		p, ids := g.Matrix()
		for _, id := range ids {
			if len(graph.Members(id)) > 1 {
				clusters++
			}
		}
		for _, e := range g.Edges() {
			if e.Replica {
				replicaArcs++
			} else if e.Weight == 0 {
				zeroArcs++
			}
		}
		freedSlots += g.NumSlots() - g.NumNodes()
		m := g.SparseMatrix()
		if !reflect.DeepEqual(m.IDs, ids) {
			t.Fatalf("seed %d: SparseMatrix ids %v, Matrix ids %v", seed, m.IDs, ids)
		}
		dense, err := newSparse(p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(m.Start, dense.Start) || !reflect.DeepEqual(m.Ent, dense.Ent) {
			t.Fatalf("seed %d: SparseMatrix rows differ from Matrix's nonzeros:\n got %v %v\nwant %v %v",
				seed, m.Start, m.Ent, dense.Start, dense.Ent)
		}
		for order := 1; order <= 9; order++ {
			for _, workers := range []int{1, 2} {
				want, err := SeparationMatrixWorkers(nil, p, order, workers)
				if err != nil {
					t.Fatal(err)
				}
				got, err := SeparationSparse(nil, m, order, workers)
				if err != nil {
					t.Fatal(err)
				}
				for i := range want {
					for j := range want[i] {
						if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
							t.Fatalf("seed %d order %d workers %d: sep(%s,%s) = %v, dense path %v",
								seed, order, workers, ids[i], ids[j], got[i][j], want[i][j])
						}
					}
				}
			}
		}
	}
	if clusters == 0 || replicaArcs == 0 || zeroArcs == 0 || freedSlots == 0 {
		t.Errorf("scripts left %d clusters, %d replica arcs, %d zero-weight arcs, %d free slots; want each > 0",
			clusters, replicaArcs, zeroArcs, freedSlots)
	}
}

// TestSeparationSparseRejectsBadEntry: a NaN entry, which Graph.SetEdge
// refuses and so is planted in the rows directly, fails the sparse path
// with the error the dense path gives, naming the same entry.
func TestSeparationSparseRejectsBadEntry(t *testing.T) {
	nan := math.NaN()
	p := [][]float64{{0, 0.5, 0}, {0, 0, nan}, {nan, 0, 0}}
	m := graph.Sparse{
		IDs:   []string{"a", "b", "c"},
		Start: []int{0, 1, 2, 3},
		Ent:   []graph.Entry{{Col: 1, W: 0.5}, {Col: 2, W: nan}, {Col: 0, W: nan}},
	}
	_, want := SeparationMatrixWorkers(nil, p, 3, 1)
	_, got := SeparationSparse(nil, m, 3, 1)
	if want == nil || got == nil || got.Error() != want.Error() {
		t.Errorf("SeparationSparse error %v, dense path %v", got, want)
	}
}
