package graph

import (
	"errors"
	"math"
	"slices"
)

// ErrTooSmall is returned by cut algorithms on graphs with < 2 nodes.
var ErrTooSmall = errors.New("graph: cut requires at least two nodes")

// Cut is the result of a minimum-cut computation: a bipartition of the
// node set and the total symmetrized influence weight crossing it.
type Cut struct {
	// S and T are the two sides, each sorted.
	S, T []string
	// Weight is the sum of mutual influence across the cut.
	Weight float64
}

// GlobalMinCut computes a global minimum cut of the graph's *symmetrized*
// influence (mutual influence between each pair), using the Stoer–Wagner
// algorithm. This implements heuristic H2's primitive: "Find the min-cut of
// the graph. Divide the graph into two parts along the cut." (§5.4)
//
// Replica edges carry weight 0 and therefore never hold a cut together —
// replicas naturally fall on opposite sides, as the paper requires.
func (g *Graph) GlobalMinCut() (Cut, error) {
	if g.NumNodes() < 2 {
		return Cut{}, ErrTooSmall
	}
	w, slots := g.MutualMatrix()
	s, t, weight := GlobalMinCutMatrix(w)
	return Cut{S: g.namesOf(slots, s), T: g.namesOf(slots, t), Weight: weight}, nil
}

// GlobalMinCutMatrix is GlobalMinCut on a symmetric weight matrix with at
// least two rows, which it overwrites: it returns the two sides as
// ascending row indices and the weight crossing the cut. Phases pick the
// most tightly connected vertex next, ties to the lowest index, and the
// first phase reaching the minimum wins.
func GlobalMinCutMatrix(w [][]float64) (s, t []int, weight float64) {
	n := len(w)
	// active lists the supernodes still in play, ascending; owner[v] is
	// the supernode holding vertex v, and inT marks the T side of the best
	// cut so far.
	active := make([]int, n)
	owner := make([]int, n)
	for i := range active {
		active[i], owner[i] = i, i
	}
	// rem lists, ascending, the active vertices a phase has not added yet.
	rem := make([]int, 0, n)
	weightTo := make([]float64, n)
	inT := make([]bool, n)
	weight = math.Inf(1)
	for len(active) > 1 {
		// Minimum cut phase: maximum adjacency ordering from active[0].
		// Each step adds the vertex rem[next] and, in the same pass over
		// the rest of rem, adds its row into weightTo and finds the next
		// maximum, ties to the lowest index.
		a := active[0]
		rem = append(rem[:0], active[1:]...)
		next := 0
		for i, v := range rem {
			weightTo[v] = w[a][v]
			if weightTo[v] > weightTo[rem[next]] {
				next = i
			}
		}
		ps, pt := -1, a
		for len(rem) > 0 {
			ps, pt = pt, rem[next]
			rem = append(rem[:next], rem[next+1:]...)
			row := w[pt]
			next = 0
			for i, v := range rem {
				weightTo[v] += row[v]
				if weightTo[v] > weightTo[rem[next]] {
					next = i
				}
			}
		}
		cutOfPhase := 0.0
		for _, v := range active {
			if v != pt {
				cutOfPhase += w[pt][v]
			}
		}
		if cutOfPhase < weight {
			weight = cutOfPhase
			for v, o := range owner {
				inT[v] = o == pt
			}
		}
		// Merge pt into ps.
		for _, v := range active {
			if v != ps && v != pt {
				w[ps][v] += w[pt][v]
				w[v][ps] = w[ps][v]
			}
		}
		for v, o := range owner {
			if o == pt {
				owner[v] = ps
			}
		}
		active = slices.DeleteFunc(active, func(v int) bool { return v == pt })
	}
	s, t = cutSides(inT)
	return s, t, weight
}

// cutSides returns the indices of inT that are false (s) and true (t),
// each ascending.
func cutSides(inT []bool) (s, t []int) {
	nT := 0
	for _, x := range inT {
		if x {
			nT++
		}
	}
	s, t = make([]int, 0, len(inT)-nT), make([]int, 0, nT)
	for v, x := range inT {
		if x {
			t = append(t, v)
		} else {
			s = append(s, v)
		}
	}
	return s, t
}

// MinCutST computes a minimum s–t cut of the symmetrized influence using
// Edmonds–Karp max-flow (H2 variant: "cut the graph using source and target
// nodes"). The returned cut places s in S and t in T.
func (g *Graph) MinCutST(s, t string) (Cut, error) {
	if !g.HasNode(s) || !g.HasNode(t) {
		return Cut{}, ErrNoSuchNode
	}
	if s == t {
		return Cut{}, ErrSelfEdge
	}
	capM, slots := g.MutualMatrix()
	si := slices.Index(slots, g.index[s])
	ti := slices.Index(slots, g.index[t])
	sSide, tSide, flow := MinCutSTMatrix(capM, si, ti)
	return Cut{S: g.namesOf(slots, sSide), T: g.namesOf(slots, tSide), Weight: flow}, nil
}

// MinCutSTMatrix is MinCutST on a symmetric capacity matrix and two
// distinct row indices: it returns the side of s (the vertices reachable
// from s in the residual graph) and the side of t as ascending indices, and
// the maximum flow. It overwrites capM with the residual capacities.
func MinCutSTMatrix(capM [][]float64, s, t int) (sSide, tSide []int, flow float64) {
	n := len(capM)
	const eps = 1e-12
	parent := make([]int, n)
	queue := make([]int, 0, n)
	for {
		// BFS for an augmenting path in the residual graph. When none is
		// left, the BFS has run to exhaustion and parent marks the
		// residual reach of s.
		for i := range parent {
			parent[i] = -1
		}
		parent[s] = s
		queue = append(queue[:0], s)
		for head := 0; head < len(queue) && parent[t] == -1; head++ {
			u := queue[head]
			for v := 0; v < n; v++ {
				if parent[v] == -1 && capM[u][v] > eps {
					parent[v] = u
					queue = append(queue, v)
				}
			}
		}
		if parent[t] == -1 {
			break
		}
		bottleneck := math.Inf(1)
		for v := t; v != s; v = parent[v] {
			bottleneck = math.Min(bottleneck, capM[parent[v]][v])
		}
		for v := t; v != s; v = parent[v] {
			capM[parent[v]][v] -= bottleneck
			capM[v][parent[v]] += bottleneck
		}
		flow += bottleneck
	}
	inT := make([]bool, n)
	for v, p := range parent {
		inT[v] = p == -1
	}
	sSide, tSide = cutSides(inT)
	return sSide, tSide, flow
}

// MutualMatrix returns the symmetrized influence matrix over the live
// nodes in id order — w[i][j] is the sum of the influences between the
// i-th and j-th nodes, replica edges excluded — and the slot of each node.
// Each entry sums at most two arcs, so it equals MutualInfluence bit for
// bit, and the matrix of an induced subgraph is the restriction of this
// one.
func (g *Graph) MutualMatrix() ([][]float64, []int) {
	slots := g.SlotsByName()
	n := len(slots)
	rank := make([]int, len(g.names))
	for i, s := range slots {
		rank[s] = i
	}
	w := make([][]float64, n)
	backing := make([]float64, n*n)
	for i := range w {
		w[i] = backing[i*n : (i+1)*n]
	}
	for s, row := range g.out {
		for _, a := range row {
			if a.replica {
				continue
			}
			i, j := rank[s], rank[a.peer]
			w[i][j] += a.w
			w[j][i] += a.w
		}
	}
	return w, slots
}

// namesOf returns the node ids of slots[i] for each index i in idx.
func (g *Graph) namesOf(slots, idx []int) []string {
	out := make([]string, len(idx))
	for k, i := range idx {
		out[k] = g.names[slots[i]]
	}
	return out
}

// CrossWeight sums the directed influence of every edge whose endpoints lie
// in different groups of the given partition. It is the containment metric
// of §5.3: the residual influence not contained within any one HW node.
// Edges are summed in Edges() order, so the result is the same bits on
// every call and on every clone.
func (g *Graph) CrossWeight(partition [][]string) float64 {
	return g.partitionWeight(partition, false)
}

// InternalWeight sums the directed influence contained inside the groups of
// the partition (the complement of CrossWeight over covered nodes), in
// Edges() order.
func (g *Graph) InternalWeight(partition [][]string) float64 {
	return g.partitionWeight(partition, true)
}

// partitionWeight sums the weighted edges whose endpoints are both covered
// by the partition and lie in the same group (internal) or in different
// groups (!internal).
func (g *Graph) partitionWeight(partition [][]string, internal bool) float64 {
	groupOf := make([]int, len(g.names))
	for i := range groupOf {
		groupOf[i] = -1
	}
	for gi, grp := range partition {
		for _, id := range grp {
			if s, ok := g.index[id]; ok {
				groupOf[s] = gi
			}
		}
	}
	total := 0.0
	g.eachEdge(func(s int, a arc) {
		gf, gt := groupOf[s], groupOf[a.peer]
		if !a.replica && gf >= 0 && gt >= 0 && (gf == gt) == internal {
			total += a.w
		}
	})
	return total
}
