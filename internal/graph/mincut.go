package graph

import (
	"errors"
	"math"
	"slices"
	"sort"
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
	w, ids := g.symmetric()
	n := len(ids)

	// Stoer–Wagner with supernode tracking. members[i] lists the original
	// node indices currently merged into supernode i.
	active := make([]int, n)
	for i := range active {
		active[i] = i
	}
	members := make([][]int, n)
	for i := range members {
		members[i] = []int{i}
	}

	best := Cut{Weight: math.Inf(1)}
	for len(active) > 1 {
		// Minimum cut phase: maximum adjacency ordering.
		a := active[0]
		inA := map[int]bool{a: true}
		order := []int{a}
		weightTo := map[int]float64{}
		for _, v := range active {
			if v != a {
				weightTo[v] = w[a][v]
			}
		}
		for len(order) < len(active) {
			// pick most tightly connected vertex; break ties by index for
			// determinism.
			bestV, bestW := -1, math.Inf(-1)
			for _, v := range active {
				if inA[v] {
					continue
				}
				if weightTo[v] > bestW || (weightTo[v] == bestW && (bestV == -1 || v < bestV)) {
					bestV, bestW = v, weightTo[v]
				}
			}
			inA[bestV] = true
			order = append(order, bestV)
			for _, v := range active {
				if !inA[v] {
					weightTo[v] += w[bestV][v]
				}
			}
		}
		s, t := order[len(order)-2], order[len(order)-1]
		cutOfPhase := 0.0
		for _, v := range active {
			if v != t {
				cutOfPhase += w[t][v]
			}
		}
		if cutOfPhase < best.Weight {
			tSide := make([]string, 0, len(members[t]))
			for _, m := range members[t] {
				tSide = append(tSide, ids[m])
			}
			inT := map[string]bool{}
			for _, id := range tSide {
				inT[id] = true
			}
			sSide := make([]string, 0, n-len(tSide))
			for _, id := range ids {
				if !inT[id] {
					sSide = append(sSide, id)
				}
			}
			sort.Strings(sSide)
			sort.Strings(tSide)
			best = Cut{S: sSide, T: tSide, Weight: cutOfPhase}
		}
		// Merge t into s.
		members[s] = append(members[s], members[t]...)
		for _, v := range active {
			if v != s && v != t {
				w[s][v] += w[t][v]
				w[v][s] = w[s][v]
			}
		}
		next := active[:0]
		for _, v := range active {
			if v != t {
				next = append(next, v)
			}
		}
		active = next
	}
	return best, nil
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
	capM, ids := g.symmetric()
	n := len(ids)
	si, _ := slices.BinarySearch(ids, s)
	ti, _ := slices.BinarySearch(ids, t)
	flowTotal := 0.0
	const eps = 1e-12
	for {
		// BFS for an augmenting path in the residual graph.
		parent := make([]int, n)
		for i := range parent {
			parent[i] = -1
		}
		parent[si] = si
		queue := []int{si}
		for len(queue) > 0 && parent[ti] == -1 {
			u := queue[0]
			queue = queue[1:]
			for v := 0; v < n; v++ {
				if parent[v] == -1 && capM[u][v] > eps {
					parent[v] = u
					queue = append(queue, v)
				}
			}
		}
		if parent[ti] == -1 {
			break
		}
		// Bottleneck.
		bottleneck := math.Inf(1)
		for v := ti; v != si; v = parent[v] {
			bottleneck = math.Min(bottleneck, capM[parent[v]][v])
		}
		for v := ti; v != si; v = parent[v] {
			capM[parent[v]][v] -= bottleneck
			capM[v][parent[v]] += bottleneck
		}
		flowTotal += bottleneck
	}
	// S side = reachable in residual graph.
	inS := make([]bool, n)
	inS[si] = true
	queue := []int{si}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for v := 0; v < n; v++ {
			if !inS[v] && capM[u][v] > eps {
				inS[v] = true
				queue = append(queue, v)
			}
		}
	}
	var sSide, tSide []string
	for i, id := range ids {
		if inS[i] {
			sSide = append(sSide, id)
		} else {
			tSide = append(tSide, id)
		}
	}
	return Cut{S: sSide, T: tSide, Weight: flowTotal}, nil
}

// symmetric returns the symmetrized influence matrix (w[i][j] is the sum
// of the influences between nodes i and j, replica edges excluded) over the
// sorted node ids.
func (g *Graph) symmetric() ([][]float64, []string) {
	ids, rank := g.rankByName()
	n := len(ids)
	w := make([][]float64, n)
	for i := range w {
		w[i] = make([]float64, n)
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
	return w, ids
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
