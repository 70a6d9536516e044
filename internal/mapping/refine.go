package mapping

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/graph"
	"repro/internal/hw"
)

// Refine improves an assignment's communication dilation by local search,
// the post-pass §6 sketches: "If communication costs are high, then
// dilation of the mapping may be considered to address performance.
// Further heuristics can be used to map SW nodes with high communication
// costs onto (the same or) neighboring HW nodes."
//
// The search repeatedly evaluates two move kinds — swapping the HW nodes
// of two clusters, and relocating a cluster to a free node — and applies
// the best strict improvement to the dilation objective
// Σ influence(u→v)·distance(hw(u),hw(v)), until no move helps or maxMoves
// moves have been applied. Resource requirements are respected. The input
// assignment is not modified; the refined copy is returned with the number
// of moves applied. The search polls ctx before every move evaluation
// round (each round is an O(clusters² + clusters·free) sweep of candidate
// moves) and returns ctx.Err() when it fires.
func Refine(ctx context.Context, asg Assignment, g *graph.Graph, p *hw.Platform, req Requirements, maxMoves int) (Assignment, int, error) {
	if maxMoves <= 0 {
		maxMoves = 64
	}
	cur := make(Assignment, len(asg))
	for k, v := range asg {
		cur[k] = v
	}
	clusters := cur.Clusters()
	// Pairwise coupling between clusters: the summed weight of base-graph
	// edges between their member sets (the same accounting Evaluate's
	// CommCost uses), falling back to the cluster-level mutual influence
	// when g holds the cluster ids directly.
	clusterOf := map[string]string{}
	for _, c := range clusters {
		for _, m := range graph.Members(c) {
			clusterOf[m] = c
		}
	}
	coupling := map[[2]string]float64{}
	addCoupling := func(a, b string, w float64) {
		if b < a {
			a, b = b, a
		}
		coupling[[2]string{a, b}] += w
	}
	for _, e := range g.Edges() {
		if e.Replica {
			continue
		}
		ca, cb := clusterOf[e.From], clusterOf[e.To]
		if ca == "" || cb == "" || ca == cb {
			continue
		}
		addCoupling(ca, cb, e.Weight)
	}
	dist := func(a, b string) float64 {
		d, ok := p.Distance(a, b)
		if !ok {
			return float64(p.NumNodes())
		}
		return d
	}
	// Sum the cost over the coupled pairs in sorted order: ranging over the
	// coupling map would let map iteration perturb the last bits of equal
	// costs and flip which of two equally good moves wins between runs.
	pairs := make([][2]string, 0, len(coupling))
	for pair := range coupling {
		pairs = append(pairs, pair)
	}
	slices.SortFunc(pairs, func(x, y [2]string) int {
		return cmp.Or(strings.Compare(x[0], y[0]), strings.Compare(x[1], y[1]))
	})
	cost := func(a Assignment) float64 {
		total := 0.0
		for _, pair := range pairs {
			total += coupling[pair] * dist(a[pair[0]], a[pair[1]])
		}
		return total
	}
	fits := func(cluster, nodeName string) (bool, error) {
		node, err := p.Node(nodeName)
		if err != nil {
			return false, fmt.Errorf("mapping: refine: %w", err)
		}
		for _, res := range req.forCluster(cluster) {
			if !node.HasResource(res) {
				return false, nil
			}
		}
		return true, nil
	}

	used := map[string]bool{}
	for _, n := range cur {
		used[n] = true
	}
	var free []string
	for _, n := range p.Nodes() {
		if !used[n] {
			free = append(free, n)
		}
	}
	sort.Strings(free)

	moves := 0
	curCost := cost(cur)
	for moves < maxMoves {
		if err := ctx.Err(); err != nil {
			return nil, 0, fmt.Errorf("mapping: refine cancelled after %d moves: %w", moves, err)
		}
		bestDelta := -1e-12 // strict improvement required
		var apply func()
		// Swap moves.
		for i, a := range clusters {
			for _, b := range clusters[i+1:] {
				na, nb := cur[a], cur[b]
				if na == nb {
					continue
				}
				okA, err := fits(a, nb)
				if err != nil {
					return nil, 0, err
				}
				okB, err := fits(b, na)
				if err != nil {
					return nil, 0, err
				}
				if !okA || !okB {
					continue
				}
				trial := cloneAssignment(cur)
				trial[a], trial[b] = nb, na
				delta := cost(trial) - curCost
				if delta < bestDelta {
					bestDelta = delta
					aa, bb := a, b
					apply = func() { cur[aa], cur[bb] = cur[bb], cur[aa] }
				}
			}
		}
		// Relocation moves to free nodes.
		for _, a := range clusters {
			for _, dest := range free {
				ok, err := fits(a, dest)
				if err != nil {
					return nil, 0, err
				}
				if !ok || cur[a] == dest {
					continue
				}
				trial := cloneAssignment(cur)
				trial[a] = dest
				delta := cost(trial) - curCost
				if delta < bestDelta {
					bestDelta = delta
					aa, dd, src := a, dest, cur[a]
					apply = func() {
						cur[aa] = dd
						free = replaceFree(free, dd, src)
					}
				}
			}
		}
		if apply == nil {
			break
		}
		apply()
		curCost = cost(cur)
		moves++
	}
	return cur, moves, nil
}

func cloneAssignment(a Assignment) Assignment {
	out := make(Assignment, len(a))
	for k, v := range a {
		out[k] = v
	}
	return out
}

// replaceFree swaps dest out of the free list and returns src into it.
func replaceFree(free []string, dest, src string) []string {
	out := free[:0]
	for _, n := range free {
		if n != dest {
			out = append(out, n)
		}
	}
	out = append(out, src)
	sort.Strings(out)
	return out
}
