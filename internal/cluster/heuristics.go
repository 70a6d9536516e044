package cluster

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/attrs"
	"repro/internal/graph"
	"repro/internal/sched"
)

// ReduceByInfluence implements heuristic H1 (§5.4): "Combine the two nodes
// with the highest value of mutual influence … Repeat for the next higher
// value of mutual influence, and continue this process until the required
// number of nodes is obtained." Combinations that violate feasibility
// (replica separation, timing) are skipped; if only zero-influence pairs
// remain, the feasible pair with the smallest combined job count is used so
// the target can still be reached.
func (c *Condenser) ReduceByInfluence(target int) error {
	if err := c.checkTarget(target); err != nil {
		return err
	}
	t := newPairTable(c.G)
	for c.G.NumNodes() > target {
		if err := c.checkCtx(); err != nil {
			return err
		}
		a, b, found := t.bestFeasiblePair(c)
		if !found {
			// Distinguish "cancelled mid-sweep" from "genuinely stuck".
			if err := c.checkCtx(); err != nil {
				return err
			}
			return fmt.Errorf("%w: %d nodes remain, target %d",
				ErrCannotReduce, c.G.NumNodes(), target)
		}
		s, err := c.combineSlots(a, b, "H1")
		if err != nil {
			return err
		}
		t.merge(c.G, a, b, s)
	}
	return nil
}

// pairTable is H1's incremental view of the working graph: its live slots
// in node-id order, a symmetric matrix of mutual influence indexed by
// graph slot, and each slot's member count. Contract changes no edge
// between two other nodes, so after a merge only the merged slot's row and
// column need refreshing, from that slot's adjacency rows alone.
type pairTable struct {
	order  []int     // live slots, by node id
	stride int       // row length of mutual: the graph's slot count
	mutual []float64 // mutual[s*stride+t]: mutual influence of slots s, t
	size   []int     // member count per slot
}

// newPairTable reads every pair's mutual influence from g once.
func newPairTable(g *graph.Graph) *pairTable {
	n := g.NumSlots()
	t := &pairTable{
		order:  g.SlotsByName(),
		stride: n,
		mutual: make([]float64, n*n),
		size:   make([]int, n),
	}
	for _, s := range t.order {
		t.size[s] = g.NumMembers(s)
		g.MutualRow(s, t.mutual[s*n:(s+1)*n])
	}
	return t
}

// merge replaces slots a and b by their contraction, which took slot s,
// and refreshes that slot's row and column from g.
func (t *pairTable) merge(g *graph.Graph, a, b, s int) {
	live := t.order[:0]
	for _, x := range t.order {
		if x != a && x != b {
			live = append(live, x)
		}
	}
	id := g.Name(s)
	at, _ := slices.BinarySearchFunc(live, id, func(x int, id string) int {
		return strings.Compare(g.Name(x), id)
	})
	t.order = slices.Insert(live, at, s)
	t.size[s] = g.NumMembers(s)
	row := t.mutual[s*t.stride : (s+1)*t.stride]
	g.MutualRow(s, row)
	for _, x := range t.order {
		t.mutual[x*t.stride+s] = row[x]
	}
}

// bestFeasiblePair returns the slots of the feasible pair with the highest
// mutual influence; ties break lexicographically by node id. Pairs with
// zero mutual influence are considered last (preferring small clusters),
// so reduction can always proceed when any feasible pair exists. Only a
// pair that would beat the best so far is checked for feasibility.
func (t *pairTable) bestFeasiblePair(c *Condenser) (int, int, bool) {
	bestA, bestB := -1, -1
	bestMutual := -1.0
	bestSize := 0
	for i, sa := range t.order {
		if c.ctx != nil && c.ctx.Err() != nil {
			return 0, 0, false // caller re-checks and reports the cancellation
		}
		row := t.mutual[sa*t.stride : (sa+1)*t.stride]
		for _, sb := range t.order[i+1:] {
			m := row[sb]
			size := t.size[sa] + t.size[sb]
			better := false
			switch {
			case m > bestMutual:
				better = true
			case m == bestMutual && bestMutual > 0:
				// equal positive influence: lexicographic
				better = false // nodes are already in sorted order
			case m == bestMutual && bestMutual == 0 && size < bestSize:
				better = true
			}
			if !better {
				continue
			}
			if ok, _ := c.combinableSlots(sa, sb); !ok {
				continue
			}
			bestA, bestB, bestMutual, bestSize = sa, sb, m, size
		}
	}
	return bestA, bestB, bestA >= 0
}

// ReduceByInfluencePairAll implements the H1 variation: "pair all nodes
// based on influence values and then … repeat the process as needed." Each
// round greedily selects disjoint feasible pairs in descending mutual
// influence and combines them all, stopping mid-round when the target is
// reached.
func (c *Condenser) ReduceByInfluencePairAll(target int) error {
	if err := c.checkTarget(target); err != nil {
		return err
	}
	for c.G.NumNodes() > target {
		if err := c.checkCtx(); err != nil {
			return err
		}
		type pair struct {
			a, b   string
			mutual float64
		}
		nodes := c.G.Nodes()
		var pairs []pair
		for i, a := range nodes {
			for _, b := range nodes[i+1:] {
				pairs = append(pairs, pair{a, b, c.G.MutualInfluence(a, b)})
			}
		}
		sort.Slice(pairs, func(i, j int) bool {
			if pairs[i].mutual != pairs[j].mutual {
				return pairs[i].mutual > pairs[j].mutual
			}
			if pairs[i].a != pairs[j].a {
				return pairs[i].a < pairs[j].a
			}
			return pairs[i].b < pairs[j].b
		})
		used := map[string]bool{}
		progressed := false
		for _, p := range pairs {
			if c.G.NumNodes() <= target {
				break
			}
			if used[p.a] || used[p.b] {
				continue
			}
			if ok, _ := c.combinable(p.a, p.b); !ok {
				continue
			}
			if _, err := c.Combine(p.a, p.b, "H1-pair-all"); err != nil {
				return err
			}
			used[p.a], used[p.b] = true, true
			progressed = true
		}
		if !progressed {
			return fmt.Errorf("%w: %d nodes remain, target %d",
				ErrCannotReduce, c.G.NumNodes(), target)
		}
	}
	return nil
}

// ReduceByMinCut implements heuristic H2 (§5.4): "Find the min-cut of the
// graph. Divide the graph into two parts along the cut. Find the min-cut in
// each half and repeat the process, until the requisite number of
// components has been generated." The variant used here cuts the part with
// the most nodes next (one of the paper's listed variations). The resulting
// parts are then materialised as cluster nodes; parts that violate
// feasibility are repaired by moving nodes to other parts (or the reduction
// fails with ErrCannotReduce).
func (c *Condenser) ReduceByMinCut(target int) error {
	if err := c.checkTarget(target); err != nil {
		return err
	}
	parts := [][]string{c.G.Nodes()}
	for len(parts) < target {
		if err := c.checkCtx(); err != nil {
			return err
		}
		// Cut the largest part next.
		idx := -1
		for i, p := range parts {
			if len(p) < 2 {
				continue
			}
			if idx == -1 || len(p) > len(parts[idx]) {
				idx = i
			}
		}
		if idx == -1 {
			break // all parts are singletons
		}
		sub := induced(c.G, parts[idx])
		cut, err := sub.GlobalMinCut()
		if err != nil {
			return fmt.Errorf("cluster: H2 cut: %w", err)
		}
		parts[idx] = cut.S
		parts = append(parts, cut.T)
	}
	parts = c.repairPartition(parts)
	if parts == nil {
		if err := c.checkCtx(); err != nil {
			return err
		}
		return fmt.Errorf("%w: H2 partition cannot satisfy feasibility", ErrCannotReduce)
	}
	return c.materialise(parts, "H2")
}

// ReduceByMinCutST implements the other H2 variation the paper lists:
// "cut the graph using source and target nodes". Each bisection step picks
// the two highest-importance nodes of the largest part as s and t (they
// are the nodes one most wants separated — critical modules on distinct
// processors) and splits along the minimum s–t cut.
func (c *Condenser) ReduceByMinCutST(target int, w attrs.Weights) error {
	if err := c.checkTarget(target); err != nil {
		return err
	}
	parts := [][]string{c.G.Nodes()}
	for len(parts) < target {
		if err := c.checkCtx(); err != nil {
			return err
		}
		idx := -1
		for i, p := range parts {
			if len(p) < 2 {
				continue
			}
			if idx == -1 || len(p) > len(parts[idx]) {
				idx = i
			}
		}
		if idx == -1 {
			break
		}
		sub := induced(c.G, parts[idx])
		// s and t: the two most important nodes of the part.
		members := append([]string(nil), parts[idx]...)
		sort.Slice(members, func(i, j int) bool {
			ii := w.Importance(c.G.Attrs(members[i]))
			ij := w.Importance(c.G.Attrs(members[j]))
			if ii != ij {
				return ii > ij
			}
			return members[i] < members[j]
		})
		cut, err := sub.MinCutST(members[0], members[1])
		if err != nil {
			return fmt.Errorf("cluster: H2-st cut: %w", err)
		}
		parts[idx] = cut.S
		parts = append(parts, cut.T)
	}
	parts = c.repairPartition(parts)
	if parts == nil {
		if err := c.checkCtx(); err != nil {
			return err
		}
		return fmt.Errorf("%w: H2-st partition cannot satisfy feasibility", ErrCannotReduce)
	}
	return c.materialise(parts, "H2-st")
}

// induced builds the subgraph of g on the given node set.
func induced(g *graph.Graph, ids []string) *graph.Graph {
	in := make(map[string]bool, len(ids))
	for _, id := range ids {
		in[id] = true
	}
	sub := graph.New()
	for _, id := range ids {
		// Construction over an existing graph: errors impossible for
		// distinct known ids, but keep the checks.
		if err := sub.AddNode(id, g.Attrs(id).Clone()); err != nil {
			continue
		}
	}
	for _, e := range g.Edges() {
		if !in[e.From] || !in[e.To] {
			continue
		}
		if e.Replica {
			_ = sub.AddReplicaEdge(e.From, e.To)
		} else {
			_ = sub.SetEdge(e.From, e.To, e.Weight, e.Factors...)
		}
	}
	return sub
}

// groupFeasible reports whether a group of current node ids could form one
// cluster.
func (c *Condenser) groupFeasible(group []string) bool {
	for i, a := range group {
		for _, b := range group[i+1:] {
			if c.G.AreReplicas(a, b) {
				return false
			}
		}
	}
	c.union = c.union[:0]
	for _, id := range group {
		c.union = c.appendJobsOf(c.union, id)
	}
	ok, err := sched.Check(c.union)
	return err == nil && ok
}

// materialise merges each multi-node part into one cluster node.
func (c *Condenser) materialise(parts [][]string, rule string) error {
	for _, p := range parts {
		if err := c.checkCtx(); err != nil {
			return err
		}
		if len(p) < 2 {
			continue
		}
		sort.Strings(p)
		cur := p[0]
		for _, next := range p[1:] {
			id, err := c.Combine(cur, next, rule)
			if err != nil {
				return err
			}
			cur = id
		}
	}
	return nil
}

// repairPartition moves nodes out of infeasible groups into feasible ones.
// Returns nil if the partition cannot be repaired.
func (c *Condenser) repairPartition(parts [][]string) [][]string {
	const maxPasses = 16
	for pass := 0; pass < maxPasses; pass++ {
		if c.ctx != nil && c.ctx.Err() != nil {
			return nil // callers re-check and report the cancellation
		}
		fixed := true
		for gi := range parts {
			if c.groupFeasible(parts[gi]) {
				continue
			}
			fixed = false
			// Move the node whose removal best helps: try each member,
			// prefer moving the one with the least mutual influence to the
			// rest of its group.
			moved := false
			order := c.evictionOrder(parts[gi])
			for _, victim := range order {
				for gj := range parts {
					if gi == gj {
						continue
					}
					candidate := append(append([]string(nil), parts[gj]...), victim)
					if !c.groupFeasible(candidate) {
						continue
					}
					parts[gj] = candidate
					parts[gi] = remove(parts[gi], victim)
					moved = true
					break
				}
				if moved {
					break
				}
			}
			if !moved {
				return nil
			}
		}
		if fixed {
			return parts
		}
	}
	return nil
}

// evictionOrder sorts group members by ascending mutual influence with the
// rest of the group, so the least-coupled node moves first.
func (c *Condenser) evictionOrder(group []string) []string {
	type scored struct {
		id   string
		bond float64
	}
	out := make([]scored, 0, len(group))
	for _, id := range group {
		bond := 0.0
		for _, other := range group {
			if other != id {
				bond += c.G.MutualInfluence(id, other)
			}
		}
		out = append(out, scored{id, bond})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].bond != out[j].bond {
			return out[i].bond < out[j].bond
		}
		return out[i].id < out[j].id
	})
	ids := make([]string, len(out))
	for i, s := range out {
		ids[i] = s.id
	}
	return ids
}

func remove(xs []string, x string) []string {
	out := xs[:0]
	for _, v := range xs {
		if v != x {
			out = append(out, v)
		}
	}
	return out
}

// ReduceBySpheres implements heuristic H3 (§5.4): "Start with the most
// important node … For n HW nodes, identify the n most important SW nodes,
// and define their 'spheres of influence'. Map each group onto a different
// HW node." The n most important nodes seed the groups; every other node
// joins the feasible seed group with which it has the highest mutual
// influence (ties and zero influence fall to the least-loaded feasible
// group).
func (c *Condenser) ReduceBySpheres(target int, w attrs.Weights) error {
	if err := c.checkTarget(target); err != nil {
		return err
	}
	nodes := c.G.Nodes()
	type ranked struct {
		id         string
		importance float64
	}
	rs := make([]ranked, 0, len(nodes))
	for _, id := range nodes {
		rs = append(rs, ranked{id, w.Importance(c.G.Attrs(id))})
	}
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].importance != rs[j].importance {
			return rs[i].importance > rs[j].importance
		}
		return rs[i].id < rs[j].id
	})
	groups := make([][]string, target)
	for i := 0; i < target; i++ {
		groups[i] = []string{rs[i].id}
	}
	for _, r := range rs[target:] {
		if err := c.checkCtx(); err != nil {
			return err
		}
		bestG, bestScore := -1, -1.0
		bestLoad := 0
		for gi, grp := range groups {
			candidate := append(append([]string(nil), grp...), r.id)
			if !c.groupFeasible(candidate) {
				continue
			}
			score := 0.0
			for _, member := range grp {
				score += c.G.MutualInfluence(r.id, member)
			}
			if bestG == -1 || score > bestScore ||
				(score == bestScore && len(grp) < bestLoad) {
				bestG, bestScore, bestLoad = gi, score, len(grp)
			}
		}
		if bestG == -1 {
			return fmt.Errorf("%w: H3 cannot place %q", ErrCannotReduce, r.id)
		}
		groups[bestG] = append(groups[bestG], r.id)
	}
	return c.materialise(groups, "H3")
}
