package cluster

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/attrs"
	"repro/internal/graph"
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
		if err := t.combine(c, a, b); err != nil {
			return err
		}
	}
	return nil
}

// pairTable is H1's incremental view of the working graph: its live slots
// in node-id order, each slot's member count, bound and the oracle's
// verdicts. Mutual influence is read from the graph a row at a time;
// MutualRow(s)[x] and MutualRow(x)[s] add the same two arc weights, so
// either row gives a pair's value bit for bit. Contract changes no edge
// between two other nodes and no other node's members, so a merge only
// refreshes the merged slots' bounds and verdicts. A table lives for one
// ReduceByInfluence call, during which only its loop mutates the graph.
type pairTable struct {
	order []int     // live slots, by node id
	row   []float64 // one slot's mutual influence, by slot
	size  []int     // member count per slot
	// bound[s] is at least slot s's mutual influence with every other
	// live slot, or NaN, which never lets a row be skipped. Merges only
	// raise it; a scan of the row tightens it to the exact maximum.
	bound []float64
	// minLater[i] is the smallest member count among order[i+1:] (MaxInt
	// past the end), rebuilt by each bestFeasiblePair.
	minLater []int
	// verdict[pairIndex(s, t)] is the oracle's verdict on slots s and t,
	// s the earlier in id order, or unchecked; merge clears the merged
	// slots'.
	verdict []verdict
}

// pairIndex is the place of the pair of distinct slots s and t in a
// triangular table of all such pairs.
func pairIndex(s, t int) int {
	if s < t {
		s, t = t, s
	}
	return s*(s-1)/2 + t
}

// newPairTable reads every slot's mutual influence row from g once, to
// bound it.
func newPairTable(g *graph.Graph) *pairTable {
	n := g.NumSlots()
	t := &pairTable{
		order:   g.SlotsByName(),
		row:     make([]float64, n),
		size:    make([]int, n),
		bound:   make([]float64, n),
		verdict: make([]verdict, n*(n-1)/2),
	}
	for _, s := range t.order {
		t.size[s] = g.NumMembers(s)
		g.MutualRow(s, t.row)
		t.bound[s] = rowMax(t.row, s, t.order)
	}
	return t
}

// rowMax returns the largest entry of row, slot s's mutual influence row,
// at the slots in others other than s itself: -Inf when there are none,
// NaN when any entry is NaN.
func rowMax(row []float64, s int, others []int) float64 {
	hi := math.Inf(-1)
	for _, x := range others {
		if m := row[x]; x != s && (m > hi || m != m) {
			hi = m
		}
	}
	return hi
}

// feasible is combinableSlots for slots a and b, a the earlier in id
// order, asking the oracle only about a pair it has not judged yet. The
// replica test runs on every visit, and a remembered verdict is counted
// as a fresh check would count it.
func (t *pairTable) feasible(c *Condenser, a, b int) bool {
	if c.precheck(a, b) != "" {
		return false
	}
	v := &t.verdict[pairIndex(a, b)]
	if *v == unchecked {
		*v, _ = c.schedule(a, b)
	} else if m := c.metrics; m != nil {
		m.verdictReuses.Inc()
	}
	c.book(*v)
	return *v == feasible
}

// combine merges the pair bestFeasiblePair chose. The scan has just found
// it feasible, so its check is answered from the memo and counted as
// combineSlots' own check would be.
func (t *pairTable) combine(c *Condenser, a, b int) error {
	t.feasible(c, a, b)
	s, err := c.mergeSlots(a, b, "H1")
	if err != nil {
		return err
	}
	t.merge(c.G, a, b, s)
	return nil
}

// merge replaces slots a and b by their contraction, which took slot s,
// forgets the verdicts of all three with the live slots, and refreshes
// s's size and bound from g. Every other live bound is raised to cover
// its pair with s.
func (t *pairTable) merge(g *graph.Graph, a, b, s int) {
	t.order = replaceMerged(g, t.order, a, b, s)
	for _, x := range [...]int{a, b, s} {
		for _, y := range t.order {
			if y != x {
				t.verdict[pairIndex(x, y)] = unchecked
			}
		}
	}
	t.size[s] = g.NumMembers(s)
	g.MutualRow(s, t.row)
	for _, x := range t.order {
		if m := t.row[x]; x != s && (m > t.bound[x] || m != m) {
			t.bound[x] = m
		}
	}
	t.bound[s] = rowMax(t.row, s, t.order)
}

// replaceMerged removes slots a and b from order, which lists live slots
// in id order, and inserts s, the slot of their contraction, at its id's
// place. It reuses order's backing array.
func replaceMerged(g *graph.Graph, order []int, a, b, s int) []int {
	live := order[:0]
	for _, x := range order {
		if x != a && x != b {
			live = append(live, x)
		}
	}
	at, _ := slices.BinarySearchFunc(live, g.Name(s), func(x int, id string) int {
		return strings.Compare(g.Name(x), id)
	})
	return slices.Insert(live, at, s)
}

// bestFeasiblePair returns the slots of the feasible pair with the highest
// mutual influence; ties break lexicographically by node id. Pairs with
// zero mutual influence are considered last (preferring small clusters),
// so reduction can always proceed when any feasible pair exists. Only a
// pair that would beat the best so far is checked for feasibility.
//
// Rows are visited in id order, but a row whose bound shows that none of
// its pairs with later slots could beat the best so far is skipped. A full
// scan would check none of that row's pairs, so the pairs checked, their
// order and the answer are those of a full scan.
func (t *pairTable) bestFeasiblePair(c *Condenser) (int, int, bool) {
	t.minLater = slices.Grow(t.minLater[:0], len(t.order))[:len(t.order)]
	least := math.MaxInt
	for i := len(t.order) - 1; i >= 0; i-- {
		t.minLater[i] = least
		least = min(least, t.size[t.order[i]])
	}
	bestA, bestB := -1, -1
	bestMutual := -1.0
	bestSize := 0
	for i, sa := range t.order {
		// A pair beats the best only with more mutual influence, or with
		// none at all and fewer members; bestMutual < 0 (nothing yet)
		// never skips, and a NaN bound fails the first comparison.
		if bestMutual >= 0 && t.bound[sa] <= bestMutual &&
			(bestMutual > 0 || t.minLater[i] >= bestSize-t.size[sa]) {
			continue
		}
		if c.ctx != nil && c.ctx.Err() != nil {
			return 0, 0, false // caller re-checks and reports the cancellation
		}
		row := t.row
		c.G.MutualRow(sa, row)
		hi := rowMax(row, sa, t.order[:i])
		for _, sb := range t.order[i+1:] {
			m := row[sb]
			if m > hi || m != m {
				hi = m
			}
			size := t.size[sa] + t.size[sb]
			switch {
			case m > bestMutual:
			case m == bestMutual && bestMutual == 0 && size < bestSize:
			default:
				// Not better; equal positive influence keeps the earlier
				// pair, as nodes are visited in sorted order.
				continue
			}
			if !t.feasible(c, sa, sb) {
				continue
			}
			bestA, bestB, bestMutual, bestSize = sa, sb, m, size
		}
		t.bound[sa] = hi
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
	var r pairAllRound
	for c.G.NumNodes() > target {
		if err := c.checkCtx(); err != nil {
			return err
		}
		progressed, err := r.run(c, target)
		if err != nil {
			return err
		}
		if !progressed {
			return fmt.Errorf("%w: %d nodes remain, target %d",
				ErrCannotReduce, c.G.NumNodes(), target)
		}
	}
	return nil
}

// pairAllRound holds the buffers of ReduceByInfluencePairAll's rounds.
type pairAllRound struct {
	row   []float64 // one slot's mutual influence, by slot
	pairs []rankPair
	used  []bool // by slot: merged in this round
}

// rankPair is a candidate pair of one round: the ranks (positions in id
// order) of two nodes, a < b, and their mutual influence.
type rankPair struct {
	a, b   int
	mutual float64
}

// run is one round: it merges disjoint feasible pairs in descending
// mutual influence, then ascending rank pair, until the graph reaches
// target, and reports whether it merged any.
func (r *pairAllRound) run(c *Condenser, target int) (bool, error) {
	slots := c.G.SlotsByName()
	n := c.G.NumSlots()
	r.row = slices.Grow(r.row[:0], n)[:n]
	r.pairs = r.pairs[:0]
	for i, sa := range slots {
		c.G.MutualRow(sa, r.row)
		for j := i + 1; j < len(slots); j++ {
			r.pairs = append(r.pairs, rankPair{i, j, r.row[slots[j]]})
		}
	}
	// The keys are unique, so the order is total.
	slices.SortFunc(r.pairs, func(p, q rankPair) int {
		if c := cmp.Compare(q.mutual, p.mutual); c != 0 {
			return c
		}
		if c := cmp.Compare(p.a, q.a); c != 0 {
			return c
		}
		return cmp.Compare(p.b, q.b)
	})
	r.used = slices.Grow(r.used[:0], n)[:n]
	clear(r.used)
	progressed := false
	for _, p := range r.pairs {
		if c.G.NumNodes() <= target {
			break
		}
		sa, sb := slots[p.a], slots[p.b]
		if r.used[sa] || r.used[sb] {
			continue
		}
		if ok, _ := c.combinableSlots(sa, sb); !ok {
			continue
		}
		if _, err := c.combineSlots(sa, sb, "H1-pair-all"); err != nil {
			return progressed, err
		}
		r.used[sa], r.used[sb] = true, true
		progressed = true
	}
	return progressed, nil
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
	return c.reduceByCuts(target, "H2", nil)
}

// ReduceByMinCutST implements the other H2 variation the paper lists:
// "cut the graph using source and target nodes". Each bisection step picks
// the two highest-importance nodes of the largest part as s and t (they
// are the nodes one most wants separated — critical modules on distinct
// processors) and splits along the minimum s–t cut.
func (c *Condenser) ReduceByMinCutST(target int, w attrs.Weights) error {
	return c.reduceByCuts(target, "H2-st", w.Importance)
}

// reduceByCuts runs H2 (importance nil) or H2-st under rule: bisect,
// repair, materialise.
func (c *Condenser) reduceByCuts(target int, rule string, importance func(attrs.Set) float64) error {
	if err := c.checkTarget(target); err != nil {
		return err
	}
	b := c.newBisection(importance)
	parts, _, err := b.split(target)
	if err != nil {
		return err
	}
	return b.finish(parts, rule)
}

// bisection is H2's int view of the working graph, built once per
// reduction: the live nodes in id order, where a node's rank is its
// position, and their symmetrized influence matrix by rank. Parts of a
// partition are rank lists; a part kept sorted lists its nodes in id
// order.
type bisection struct {
	c     *Condenser
	slots []int       // slots[r]: the graph slot of the node ranked r
	w     [][]float64 // w[r][q]: mutual influence of ranks r and q
	// importance[r] is the importance of the node ranked r under H2-st,
	// which cuts between the two most important nodes of a part; nil
	// under H2, which takes the global minimum cut.
	importance []float64
	// sub and buf hold the k×k restriction a cut overwrites; byImportance,
	// group, cand and evict are scratch.
	sub          [][]float64
	buf          []float64
	byImportance []int
	group        []int
	cand         []int
	evict        []bond
}

// bond is a part member's rank and its mutual influence with the rest of
// the part.
type bond struct {
	rank int
	w    float64
}

func (c *Condenser) newBisection(importance func(attrs.Set) float64) *bisection {
	w, slots := c.G.MutualMatrix()
	n := len(slots)
	b := &bisection{c: c, slots: slots, w: w, sub: make([][]float64, n), buf: make([]float64, n*n)}
	if importance != nil {
		b.importance = make([]float64, n)
		for r, s := range slots {
			b.importance[r] = importance(c.G.Attrs(c.G.Name(s)))
		}
	}
	return b
}

// split bisects the working graph until it has target parts, cutting the
// part with the most nodes next (the first such part on ties). It returns
// the parts as sorted rank lists and the weight of each cut in order.
func (b *bisection) split(target int) ([][]int, []float64, error) {
	all := make([]int, len(b.slots))
	for r := range all {
		all[r] = r
	}
	parts := [][]int{all}
	var weights []float64
	for len(parts) < target {
		if err := b.c.checkCtx(); err != nil {
			return nil, nil, err
		}
		idx := -1
		for i, p := range parts {
			if len(p) >= 2 && (idx == -1 || len(p) > len(parts[idx])) {
				idx = i
			}
		}
		if idx == -1 {
			break // all parts are singletons
		}
		part := parts[idx]
		s, t, weight := b.cut(part)
		for i, x := range s {
			s[i] = part[x]
		}
		for i, x := range t {
			t[i] = part[x]
		}
		parts[idx] = s
		parts = append(parts, t)
		weights = append(weights, weight)
	}
	return parts, weights, nil
}

// cut splits a part of two or more nodes and returns the sides as
// ascending indices into the part, and the cut weight.
func (b *bisection) cut(part []int) ([]int, []int, float64) {
	sub := b.restrict(part)
	if b.importance == nil {
		return graph.GlobalMinCutMatrix(sub)
	}
	// s and t: the two most important nodes of the part.
	order := b.byImportance[:0]
	for i := range part {
		order = append(order, i)
	}
	sort.Slice(order, func(i, j int) bool {
		ri, rj := part[order[i]], part[order[j]]
		if b.importance[ri] != b.importance[rj] {
			return b.importance[ri] > b.importance[rj]
		}
		return ri < rj
	})
	b.byImportance = order
	return graph.MinCutSTMatrix(sub, order[0], order[1])
}

// restrict copies the rows and columns of w at the ranks in part into sub.
// Each entry is read, not summed, so the copy equals the matrix of the
// induced subgraph bit for bit.
func (b *bisection) restrict(part []int) [][]float64 {
	k := len(part)
	sub := b.sub[:k]
	for i, r := range part {
		sub[i] = b.buf[i*k : (i+1)*k]
		for j, q := range part {
			sub[i][j] = b.w[r][q]
		}
	}
	return sub
}

// finish repairs the partition and merges each part into one cluster node
// under rule.
func (b *bisection) finish(parts [][]int, rule string) error {
	if !b.repair(parts) {
		if err := b.c.checkCtx(); err != nil {
			return err
		}
		return fmt.Errorf("%w: %s partition cannot satisfy feasibility", ErrCannotReduce, rule)
	}
	for _, p := range parts {
		for i, r := range p {
			p[i] = b.slots[r]
		}
	}
	return b.c.materialise(parts, rule)
}

// feasible reports whether the nodes ranked in group could form one
// cluster.
func (b *bisection) feasible(group []int) bool {
	b.group = b.group[:0]
	for _, r := range group {
		b.group = append(b.group, b.slots[r])
	}
	return b.c.groupFeasible(b.group)
}

// repair moves nodes out of infeasible parts into feasible ones, in place,
// and reports whether every part ends feasible.
func (b *bisection) repair(parts [][]int) bool {
	const maxPasses = 16
	for pass := 0; pass < maxPasses; pass++ {
		if b.c.ctx != nil && b.c.ctx.Err() != nil {
			return false // callers re-check and report the cancellation
		}
		fixed := true
		for gi := range parts {
			if b.feasible(parts[gi]) {
				continue
			}
			fixed = false
			// Move the node whose removal best helps: try each member,
			// prefer moving the one with the least mutual influence to the
			// rest of its part.
			if !b.evictOne(parts, gi) {
				return false
			}
		}
		if fixed {
			return true
		}
	}
	return false
}

// evictOne moves the least-coupled member of parts[gi] that some other
// part can take into the first such part, and reports whether it found
// one.
func (b *bisection) evictOne(parts [][]int, gi int) bool {
	for _, victim := range b.evictionOrder(parts[gi]) {
		for gj := range parts {
			if gi == gj {
				continue
			}
			b.cand = append(append(b.cand[:0], parts[gj]...), victim.rank)
			if !b.feasible(b.cand) {
				continue
			}
			parts[gj] = slices.Clone(b.cand)
			parts[gi] = slices.DeleteFunc(parts[gi], func(r int) bool { return r == victim.rank })
			return true
		}
	}
	return false
}

// evictionOrder sorts group members by ascending mutual influence with the
// rest of the group, so the least-coupled node moves first; ties go to
// the lower rank.
func (b *bisection) evictionOrder(group []int) []bond {
	b.evict = b.evict[:0]
	for _, r := range group {
		sum := 0.0
		for _, q := range group {
			if q != r {
				sum += b.w[r][q]
			}
		}
		b.evict = append(b.evict, bond{r, sum})
	}
	slices.SortFunc(b.evict, func(x, y bond) int {
		if c := cmp.Compare(x.w, y.w); c != 0 {
			return c
		}
		return cmp.Compare(x.rank, y.rank)
	})
	return b.evict
}

// groupFeasible reports whether the nodes in the given slots could form
// one cluster.
func (c *Condenser) groupFeasible(group []int) bool {
	for i, a := range group {
		for _, b := range group[i+1:] {
			if c.G.AreReplicaSlots(a, b) {
				return false
			}
		}
	}
	c.union = c.union[:0]
	for _, s := range group {
		c.union = c.appendJobs(c.union, s)
	}
	ok, err := c.fits(c.union)
	return err == nil && ok
}

// materialise merges the nodes in each multi-slot part, in id order, into
// one cluster node.
func (c *Condenser) materialise(parts [][]int, rule string) error {
	for _, p := range parts {
		if err := c.checkCtx(); err != nil {
			return err
		}
		if len(p) < 2 {
			continue
		}
		slices.SortFunc(p, func(a, b int) int { return strings.Compare(c.G.Name(a), c.G.Name(b)) })
		for _, next := range p[1:] {
			if _, err := c.combineSlots(p[0], next, rule); err != nil {
				return err
			}
		}
	}
	return nil
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
	type ranked struct {
		slot, rank int // rank: position in id order
		importance float64
	}
	slots := c.G.SlotsByName()
	rs := make([]ranked, 0, len(slots))
	for r, s := range slots {
		rs = append(rs, ranked{s, r, w.Importance(c.G.Attrs(c.G.Name(s)))})
	}
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].importance != rs[j].importance {
			return rs[i].importance > rs[j].importance
		}
		return rs[i].rank < rs[j].rank
	})
	groups := make([][]int, target)
	for i := 0; i < target; i++ {
		groups[i] = []int{rs[i].slot}
	}
	var candidate []int
	for _, r := range rs[target:] {
		if err := c.checkCtx(); err != nil {
			return err
		}
		bestG, bestScore := -1, -1.0
		bestLoad := 0
		for gi, grp := range groups {
			candidate = append(append(candidate[:0], grp...), r.slot)
			if !c.groupFeasible(candidate) {
				continue
			}
			score := 0.0
			for _, member := range grp {
				score += c.G.MutualSlots(r.slot, member)
			}
			if bestG == -1 || score > bestScore ||
				(score == bestScore && len(grp) < bestLoad) {
				bestG, bestScore, bestLoad = gi, score, len(grp)
			}
		}
		if bestG == -1 {
			return fmt.Errorf("%w: H3 cannot place %q", ErrCannotReduce, c.G.Name(r.slot))
		}
		groups[bestG] = append(groups[bestG], r.slot)
	}
	return c.materialise(groups, "H3")
}
