package graph

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/attrs"
)

// CombineWeights is the function used to merge several parallel influence
// values into one when nodes are contracted. The framework's Eq. (4) —
// 1 − ∏(1 − p_i) — is the canonical choice; see package influence.
type CombineWeights func(weights []float64) float64

// ClusterID builds the canonical id of a contracted node from its member
// ids, e.g. "{p1a,p2a}". Members are sorted so the id is deterministic.
func ClusterID(members []string) string {
	ms := append([]string(nil), members...)
	sort.Strings(ms)
	return "{" + strings.Join(ms, ",") + "}"
}

// contractScratch holds Contract's buffers between calls. The per-slot
// arrays are all zero/false between calls.
type contractScratch struct {
	member        []bool  // slot is being contracted
	outPos, inPos []int32 // slot -> 1 + index of its aggregate, 0 when none
	outAgg, inAgg []nbrAgg
	weights       []float64
	slots         []int
	heads         []int32
	id            []byte
}

// nbrAgg gathers the edges between the contracted members and one outside
// neighbour in one direction.
type nbrAgg struct {
	nbr     int32
	n, fill int32 // weighted edges; weights written so far
	off     int32 // start of this neighbour's weights in scratch.weights
	fs      int32 // union of the weighted edges' factor sets; -1 before the first
	replica bool  // a member has a replica edge to nbr, in either direction
	w       float64
}

// Contract merges the given member nodes into a single cluster node and
// returns the id of the new node. Per §5.2:
//
//   - internal influences disappear;
//   - if several cluster members had individual influences on a common
//     neighbour, those values are combined (with combine — Eq. (4)), one
//     weight per member in member order;
//   - if any component node had a replica (weight-0) edge to a neighbour,
//     in either direction, the resulting edges both ways are replica edges
//     ("the final value is also 0") — the constraint is absorbing;
//   - factor labels of combined edges are the sorted union of the members'
//     factors;
//   - node attributes combine per the standard attribute policies.
//
// The cluster id lists the members' base nodes in sorted order, so repeated
// contraction produces flat "{a,b,c}" ids rather than nested ones. Contract
// fails, leaving the graph unchanged, if the member set includes two
// replicas of one module (they must be mapped to different HW nodes),
// references unknown nodes, repeats a member, names a cluster id that
// another node already has, or combine yields a weight outside [0,1].
func (g *Graph) Contract(members []string, combine CombineWeights) (string, error) {
	if len(members) == 0 {
		return "", fmt.Errorf("%w: empty member set", ErrNoSuchNode)
	}
	sc := g.scratch()
	sc.slots = sc.slots[:0]
	for _, m := range members {
		s, ok := g.index[m]
		if !ok {
			g.unmark(sc.slots)
			return "", fmt.Errorf("%w: %q", ErrNoSuchNode, m)
		}
		if sc.member[s] {
			g.unmark(sc.slots)
			return "", fmt.Errorf("graph: duplicate member %q", m)
		}
		sc.member[s] = true
		sc.slots = append(sc.slots, s)
	}
	s, err := g.contract(sc.slots, combine)
	if err != nil {
		return "", err
	}
	return g.names[s], nil
}

// ContractSlots is Contract over slots; the cluster takes slots[0].
func (g *Graph) ContractSlots(slots []int, combine CombineWeights) (int, error) {
	if len(slots) == 0 {
		return 0, fmt.Errorf("%w: empty member set", ErrNoSuchNode)
	}
	sc := g.scratch()
	for i, s := range slots {
		if !g.live(s) {
			g.unmark(slots[:i])
			return 0, fmt.Errorf("%w: slot %d", ErrNoSuchNode, s)
		}
		if sc.member[s] {
			g.unmark(slots[:i])
			return 0, fmt.Errorf("graph: duplicate member %q", g.names[s])
		}
		sc.member[s] = true
	}
	return g.contract(slots, combine)
}

// scratch sizes the per-slot scratch arrays to the slot count.
func (g *Graph) scratch() *contractScratch {
	sc := &g.scr
	if n := len(g.names); len(sc.member) < n {
		sc.member = make([]bool, n)
		sc.outPos = make([]int32, n)
		sc.inPos = make([]int32, n)
		// The free list never outgrows the slots.
		g.free = slices.Grow(g.free, n-len(g.free))
	}
	return sc
}

func (g *Graph) unmark(slots []int) {
	for _, s := range slots {
		g.scr.member[s] = false
	}
}

// contract merges the distinct live slots, already marked as members.
func (g *Graph) contract(slots []int, combine CombineWeights) (int, error) {
	sc := &g.scr
	defer g.unmark(slots)
	for i, a := range slots {
		for _, b := range slots[i+1:] {
			if g.AreReplicaSlots(a, b) {
				return 0, fmt.Errorf("graph: %w: %q and %q", ErrReplicaConflict, g.names[a], g.names[b])
			}
		}
	}
	id := g.clusterID(slots)
	if s, ok := g.index[id]; ok && !sc.member[s] {
		return 0, fmt.Errorf("%w: %q", ErrDuplicateNode, id)
	}
	if err := g.aggregate(slots, combine); err != nil {
		return 0, err
	}

	t := slots[0]
	merged := g.attrs[t]
	for _, s := range slots[1:] {
		merged = attrs.Combine(merged, g.attrs[s])
	}
	head, size := g.mergeMembers(slots)

	// Detach the members. Edges between members vanish with the rows.
	for _, m := range slots {
		for _, a := range g.out[m] {
			if !sc.member[a.peer] {
				g.dropIn(int(a.peer), int(a.twin))
			}
		}
		for _, a := range g.in[m] {
			if !sc.member[a.peer] {
				g.dropOut(int(a.peer), int(a.twin))
				g.edges--
			}
		}
		g.edges -= len(g.out[m])
	}
	for _, m := range slots {
		g.out[m], g.in[m] = g.out[m][:0], g.in[m][:0]
		// The cluster keeps the roomiest rows; freed slots keep the rest.
		if cap(g.out[m]) > cap(g.out[t]) {
			g.out[m], g.out[t] = g.out[t], g.out[m]
		}
		if cap(g.in[m]) > cap(g.in[t]) {
			g.in[m], g.in[t] = g.in[t], g.in[m]
		}
	}
	for _, s := range slots[1:] {
		g.releaseSlot(s)
	}
	delete(g.index, g.names[t])
	g.names[t], g.attrs[t], g.head[t], g.size[t] = id, merged, head, size
	g.index[id] = t

	for _, ag := range sc.outAgg {
		if x := int(ag.nbr); ag.replica {
			g.appendArc(t, x, 0, 0, true)
			g.appendArc(x, t, 0, 0, true)
		} else {
			g.appendArc(t, x, ag.w, ag.fs, false)
		}
	}
	for _, ag := range sc.inAgg {
		if x := int(ag.nbr); !ag.replica {
			g.appendArc(x, t, ag.w, ag.fs, false)
		} else if sc.outPos[x] == 0 {
			// A replica pair with an out aggregate was linked above.
			g.appendArc(t, x, 0, 0, true)
			g.appendArc(x, t, 0, 0, true)
		}
	}
	g.clearAggregates()
	return t, nil
}

// aggregate fills the scratch neighbour aggregates of the members, in both
// directions, and computes each combined weight. A replica edge on either
// side marks both directions' aggregates as replica.
func (g *Graph) aggregate(slots []int, combine CombineWeights) error {
	sc := &g.scr
	sc.outAgg, sc.inAgg = sc.outAgg[:0], sc.inAgg[:0]
	for _, m := range slots {
		for _, a := range g.out[m] {
			if !sc.member[a.peer] {
				sc.outAgg = g.accumulate(sc.outAgg, sc.outPos, a)
			}
		}
		for _, a := range g.in[m] {
			if !sc.member[a.peer] {
				sc.inAgg = g.accumulate(sc.inAgg, sc.inPos, a)
			}
		}
	}
	// Lay the weights out per neighbour, then fill them in member order.
	off := int32(0)
	for _, aggs := range [2][]nbrAgg{sc.outAgg, sc.inAgg} {
		for i := range aggs {
			aggs[i].off = off
			off += aggs[i].n
		}
	}
	if cap(sc.weights) < int(off) {
		sc.weights = make([]float64, off)
	}
	ws := sc.weights[:off]
	for _, m := range slots {
		for _, a := range g.out[m] {
			if !sc.member[a.peer] && !a.replica {
				ag := &sc.outAgg[sc.outPos[a.peer]-1]
				ws[ag.off+ag.fill] = a.w
				ag.fill++
			}
		}
		for _, a := range g.in[m] {
			if !sc.member[a.peer] && !a.replica {
				ag := &sc.inAgg[sc.inPos[a.peer]-1]
				ws[ag.off+ag.fill] = a.w
				ag.fill++
			}
		}
	}
	for i := range sc.outAgg {
		if j := sc.inPos[sc.outAgg[i].nbr]; j != 0 && sc.inAgg[j-1].replica {
			sc.outAgg[i].replica = true
		}
	}
	for i := range sc.inAgg {
		if j := sc.outPos[sc.inAgg[i].nbr]; j != 0 && sc.outAgg[j-1].replica {
			sc.inAgg[i].replica = true
		}
	}
	for _, aggs := range [2][]nbrAgg{sc.outAgg, sc.inAgg} {
		for i := range aggs {
			ag := &aggs[i]
			if ag.replica {
				continue
			}
			ag.w = combine(ws[ag.off : ag.off+ag.n])
			if !(ag.w >= 0 && ag.w <= 1) { // NaN fails both comparisons
				g.clearAggregates()
				return fmt.Errorf("%w: %g", ErrBadWeight, ag.w)
			}
		}
	}
	return nil
}

// accumulate books arc a into the aggregate of its peer.
func (g *Graph) accumulate(aggs []nbrAgg, pos []int32, a arc) []nbrAgg {
	i := pos[a.peer]
	if i == 0 {
		aggs = append(aggs, nbrAgg{nbr: a.peer, fs: -1})
		i = int32(len(aggs))
		pos[a.peer] = i
	}
	ag := &aggs[i-1]
	switch {
	case a.replica:
		ag.replica = true
	case ag.fs < 0:
		ag.n, ag.fs = 1, g.fac.sets[a.fs].canon
	default:
		ag.n++
		ag.fs = g.fac.union(ag.fs, a.fs)
	}
	return aggs
}

func (g *Graph) clearAggregates() {
	sc := &g.scr
	for _, ag := range sc.outAgg {
		sc.outPos[ag.nbr] = 0
	}
	for _, ag := range sc.inAgg {
		sc.inPos[ag.nbr] = 0
	}
}

// clusterID renders the id of the cluster of the given slots: their member
// names merged in sorted order, duplicates kept, as ClusterID would.
func (g *Graph) clusterID(slots []int) string {
	sc := &g.scr
	// Walk all member chains at once, taking the smallest name each time.
	heads := sc.heads[:0]
	for _, s := range slots {
		heads = append(heads, g.head[s])
	}
	sc.heads = heads
	b := append(sc.id[:0], '{')
	for first := true; ; first = false {
		best := -1
		for i, c := range heads {
			if c >= 0 && (best < 0 || g.bases[g.cells[c].base] < g.bases[g.cells[heads[best]].base]) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		if !first {
			b = append(b, ',')
		}
		c := heads[best]
		b = append(b, g.bases[g.cells[c].base]...)
		heads[best] = g.cells[c].next
	}
	b = append(b, '}')
	sc.id = b
	return string(b)
}

// mergeMembers links the slots' membership chains into one chain in name
// order, stable in member order, and returns its head and length.
func (g *Graph) mergeMembers(slots []int) (int32, int32) {
	head, size := g.head[slots[0]], g.size[slots[0]]
	for _, s := range slots[1:] {
		head = g.mergeChains(head, g.head[s])
		size += g.size[s]
	}
	return head, size
}

// mergeChains merges two name-sorted chains in place; on equal names the
// cell of a comes first.
func (g *Graph) mergeChains(a, b int32) int32 {
	head, tail := int32(-1), int32(-1)
	for a >= 0 || b >= 0 {
		var c int32
		if b < 0 || (a >= 0 && g.bases[g.cells[a].base] <= g.bases[g.cells[b].base]) {
			c, a = a, g.cells[a].next
		} else {
			c, b = b, g.cells[b].next
		}
		if tail < 0 {
			head = c
		} else {
			g.cells[tail].next = c
		}
		tail = c
	}
	if tail >= 0 {
		g.cells[tail].next = -1
	}
	return head
}

// ErrReplicaConflict marks an attempt to place two replicas of one module
// in the same cluster or on the same HW node.
var ErrReplicaConflict = errReplicaConflict{}

type errReplicaConflict struct{}

func (errReplicaConflict) Error() string {
	return "replicas of one module cannot be combined"
}

// Members parses a cluster id produced by ClusterID back into its member
// ids. A plain (non-cluster) id yields itself.
func Members(id string) []string {
	if id == "{}" {
		return nil
	}
	return AppendMembers(make([]string, 0, strings.Count(id, ",")+1), id)
}

// AppendMembers appends the member ids of id to dst as Members lists
// them, and returns the extended slice.
func AppendMembers(dst []string, id string) []string {
	if !strings.HasPrefix(id, "{") || !strings.HasSuffix(id, "}") {
		return append(dst, id)
	}
	inner := id[1 : len(id)-1]
	if inner == "" {
		return dst
	}
	for {
		m, rest, more := strings.Cut(inner, ",")
		dst = append(dst, m)
		if !more {
			return dst
		}
		inner = rest
	}
}

// Replicate builds the replication expansion of g (§5.4) straight into a
// new graph: node id becomes the nodes named replicas[id], in g's sorted
// node order, each with id's attributes; the replicas of one node are
// linked pairwise by replica edges; and every weighted edge u→v of g is
// copied, factors included, from every replica of u to every replica of v.
// A node without entries in replicas is dropped with its edges. g is not
// modified.
func (g *Graph) Replicate(replicas map[string][]string) (*Graph, error) {
	n := 0
	for _, names := range replicas {
		n += len(names)
	}
	r := New()
	r.fac = g.fac.clone()
	r.Grow(n)
	first := make([]int, len(g.names)) // slot of the first replica in r
	for _, s := range g.SlotsByName() {
		names := replicas[g.names[s]]
		for i, name := range names {
			if err := r.AddNode(name, g.attrs[s]); err != nil {
				return nil, err
			}
			if i == 0 {
				first[s] = r.index[name]
			}
		}
	}
	// Size every row exactly, in one backing array per direction.
	outDeg, inDeg := make([]int, len(r.names)), make([]int, len(r.names))
	for s, row := range g.out {
		ns := len(replicas[g.names[s]])
		for i := 0; i < ns; i++ {
			outDeg[first[s]+i] += ns - 1
			inDeg[first[s]+i] += ns - 1
		}
		for _, a := range row {
			if a.replica {
				continue
			}
			nt := len(replicas[g.names[a.peer]])
			for i := 0; i < ns; i++ {
				outDeg[first[s]+i] += nt
			}
			for k := 0; k < nt; k++ {
				inDeg[first[a.peer]+k] += ns
			}
		}
	}
	r.out, r.in = presized(outDeg), presized(inDeg)
	for s, row := range g.out {
		from := replicas[g.names[s]]
		for i := range from {
			for k := i + 1; k < len(from); k++ {
				r.appendArc(first[s]+i, first[s]+k, 0, 0, true)
				r.appendArc(first[s]+k, first[s]+i, 0, 0, true)
			}
		}
		for _, a := range row {
			if a.replica {
				continue
			}
			to := replicas[g.names[a.peer]]
			for i := range from {
				for k := range to {
					r.appendArc(first[s]+i, first[a.peer]+k, a.w, a.fs, false)
				}
			}
		}
	}
	return r, nil
}

// presized returns empty rows with the given capacities, carved from one
// backing array.
func presized(deg []int) [][]arc {
	n := 0
	for _, d := range deg {
		n += d
	}
	backing := make([]arc, n)
	rows := make([][]arc, len(deg))
	off := 0
	for i, d := range deg {
		rows[i] = backing[off : off : off+d]
		off += d
	}
	return rows
}
