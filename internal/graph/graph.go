// Package graph provides the weighted directed influence-graph substrate of
// the integration framework (ICDCS 1998 §3.4.4, §5.1).
//
// Nodes represent FCMs at one hierarchy level; a labelled unidirectional
// edge from node i to node j carries the influence of FCM_i on FCM_j — the
// probability that a fault in i causes a fault in j when no third FCM is
// considered. Edge labels record the contributing fault factors.
//
// Replica nodes (copies of one module created to satisfy a fault-tolerance
// requirement) are linked by special weight-0 edges; per §5.2, a pair joined
// by such an edge "cannot be combined, as the nodes contain replicas of the
// same module, which must be mapped onto different HW nodes". Absence of an
// edge means no influence.
//
// Internally every node lives in a dense int slot; freed slots are reused.
// A slot holds out and in adjacency rows whose arcs point at each other, so
// an edge is added or removed in O(1) and Contract merges its members' rows
// in O(deg) without allocating beyond the new cluster id. Factor names are
// interned into per-graph bitsets, and cluster membership is a name-sorted
// chain of base-node ids per slot. Names and sorted views (Nodes, Edges,
// String, Matrix, ...) are built only when asked for, and every returned
// slice belongs to the caller. Package cluster drives the slot-level
// methods (Slot, ContractSlots, MutualRow, ...) directly.
package graph

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"

	"repro/internal/attrs"
)

// Sentinel errors returned by graph mutations and queries.
var (
	ErrDuplicateNode = errors.New("graph: node already exists")
	ErrNoSuchNode    = errors.New("graph: no such node")
	ErrSelfEdge      = errors.New("graph: self edges are not allowed")
	ErrBadWeight     = errors.New("graph: influence weight must be in [0,1]")
)

// Edge is one directed influence edge. Weight is the influence value of
// Eq. (2) in [0,1]. Factors lists the fault-factor names contributing to
// the influence (e.g. "shared-memory", "message", "timing"); an Edge read
// from a Graph shares that list with the graph, so its elements must not
// be modified. Replica marks the weight-0 link between replicas of one
// module.
type Edge struct {
	From    string
	To      string
	Weight  float64
	Factors []string
	Replica bool
}

// Label renders the edge's factor tuple, e.g. "(shared-memory,timing)".
func (e Edge) Label() string {
	if len(e.Factors) == 0 {
		return ""
	}
	return "(" + strings.Join(e.Factors, ",") + ")"
}

// arc is one directed edge as seen from one of its endpoints: out[s] holds
// the arcs leaving s, in[s] those entering it. Both copies carry the
// payload; twin links each to the other.
type arc struct {
	peer    int32 // slot at the other end
	twin    int32 // index of the mirror arc in the peer's opposite row
	fs      int32 // interned factor set
	replica bool
	w       float64
}

// cell is one entry of a membership chain: a base-node id and the next
// cell of the same node, in base-name order (-1 ends the chain).
type cell struct {
	base, next int32
}

// Graph is a directed, edge-weighted graph with attributed nodes. The zero
// value is not usable; call New. A Graph may be read from several
// goroutines at once; mutations need exclusive access.
type Graph struct {
	index   map[string]int // live node id -> slot
	names   []string       // slot -> node id; "" marks a free slot
	attrs   []attrs.Set
	out, in [][]arc
	head    []int32 // slot -> first membership cell
	size    []int32 // slot -> member count
	free    []int   // free slots, reused last-in first-out
	edges   int

	cells    []cell
	freeCell int32            // head of the free-cell chain
	bases    []string         // base-node id -> name
	baseIDs  map[string]int32 // name -> base-node id
	fac      factorTable

	scr contractScratch // Contract's reusable buffers; never shared by clones
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		index:    map[string]int{},
		baseIDs:  map[string]int32{},
		freeCell: -1,
		fac:      newFactorTable(),
	}
}

// live reports whether slot s holds a node.
func (g *Graph) live(s int) bool { return s >= 0 && s < len(g.names) && g.names[s] != "" }

// AddNode inserts a node with the given attribute set. Its members are
// those Members(id) names.
func (g *Graph) AddNode(id string, a attrs.Set) error {
	if id == "" {
		return fmt.Errorf("%w: empty id", ErrNoSuchNode)
	}
	if _, ok := g.index[id]; ok {
		return fmt.Errorf("%w: %q", ErrDuplicateNode, id)
	}
	s := g.allocSlot()
	g.names[s], g.attrs[s] = id, a
	g.index[id] = s
	if !strings.HasPrefix(id, "{") {
		g.head[s], g.size[s] = g.newCell(g.baseID(id), -1), 1
		return nil
	}
	ms := Members(id)
	slices.SortFunc(ms, strings.Compare)
	for i := len(ms) - 1; i >= 0; i-- {
		g.head[s] = g.newCell(g.baseID(ms[i]), g.head[s])
	}
	g.size[s] = int32(len(ms))
	return nil
}

// Grow makes room for n more nodes, so that adding them grows none of the
// graph's per-node arrays.
func (g *Graph) Grow(n int) {
	g.names = slices.Grow(g.names, n)
	g.attrs = slices.Grow(g.attrs, n)
	g.out = slices.Grow(g.out, n)
	g.in = slices.Grow(g.in, n)
	g.head = slices.Grow(g.head, n)
	g.size = slices.Grow(g.size, n)
	g.cells = slices.Grow(g.cells, n)
	g.bases = slices.Grow(g.bases, n)
	if len(g.index) == 0 {
		g.index, g.baseIDs = make(map[string]int, n), make(map[string]int32, n)
	}
}

func (g *Graph) allocSlot() int {
	if n := len(g.free); n > 0 {
		s := g.free[n-1]
		g.free = g.free[:n-1]
		return s
	}
	g.names = append(g.names, "")
	g.attrs = append(g.attrs, attrs.Set{})
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	g.head = append(g.head, -1)
	g.size = append(g.size, 0)
	return len(g.names) - 1
}

// releaseSlot frees slot s, whose rows must already be empty. Its member
// chain must have been freed or handed to another slot.
func (g *Graph) releaseSlot(s int) {
	delete(g.index, g.names[s])
	g.names[s], g.attrs[s] = "", attrs.Set{}
	g.head[s], g.size[s] = -1, 0
	g.free = append(g.free, s)
}

func (g *Graph) baseID(name string) int32 {
	if b, ok := g.baseIDs[name]; ok {
		return b
	}
	b := int32(len(g.bases))
	g.bases = append(g.bases, name)
	g.baseIDs[name] = b
	return b
}

func (g *Graph) newCell(base, next int32) int32 {
	c := g.freeCell
	if c < 0 {
		g.cells = append(g.cells, cell{})
		c = int32(len(g.cells) - 1)
	} else {
		g.freeCell = g.cells[c].next
	}
	g.cells[c] = cell{base: base, next: next}
	return c
}

// RemoveNode deletes a node and all incident edges.
func (g *Graph) RemoveNode(id string) error {
	s, ok := g.index[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchNode, id)
	}
	g.detach(s)
	c := g.head[s]
	for c >= 0 {
		next := g.cells[c].next
		g.cells[c].next, g.freeCell = g.freeCell, c
		c = next
	}
	g.releaseSlot(s)
	return nil
}

// detach removes every edge incident to slot s.
func (g *Graph) detach(s int) {
	for len(g.out[s]) > 0 {
		g.unlink(s, len(g.out[s])-1)
	}
	for len(g.in[s]) > 0 {
		a := g.in[s][len(g.in[s])-1]
		g.unlink(int(a.peer), int(a.twin))
	}
}

// HasNode reports whether id exists.
func (g *Graph) HasNode(id string) bool {
	_, ok := g.index[id]
	return ok
}

// Attrs returns the attribute set of node id (zero Set if absent).
func (g *Graph) Attrs(id string) attrs.Set {
	if s, ok := g.index[id]; ok {
		return g.attrs[s]
	}
	return attrs.Set{}
}

// SetAttrs replaces the attribute set of node id.
func (g *Graph) SetAttrs(id string, a attrs.Set) error {
	s, ok := g.index[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchNode, id)
	}
	g.attrs[s] = a
	return nil
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.index) }

// NumEdges returns the directed edge count.
func (g *Graph) NumEdges() int { return g.edges }

// Nodes returns all node ids in sorted order (deterministic iteration).
func (g *Graph) Nodes() []string {
	ids := make([]string, 0, len(g.index))
	for id := range g.index {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// SetEdge inserts or replaces the directed influence edge from→to.
// Replica edges must use AddReplicaEdge.
func (g *Graph) SetEdge(from, to string, weight float64, factors ...string) error {
	f, t, err := g.checkPair(from, to)
	if err != nil {
		return err
	}
	if !(weight >= 0 && weight <= 1) { // NaN fails both comparisons
		return fmt.Errorf("%w: %g", ErrBadWeight, weight)
	}
	g.link(f, t, weight, g.fac.intern(factors), false)
	return nil
}

// AddReplicaEdge links two replicas of one module with the paper's
// weight-0 marker, in both directions (the relation is symmetric).
func (g *Graph) AddReplicaEdge(a, b string) error {
	sa, sb, err := g.checkPair(a, b)
	if err != nil {
		return err
	}
	g.link(sa, sb, 0, 0, true)
	g.link(sb, sa, 0, 0, true)
	return nil
}

func (g *Graph) checkPair(from, to string) (int, int, error) {
	if from == to {
		return 0, 0, fmt.Errorf("%w: %q", ErrSelfEdge, from)
	}
	f, ok := g.index[from]
	if !ok {
		return 0, 0, fmt.Errorf("%w: %q", ErrNoSuchNode, from)
	}
	t, ok := g.index[to]
	if !ok {
		return 0, 0, fmt.Errorf("%w: %q", ErrNoSuchNode, to)
	}
	return f, t, nil
}

// link sets the edge from→to, replacing any edge already there.
func (g *Graph) link(from, to int, w float64, fs int32, replica bool) {
	if i := g.find(from, to); i >= 0 {
		a := &g.out[from][i]
		a.w, a.fs, a.replica = w, fs, replica
		b := &g.in[to][a.twin]
		b.w, b.fs, b.replica = w, fs, replica
		return
	}
	g.appendArc(from, to, w, fs, replica)
}

// appendArc adds the edge from→to, which must not exist yet.
func (g *Graph) appendArc(from, to int, w float64, fs int32, replica bool) {
	oi, ii := len(g.out[from]), len(g.in[to])
	// Skip the smallest growth steps of a row built one edge at a time.
	if cap(g.out[from]) == 0 {
		g.out[from] = make([]arc, 0, 4)
	}
	if cap(g.in[to]) == 0 {
		g.in[to] = make([]arc, 0, 4)
	}
	g.out[from] = append(g.out[from], arc{peer: int32(to), twin: int32(ii), fs: fs, replica: replica, w: w})
	g.in[to] = append(g.in[to], arc{peer: int32(from), twin: int32(oi), fs: fs, replica: replica, w: w})
	g.edges++
}

// unlink removes the edge stored at out[from][i].
func (g *Graph) unlink(from, i int) {
	a := g.out[from][i]
	g.dropIn(int(a.peer), int(a.twin))
	g.dropOut(from, i)
	g.edges--
}

// dropOut deletes out[s][i] from its row alone: the last arc moves into
// its place and the moved arc's twin is repointed.
func (g *Graph) dropOut(s, i int) {
	row := g.out[s]
	last := len(row) - 1
	if i != last {
		row[i] = row[last]
		g.in[row[i].peer][row[i].twin].twin = int32(i)
	}
	g.out[s] = row[:last]
}

// dropIn is dropOut for the in row of s.
func (g *Graph) dropIn(s, i int) {
	row := g.in[s]
	last := len(row) - 1
	if i != last {
		row[i] = row[last]
		g.out[row[i].peer][row[i].twin].twin = int32(i)
	}
	g.in[s] = row[:last]
}

// find returns the index in out[from] of the edge from→to, or -1. It scans
// the shorter of out[from] and in[to].
func (g *Graph) find(from, to int) int {
	if len(g.in[to]) < len(g.out[from]) {
		for _, a := range g.in[to] {
			if int(a.peer) == from {
				return int(a.twin)
			}
		}
		return -1
	}
	for i, a := range g.out[from] {
		if int(a.peer) == to {
			return i
		}
	}
	return -1
}

// arcBetween returns the edge from→to of two slots.
func (g *Graph) arcBetween(from, to int) (arc, bool) {
	if i := g.find(from, to); i >= 0 {
		return g.out[from][i], true
	}
	return arc{}, false
}

// slotPair resolves two node ids.
func (g *Graph) slotPair(a, b string) (int, int, bool) {
	sa, okA := g.index[a]
	sb, okB := g.index[b]
	return sa, sb, okA && okB
}

// RemoveEdge deletes the directed edge from→to if present.
func (g *Graph) RemoveEdge(from, to string) {
	if f, t, ok := g.slotPair(from, to); ok {
		if i := g.find(f, t); i >= 0 {
			g.unlink(f, i)
		}
	}
}

// edge renders arc a of slot s's out row as an Edge.
func (g *Graph) edge(s int, a arc) Edge {
	return Edge{From: g.names[s], To: g.names[a.peer], Weight: a.w, Factors: g.fac.list(a.fs), Replica: a.replica}
}

// EdgeBetween returns the directed edge from→to and whether it exists.
func (g *Graph) EdgeBetween(from, to string) (Edge, bool) {
	f, t, ok := g.slotPair(from, to)
	if !ok {
		return Edge{}, false
	}
	a, ok := g.arcBetween(f, t)
	if !ok {
		return Edge{}, false
	}
	return g.edge(f, a), true
}

// Influence returns the influence weight FCM_from → FCM_to; 0 when no edge.
func (g *Graph) Influence(from, to string) float64 {
	f, t, ok := g.slotPair(from, to)
	if !ok {
		return 0
	}
	a, _ := g.arcBetween(f, t)
	return a.w
}

// AreReplicas reports whether a and b are joined by a replica edge.
func (g *Graph) AreReplicas(a, b string) bool {
	sa, sb, ok := g.slotPair(a, b)
	return ok && g.AreReplicaSlots(sa, sb)
}

// OutEdges returns the out-edges of id sorted by target (deterministic).
func (g *Graph) OutEdges(id string) []Edge {
	s, ok := g.index[id]
	if !ok {
		return []Edge{}
	}
	es := make([]Edge, 0, len(g.out[s]))
	for _, a := range g.sortedRow(g.out[s]) {
		es = append(es, g.edge(s, a))
	}
	return es
}

// InEdges returns the in-edges of id sorted by source.
func (g *Graph) InEdges(id string) []Edge {
	s, ok := g.index[id]
	if !ok {
		return []Edge{}
	}
	es := make([]Edge, 0, len(g.in[s]))
	for _, a := range g.sortedRow(g.in[s]) {
		es = append(es, Edge{From: g.names[a.peer], To: g.names[s], Weight: a.w, Factors: g.fac.list(a.fs), Replica: a.replica})
	}
	return es
}

// sortedRow returns a copy of row sorted by peer name.
func (g *Graph) sortedRow(row []arc) []arc {
	row = slices.Clone(row)
	slices.SortFunc(row, func(x, y arc) int { return strings.Compare(g.names[x.peer], g.names[y.peer]) })
	return row
}

// eachEdge calls f for every edge in Edges() order: by source, then by
// target name. Its allocations do not grow with the edge count.
func (g *Graph) eachEdge(f func(from int, a arc)) {
	order := g.SlotsByName()
	rank := make([]int32, len(g.names)) // position in id order, by slot
	longest := 0
	for r, s := range order {
		rank[s] = int32(r)
		longest = max(longest, len(g.out[s]))
	}
	row := make([]arc, 0, longest)
	for _, s := range order {
		row = append(row[:0], g.out[s]...)
		slices.SortFunc(row, func(x, y arc) int { return cmp.Compare(rank[x.peer], rank[y.peer]) })
		for _, a := range row {
			f(s, a)
		}
	}
}

// EachEdge calls f for every edge in Edges() order with the slots of its
// endpoints, its weight and whether it is a replica edge, without
// building the edge list.
func (g *Graph) EachEdge(f func(from, to int, w float64, replica bool)) {
	g.eachEdge(func(s int, a arc) { f(s, int(a.peer), a.w, a.replica) })
}

// Edges returns every directed edge, sorted by (From, To).
func (g *Graph) Edges() []Edge {
	es := make([]Edge, 0, g.edges)
	g.eachEdge(func(s int, a arc) { es = append(es, g.edge(s, a)) })
	return es
}

// MutualInfluence is the sum of the influences in both directions between
// a and b (§6.1: "combining nodes with high values of mutual influence —
// the sum of influences in each direction").
func (g *Graph) MutualInfluence(a, b string) float64 {
	return g.Influence(a, b) + g.Influence(b, a)
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	return &Graph{
		index:    maps.Clone(g.index),
		names:    slices.Clone(g.names),
		attrs:    slices.Clone(g.attrs),
		out:      cloneRows(g.out),
		in:       cloneRows(g.in),
		head:     slices.Clone(g.head),
		size:     slices.Clone(g.size),
		free:     slices.Clone(g.free),
		edges:    g.edges,
		cells:    slices.Clone(g.cells),
		freeCell: g.freeCell,
		bases:    g.bases[:len(g.bases):len(g.bases)],
		baseIDs:  maps.Clone(g.baseIDs),
		fac:      g.fac.clone(),
	}
}

// cloneRows copies rows into one backing array. Each copied row is capped
// at its length, so growing one reallocates it rather than overwrite its
// neighbour.
func cloneRows(rows [][]arc) [][]arc {
	n := 0
	for _, r := range rows {
		n += len(r)
	}
	backing := make([]arc, 0, n)
	out := make([][]arc, len(rows))
	for i, r := range rows {
		start := len(backing)
		backing = append(backing, r...)
		out[i] = backing[start:len(backing):len(backing)]
	}
	return out
}

// rankByName returns the sorted node ids and, per slot, the position of
// its id among them.
func (g *Graph) rankByName() ([]string, []int) {
	ids := g.Nodes()
	rank := make([]int, len(g.names))
	for i, id := range ids {
		rank[g.index[id]] = i
	}
	return ids, rank
}

// Matrix returns the influence matrix P (P[i][j] = influence of node i on
// node j) together with the sorted node-id index it is expressed in.
// Replica edges contribute 0, matching their weight.
func (g *Graph) Matrix() ([][]float64, []string) {
	ids, rank := g.rankByName()
	n := len(ids)
	p := make([][]float64, n)
	backing := make([]float64, n*n)
	for i := range p {
		p[i] = backing[i*n : (i+1)*n]
	}
	for s, row := range g.out {
		for _, a := range row {
			if !a.replica {
				p[rank[s]][rank[a.peer]] = a.w
			}
		}
	}
	return p, ids
}

// Sparse is a square influence matrix in compressed rows: row i's
// nonzeros are Ent[Start[i]:Start[i+1]], by ascending column, and Start
// has one entry more than there are rows. IDs names the rows and
// columns when the matrix comes from a graph.
type Sparse struct {
	IDs   []string
	Start []int
	Ent   []Entry
}

// Entry is one nonzero of a Sparse row.
type Entry struct {
	Col int
	W   float64
}

// SparseMatrix returns the nonzeros of Matrix in compressed rows, indexed
// by the same sorted ids, without building the dense matrix: zero and
// replica arcs are left out.
func (g *Graph) SparseMatrix() Sparse { return g.SparseRows(g.SlotsByName()) }

// SparseRows is SparseMatrix for a caller that already holds the live
// slots in id order, as SlotsByName returns them. The rows are filled by
// walking the targets in that order over their in-arcs, so every row
// comes out with ascending columns and none needs sorting.
func (g *Graph) SparseRows(order []int) Sparse {
	n := len(order)
	ids := make([]string, n)
	// One buffer holds the rank of each slot and the row starts.
	buf := make([]int, len(g.names)+n+1)
	rank, start := buf[:len(g.names)], buf[len(g.names):]
	for i, s := range order {
		ids[i], rank[s] = g.names[s], i
	}
	// Count each row's arcs into start[r+1], then turn the counts into
	// row starts.
	for _, s := range order {
		for _, a := range g.out[s] {
			if !a.replica && a.w != 0 {
				start[rank[s]+1]++
			}
		}
	}
	for r := 1; r <= n; r++ {
		start[r] += start[r-1]
	}
	// start[r] serves as row r's fill cursor and ends at row r+1's start;
	// shifting by one restores the starts.
	ent := make([]Entry, start[n])
	for c, t := range order {
		for _, a := range g.in[t] {
			if !a.replica && a.w != 0 {
				r := rank[a.peer]
				ent[start[r]] = Entry{Col: c, W: a.w}
				start[r]++
			}
		}
	}
	copy(start[1:], start[:n])
	start[0] = 0
	return Sparse{IDs: ids, Start: start, Ent: ent}
}

// Reachable returns the set of nodes reachable from start along edges with
// positive weight (replica edges do not transmit influence).
func (g *Graph) Reachable(start string) map[string]bool {
	seen := map[string]bool{}
	s, ok := g.index[start]
	if !ok {
		return seen
	}
	mark := make([]bool, len(g.names))
	mark[s] = true
	queue := []int{s}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		seen[g.names[cur]] = true
		for _, a := range g.out[cur] {
			if a.replica || a.w <= 0 || mark[a.peer] {
				continue
			}
			mark[a.peer] = true
			queue = append(queue, int(a.peer))
		}
	}
	return seen
}

// String renders the graph compactly for traces and golden tests.
func (g *Graph) String() string {
	var b strings.Builder
	for _, s := range g.SlotsByName() {
		fmt.Fprintf(&b, "%s [%s]\n", g.names[s], g.attrs[s])
		for _, a := range g.sortedRow(g.out[s]) {
			if a.replica {
				fmt.Fprintf(&b, "  -> %s replica\n", g.names[a.peer])
			} else {
				fmt.Fprintf(&b, "  -> %s %.3g%s\n", g.names[a.peer], a.w, Edge{Factors: g.fac.sets[a.fs].list}.Label())
			}
		}
	}
	return b.String()
}

// --- Slot-level access, for callers that iterate the graph in a hot loop.

// Slot returns the slot of node id. A slot is a dense int that stays with
// the node until it is removed or contracted away; Contract gives its
// result the first member's slot.
func (g *Graph) Slot(id string) (int, bool) {
	s, ok := g.index[id]
	return s, ok
}

// NumSlots returns one more than the largest slot ever used: arrays
// indexed by slot need this length.
func (g *Graph) NumSlots() int { return len(g.names) }

// Name returns the id of the node in slot s, or "" for a free slot.
func (g *Graph) Name(s int) string { return g.names[s] }

// SlotsByName returns the live slots ordered by node id.
func (g *Graph) SlotsByName() []int {
	slots := make([]int, 0, len(g.index))
	for _, s := range g.index {
		slots = append(slots, s)
	}
	slices.SortFunc(slots, func(a, b int) int { return strings.Compare(g.names[a], g.names[b]) })
	return slots
}

// NumMembers returns the number of base nodes in slot s (1 for a plain
// node, the cluster size for a contracted one).
func (g *Graph) NumMembers(s int) int { return int(g.size[s]) }

// AppendMembers appends the base-node ids of slot s to dst in member-name
// order, as Members(Name(s)) lists them, and returns the extended slice.
func (g *Graph) AppendMembers(dst []int32, s int) []int32 {
	for c := g.head[s]; c >= 0; c = g.cells[c].next {
		dst = append(dst, g.cells[c].base)
	}
	return dst
}

// BaseName returns the name of base-node id b.
func (g *Graph) BaseName(b int32) string { return g.bases[b] }

// AreReplicaSlots reports whether the edge a→b is a replica edge.
func (g *Graph) AreReplicaSlots(a, b int) bool {
	e, ok := g.arcBetween(a, b)
	return ok && e.replica
}

// MutualSlots is MutualInfluence of two slots.
func (g *Graph) MutualSlots(a, b int) float64 {
	ab, _ := g.arcBetween(a, b)
	ba, _ := g.arcBetween(b, a)
	return ab.w + ba.w
}

// MutualRow sets row[x] to the mutual influence between slots s and x for
// every slot x; row must hold NumSlots entries. It reads only s's rows.
func (g *Graph) MutualRow(s int, row []float64) {
	clear(row)
	for _, a := range g.out[s] {
		row[a.peer] += a.w
	}
	for _, a := range g.in[s] {
		row[a.peer] += a.w
	}
}
