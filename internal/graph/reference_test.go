package graph

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/attrs"
)

// This file keeps the string-keyed graph the slot-indexed one replaced —
// map-of-map adjacency, Contract rebuilding rows through RemoveNode,
// SetEdge and AddReplicaEdge, and cluster ids parsed back into members —
// as a differential oracle. FuzzGraphMatchesReference requires Graph to
// agree with it after every step. Two changes from that code: Contract
// checks that the cluster id is free before it mutates anything, and
// CrossWeight and InternalWeight sum in Edges() order. It also keeps the
// min-cuts the slice-based ones replaced — Stoer–Wagner with per-phase
// maps and string cut sides, Edmonds–Karp allocating its BFS buffers per
// augmentation — for FuzzMinCutMatchesReference.

// refGraph is the string-keyed graph.
type refGraph struct {
	nodes map[string]attrs.Set
	// out[from][to] = Edge. At most one edge per ordered pair: influence is
	// already a combination over factors.
	out map[string]map[string]Edge
	in  map[string]map[string]Edge
}

// newRef returns an empty reference graph.
func newRef() *refGraph {
	return &refGraph{
		nodes: make(map[string]attrs.Set),
		out:   make(map[string]map[string]Edge),
		in:    make(map[string]map[string]Edge),
	}
}

// AddNode inserts a node with the given attribute set.
func (g *refGraph) AddNode(id string, a attrs.Set) error {
	if id == "" {
		return fmt.Errorf("%w: empty id", ErrNoSuchNode)
	}
	if _, ok := g.nodes[id]; ok {
		return fmt.Errorf("%w: %q", ErrDuplicateNode, id)
	}
	g.nodes[id] = a
	g.out[id] = make(map[string]Edge)
	g.in[id] = make(map[string]Edge)
	return nil
}

// RemoveNode deletes a node and all incident edges.
func (g *refGraph) RemoveNode(id string) error {
	if _, ok := g.nodes[id]; !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchNode, id)
	}
	for to := range g.out[id] {
		delete(g.in[to], id)
	}
	for from := range g.in[id] {
		delete(g.out[from], id)
	}
	delete(g.nodes, id)
	delete(g.out, id)
	delete(g.in, id)
	return nil
}

// HasNode reports whether id exists.
func (g *refGraph) HasNode(id string) bool {
	_, ok := g.nodes[id]
	return ok
}

// Attrs returns the attribute set of node id (zero Set if absent).
func (g *refGraph) Attrs(id string) attrs.Set { return g.nodes[id] }

// SetAttrs replaces the attribute set of node id.
func (g *refGraph) SetAttrs(id string, a attrs.Set) error {
	if _, ok := g.nodes[id]; !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchNode, id)
	}
	g.nodes[id] = a
	return nil
}

// NumNodes returns the node count.
func (g *refGraph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the directed edge count.
func (g *refGraph) NumEdges() int {
	n := 0
	for _, m := range g.out {
		n += len(m)
	}
	return n
}

// Nodes returns all node ids in sorted order (deterministic iteration).
func (g *refGraph) Nodes() []string {
	ids := make([]string, 0, len(g.nodes))
	for id := range g.nodes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// SetEdge inserts or replaces the directed influence edge from→to.
// Replica edges must use AddReplicaEdge.
func (g *refGraph) SetEdge(from, to string, weight float64, factors ...string) error {
	if err := g.checkPair(from, to); err != nil {
		return err
	}
	if !(weight >= 0 && weight <= 1) {
		return fmt.Errorf("%w: %g", ErrBadWeight, weight)
	}
	e := Edge{From: from, To: to, Weight: weight, Factors: append([]string(nil), factors...)}
	g.out[from][to] = e
	g.in[to][from] = e
	return nil
}

// AddReplicaEdge links two replicas of one module with the paper's
// weight-0 marker, in both directions (the relation is symmetric).
func (g *refGraph) AddReplicaEdge(a, b string) error {
	if err := g.checkPair(a, b); err != nil {
		return err
	}
	for _, p := range [][2]string{{a, b}, {b, a}} {
		e := Edge{From: p[0], To: p[1], Weight: 0, Replica: true}
		g.out[p[0]][p[1]] = e
		g.in[p[1]][p[0]] = e
	}
	return nil
}

func (g *refGraph) checkPair(from, to string) error {
	if from == to {
		return fmt.Errorf("%w: %q", ErrSelfEdge, from)
	}
	if _, ok := g.nodes[from]; !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchNode, from)
	}
	if _, ok := g.nodes[to]; !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchNode, to)
	}
	return nil
}

// RemoveEdge deletes the directed edge from→to if present.
func (g *refGraph) RemoveEdge(from, to string) {
	if m, ok := g.out[from]; ok {
		delete(m, to)
	}
	if m, ok := g.in[to]; ok {
		delete(m, from)
	}
}

// EdgeBetween returns the directed edge from→to and whether it exists.
func (g *refGraph) EdgeBetween(from, to string) (Edge, bool) {
	e, ok := g.out[from][to]
	return e, ok
}

// Influence returns the influence weight FCM_from → FCM_to; 0 when no edge.
func (g *refGraph) Influence(from, to string) float64 {
	return g.out[from][to].Weight
}

// AreReplicas reports whether a and b are joined by a replica edge.
func (g *refGraph) AreReplicas(a, b string) bool {
	e, ok := g.out[a][b]
	return ok && e.Replica
}

// OutEdges returns the out-edges of id sorted by target (deterministic).
func (g *refGraph) OutEdges(id string) []Edge {
	return refSortEdges(g.out[id], func(e Edge) string { return e.To })
}

// InEdges returns the in-edges of id sorted by source.
func (g *refGraph) InEdges(id string) []Edge {
	return refSortEdges(g.in[id], func(e Edge) string { return e.From })
}

func refSortEdges(m map[string]Edge, key func(Edge) string) []Edge {
	es := make([]Edge, 0, len(m))
	for _, e := range m {
		es = append(es, e)
	}
	sort.Slice(es, func(i, j int) bool { return key(es[i]) < key(es[j]) })
	return es
}

// Edges returns every directed edge, sorted by (From, To).
func (g *refGraph) Edges() []Edge {
	es := make([]Edge, 0, g.NumEdges())
	for _, id := range g.Nodes() {
		es = append(es, g.OutEdges(id)...)
	}
	return es
}

// MutualInfluence is the sum of the influences in both directions between
// a and b (§6.1: "combining nodes with high values of mutual influence —
// the sum of influences in each direction").
func (g *refGraph) MutualInfluence(a, b string) float64 {
	return g.Influence(a, b) + g.Influence(b, a)
}

// Clone returns a deep copy of the graph.
func (g *refGraph) Clone() *refGraph {
	c := newRef()
	for id, a := range g.nodes {
		c.nodes[id] = a
		c.out[id] = make(map[string]Edge, len(g.out[id]))
		c.in[id] = make(map[string]Edge, len(g.in[id]))
	}
	for from, m := range g.out {
		for to, e := range m {
			e.Factors = append([]string(nil), e.Factors...)
			c.out[from][to] = e
			c.in[to][from] = e
		}
	}
	return c
}

// Matrix returns the influence matrix P (P[i][j] = influence of node i on
// node j) together with the sorted node-id index it is expressed in.
// Replica edges contribute 0, matching their weight.
func (g *refGraph) Matrix() ([][]float64, []string) {
	ids := g.Nodes()
	idx := make(map[string]int, len(ids))
	for i, id := range ids {
		idx[id] = i
	}
	p := make([][]float64, len(ids))
	backing := make([]float64, len(ids)*len(ids))
	for i := range p {
		p[i] = backing[i*len(ids) : (i+1)*len(ids)]
	}
	for from, m := range g.out {
		for to, e := range m {
			if !e.Replica {
				p[idx[from]][idx[to]] = e.Weight
			}
		}
	}
	return p, ids
}

// Reachable returns the set of nodes reachable from start along edges with
// positive weight (replica edges do not transmit influence).
func (g *refGraph) Reachable(start string) map[string]bool {
	seen := map[string]bool{}
	if _, ok := g.nodes[start]; !ok {
		return seen
	}
	queue := []string{start}
	seen[start] = true
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for to, e := range g.out[cur] {
			if e.Replica || e.Weight <= 0 || seen[to] {
				continue
			}
			seen[to] = true
			queue = append(queue, to)
		}
	}
	return seen
}

// String renders the graph compactly for traces and golden tests.
func (g *refGraph) String() string {
	var b strings.Builder
	for _, id := range g.Nodes() {
		fmt.Fprintf(&b, "%s [%s]\n", id, g.nodes[id])
		for _, e := range g.OutEdges(id) {
			if e.Replica {
				fmt.Fprintf(&b, "  -> %s replica\n", e.To)
			} else {
				fmt.Fprintf(&b, "  -> %s %.3g%s\n", e.To, e.Weight, e.Label())
			}
		}
	}
	return b.String()
}

// Contract merges the given member nodes into a single cluster node and
// returns the id of the new node. Per §5.2:
//
//   - internal influences disappear;
//   - if several cluster members had individual influences on a common
//     neighbour, those values are combined (with combine — Eq. (4));
//   - if any component node had a replica (weight-0) edge to a neighbour,
//     the resulting edge is also a replica edge ("the final value is
//     also 0") — the constraint is absorbing;
//   - node attributes combine per the standard attribute policies.
//
// Contract fails if the member set includes two replicas of one module
// (they must be mapped to different HW nodes) or references unknown nodes.
func (g *refGraph) Contract(members []string, combine CombineWeights) (string, error) {
	if len(members) == 0 {
		return "", fmt.Errorf("%w: empty member set", ErrNoSuchNode)
	}
	set := make(map[string]bool, len(members))
	for _, m := range members {
		if !g.HasNode(m) {
			return "", fmt.Errorf("%w: %q", ErrNoSuchNode, m)
		}
		if set[m] {
			return "", fmt.Errorf("graph: duplicate member %q", m)
		}
		set[m] = true
	}
	for i, a := range members {
		for _, b := range members[i+1:] {
			if g.AreReplicas(a, b) {
				return "", fmt.Errorf("graph: %w: %q and %q", ErrReplicaConflict, a, b)
			}
		}
	}

	// The cluster id must not belong to another node: the check comes
	// before any mutation, so a failed Contract leaves the graph as it was.
	id := ClusterID(refFlattenMembers(g, members))
	if g.HasNode(id) && !set[id] {
		return "", fmt.Errorf("%w: %q", ErrDuplicateNode, id)
	}

	// Combined attributes.
	sets := make([]attrs.Set, 0, len(members))
	for _, m := range members {
		sets = append(sets, g.Attrs(m))
	}
	clusterAttrs := attrs.CombineAll(sets...)

	// Collect external influences in both directions, keyed by neighbour.
	type agg struct {
		weights []float64
		factors map[string]bool
		replica bool
	}
	outAgg := map[string]*agg{}
	inAgg := map[string]*agg{}
	accumulate := func(m map[string]*agg, nbr string, e Edge) {
		a := m[nbr]
		if a == nil {
			a = &agg{factors: map[string]bool{}}
			m[nbr] = a
		}
		if e.Replica {
			a.replica = true
			return
		}
		a.weights = append(a.weights, e.Weight)
		for _, f := range e.Factors {
			a.factors[f] = true
		}
	}
	for _, m := range members {
		for to, e := range g.out[m] {
			if !set[to] {
				accumulate(outAgg, to, e)
			}
		}
		for from, e := range g.in[m] {
			if !set[from] {
				accumulate(inAgg, from, e)
			}
		}
	}

	for _, m := range members {
		if err := g.RemoveNode(m); err != nil {
			return "", err
		}
	}
	if err := g.AddNode(id, clusterAttrs); err != nil {
		return "", err
	}
	apply := func(m map[string]*agg, makeEdge func(nbr string, w float64, factors []string) error, replicate func(nbr string) error) error {
		nbrs := make([]string, 0, len(m))
		for n := range m {
			nbrs = append(nbrs, n)
		}
		sort.Strings(nbrs)
		for _, nbr := range nbrs {
			a := m[nbr]
			if a.replica {
				if err := replicate(nbr); err != nil {
					return err
				}
				continue
			}
			fs := make([]string, 0, len(a.factors))
			for f := range a.factors {
				fs = append(fs, f)
			}
			sort.Strings(fs)
			if err := makeEdge(nbr, combine(a.weights), fs); err != nil {
				return err
			}
		}
		return nil
	}
	err := apply(outAgg,
		func(nbr string, w float64, fs []string) error { return g.SetEdge(id, nbr, w, fs...) },
		func(nbr string) error { return g.AddReplicaEdge(id, nbr) })
	if err != nil {
		return "", err
	}
	err = apply(inAgg,
		func(nbr string, w float64, fs []string) error {
			// A replica edge set while processing outAgg is symmetric;
			// do not overwrite it with a weighted edge.
			if g.AreReplicas(nbr, id) {
				return nil
			}
			return g.SetEdge(nbr, id, w, fs...)
		},
		func(nbr string) error { return g.AddReplicaEdge(nbr, id) })
	if err != nil {
		return "", err
	}
	return id, nil
}

// refFlattenMembers expands any cluster members into their base ids so that
// repeated contraction produces flat "{a,b,c}" ids rather than nested ones.
func refFlattenMembers(_ *refGraph, members []string) []string {
	var out []string
	for _, m := range members {
		out = append(out, Members(m)...)
	}
	return out
}

// CrossWeight is Graph.CrossWeight on the reference.
func (g *refGraph) CrossWeight(partition [][]string) float64 {
	return g.partitionWeight(partition, false)
}

// InternalWeight is Graph.InternalWeight on the reference.
func (g *refGraph) InternalWeight(partition [][]string) float64 {
	return g.partitionWeight(partition, true)
}

func (g *refGraph) partitionWeight(partition [][]string, internal bool) float64 {
	groupOf := map[string]int{}
	for gi, grp := range partition {
		for _, id := range grp {
			groupOf[id] = gi
		}
	}
	total := 0.0
	for _, e := range g.Edges() {
		if e.Replica {
			continue
		}
		gf, okF := groupOf[e.From]
		gt, okT := groupOf[e.To]
		if okF && okT && (gf == gt) == internal {
			total += e.Weight
		}
	}
	return total
}

// fuzzNames are the plain node ids the fuzz target adds; cluster ids come
// from Contract.
var fuzzNames = []string{"a", "b", "c", "d", "e", "f", "g", "h"}

// fuzzFactors are the factor names SetEdge draws from, in any order and
// with repeats.
var fuzzFactors = []string{"msg", "mem", "time", "io"}

// seqCombine is a CombineWeights that depends on the order and number of
// its weights, so any change in which weights Contract passes, or in what
// order, changes the combined edge.
func seqCombine(ws []float64) float64 {
	w := 0.0
	for _, x := range ws {
		w = w*0.5 + x*0.5
	}
	return w
}

// FuzzGraphMatchesReference drives random sequences of AddNode, SetEdge
// (repeated and unsorted factors included), AddReplicaEdge, RemoveEdge,
// RemoveNode, SetAttrs, Clone and multi-member Contract (replica
// conflicts, unknown and repeated members included) through Graph and the
// string-keyed reference. After every step both must report the same
// error, and the same nodes, edges (factors included), matrix, members,
// attributes, rendering and partition weights, bit for bit; the slot
// structure must stay consistent; and graphs left behind by Clone must be
// unchanged by later steps on the clone.
func FuzzGraphMatchesReference(f *testing.F) {
	f.Add(uint64(1), []byte{7, 0, 1, 1, 7, 2, 0, 1, 0, 7, 1, 1, 2, 0})
	f.Add(uint64(4), []byte("Z70X110110"))
	f.Add(uint64(2), []byte{0, 0, 0, 1, 0, 2, 1, 0, 1, 90, 2, 1, 2, 7, 8, 0, 1, 2, 0, 0})
	f.Add(uint64(3), []byte{0, 0, 0, 1, 0, 2, 0, 3, 2, 0, 1, 1, 2, 3, 60, 3, 1, 0, 3, 1, 1, 3, 40, 2, 2, 0, 7, 1, 2, 0, 2, 3, 7, 1, 0, 1})
	f.Add(uint64(4), []byte{0, 4, 0, 5, 1, 4, 5, 250, 3, 0, 1, 0, 6, 1, 5, 4, 251, 7, 2, 4, 5, 5, 4, 4, 1, 0})
	f.Add(uint64(5), []byte{0, 0, 0, 1, 0, 2, 0, 3, 1, 0, 2, 25, 2, 0, 1, 1, 1, 2, 50, 1, 3, 1, 2, 75, 2, 2, 7, 2, 0, 1, 7, 1, 4, 3, 7, 2, 4, 4, 9, 9})
	f.Add(uint64(6), []byte{0, 1, 0, 1, 7, 0, 1, 0, 1, 7, 0, 1, 4, 1, 5, 2, 33, 8, 0})
	f.Fuzz(runGraphOps)
}

// runGraphOps is FuzzGraphMatchesReference's body. Both graphs start as
// the same seeded graph over fuzzNames, dense enough that contracted
// members share neighbours; ops then decodes into graph operations.
func runGraphOps(t *testing.T, seed uint64, ops []byte) {
	g, r := New(), newRef()
	pr := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	for _, id := range fuzzNames[:pr.IntN(len(fuzzNames)+1)] {
		a := attrs.Timing(float64(pr.IntN(9)), 1+pr.IntN(3), float64(pr.IntN(4)), float64(10+pr.IntN(20)), 1)
		if err := g.AddNode(id, a); err != nil {
			t.Fatal(err)
		}
		if err := r.AddNode(id, a); err != nil {
			t.Fatal(err)
		}
	}
	for _, from := range g.Nodes() {
		for _, to := range g.Nodes() {
			switch k := pr.IntN(10); {
			case from == to || k < 4:
			case k == 4:
				if g.AddReplicaEdge(from, to) != nil || r.AddReplicaEdge(from, to) != nil {
					t.Fatal("AddReplicaEdge failed")
				}
			default:
				w := pr.Float64()
				fs := make([]string, pr.IntN(4))
				for i := range fs {
					fs[i] = fuzzFactors[pr.IntN(len(fuzzFactors))]
				}
				if g.SetEdge(from, to, w, fs...) != nil || r.SetEdge(from, to, w, fs...) != nil {
					t.Fatal("SetEdge failed")
				}
			}
		}
	}
	type pair struct {
		g *Graph
		r *refGraph
	}
	var stash []pair
	next := func() int {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return int(b)
	}
	// pick names a node: usually a live one, sometimes a plain name
	// that may or may not exist.
	pick := func() string {
		b := next()
		if nodes := r.Nodes(); len(nodes) > 0 && b%3 != 0 {
			return nodes[next()%len(nodes)]
		}
		if b%17 == 0 {
			return "zz"
		}
		return fuzzNames[b%len(fuzzNames)]
	}
	set := func() attrs.Set {
		b := next()
		if b%5 == 0 {
			return attrs.Set{}
		}
		return attrs.Timing(float64(b%7), b%4, float64(b%3), float64(10+b%11), float64(1+b%5))
	}
	for step := 0; len(ops) > 0 && step < 128; step++ {
		var errG, errR error
		var what string
		switch op := next() % 9; op {
		case 0:
			id, a := fuzzNames[next()%len(fuzzNames)], set()
			what = "AddNode " + id
			errG, errR = g.AddNode(id, a), r.AddNode(id, a)
		case 1, 8:
			from, to := pick(), pick()
			w := float64(next()) / 250
			fs := make([]string, next()%5)
			for i := range fs {
				fs[i] = fuzzFactors[next()%len(fuzzFactors)]
			}
			what = fmt.Sprintf("SetEdge %s %s %g %v", from, to, w, fs)
			errG, errR = g.SetEdge(from, to, w, fs...), r.SetEdge(from, to, w, fs...)
		case 2:
			a, b := pick(), pick()
			what = "AddReplicaEdge " + a + " " + b
			errG, errR = g.AddReplicaEdge(a, b), r.AddReplicaEdge(a, b)
		case 3:
			from, to := pick(), pick()
			what = "RemoveEdge " + from + " " + to
			g.RemoveEdge(from, to)
			r.RemoveEdge(from, to)
		case 4:
			id := pick()
			what = "RemoveNode " + id
			errG, errR = g.RemoveNode(id), r.RemoveNode(id)
		case 5:
			id, a := pick(), set()
			what = "SetAttrs " + id
			errG, errR = g.SetAttrs(id, a), r.SetAttrs(id, a)
		case 6:
			what = "Clone"
			stash = append(stash, pair{g, r})
			g, r = g.Clone(), r.Clone()
		case 7:
			members := make([]string, next()%4+1)
			for i := range members {
				members[i] = pick()
			}
			combine := eq4
			if next()%2 == 0 {
				combine = seqCombine
			}
			what = fmt.Sprintf("Contract %v", members)
			idG, eG := g.Contract(members, combine)
			idR, eR := r.Contract(members, combine)
			errG, errR = eG, eR
			if idG != idR {
				t.Fatalf("step %d %s: id %q, reference %q", step, what, idG, idR)
			}
		}
		if fmt.Sprint(errG) != fmt.Sprint(errR) {
			t.Fatalf("step %d %s: err %v, reference %v", step, what, errG, errR)
		}
		for _, sentinel := range []error{ErrDuplicateNode, ErrNoSuchNode, ErrSelfEdge, ErrBadWeight, ErrReplicaConflict} {
			if errors.Is(errG, sentinel) != errors.Is(errR, sentinel) {
				t.Fatalf("step %d %s: errors.Is(%v, %v) differs from the reference's %v", step, what, errG, sentinel, errR)
			}
		}
		requireSameGraph(t, fmt.Sprintf("step %d %s", step, what), g, r)
	}
	for i, p := range stash {
		requireSameGraph(t, fmt.Sprintf("stashed clone %d", i), p.g, p.r)
	}
}

// requireSameGraph fails unless g reads back exactly like the reference r
// and g's slot structure is consistent.
func requireSameGraph(t *testing.T, where string, g *Graph, r *refGraph) {
	t.Helper()
	checkSlots(t, where, g)
	nodes := g.Nodes()
	if want := r.Nodes(); !reflect.DeepEqual(nodes, want) {
		t.Fatalf("%s: Nodes %v, reference %v", where, nodes, want)
	}
	edges := g.Edges()
	if want := r.Edges(); !reflect.DeepEqual(edges, want) {
		t.Fatalf("%s: Edges\n %+v\nreference\n %+v", where, edges, want)
	}
	if g.NumEdges() != len(edges) {
		t.Fatalf("%s: NumEdges %d, Edges lists %d", where, g.NumEdges(), len(edges))
	}
	if g.NumEdges() != r.NumEdges() || g.NumNodes() != r.NumNodes() {
		t.Fatalf("%s: %d nodes %d edges, reference %d, %d", where, g.NumNodes(), g.NumEdges(), r.NumNodes(), r.NumEdges())
	}
	pg, idsG := g.Matrix()
	pr, idsR := r.Matrix()
	if !reflect.DeepEqual(pg, pr) || !reflect.DeepEqual(idsG, idsR) {
		t.Fatalf("%s: Matrix %v %v, reference %v %v", where, pg, idsG, pr, idsR)
	}
	if got, want := g.String(), r.String(); got != want {
		t.Fatalf("%s: String\n%s\nreference\n%s", where, got, want)
	}
	var parts [3][]string
	for i, id := range nodes {
		s, _ := g.Slot(id)
		var members []string
		for _, b := range g.AppendMembers(nil, s) {
			members = append(members, g.BaseName(b))
		}
		if want := Members(id); !reflect.DeepEqual(members, want) || g.NumMembers(s) != len(want) {
			t.Fatalf("%s: members of %s = %v (%d), want %v", where, id, members, g.NumMembers(s), want)
		}
		if !g.Attrs(id).Equal(r.Attrs(id)) {
			t.Fatalf("%s: attrs of %s = %s, reference %s", where, id, g.Attrs(id), r.Attrs(id))
		}
		if got, want := g.OutEdges(id), r.OutEdges(id); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: OutEdges(%s) %+v, reference %+v", where, id, got, want)
		}
		if got, want := g.InEdges(id), r.InEdges(id); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: InEdges(%s) %+v, reference %+v", where, id, got, want)
		}
		parts[i%3] = append(parts[i%3], id)
	}
	partition := parts[:]
	if got, want := g.CrossWeight(partition), r.CrossWeight(partition); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: CrossWeight %v, reference %v", where, got, want)
	}
	if got, want := g.InternalWeight(partition), r.InternalWeight(partition); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: InternalWeight %v, reference %v", where, got, want)
	}
}

// checkSlots verifies the slot structure: every arc's twin mirrors it, the
// edge count matches the rows, the index matches the names, and free slots
// are empty.
func checkSlots(t *testing.T, where string, g *Graph) {
	t.Helper()
	edges := 0
	for s := range g.names {
		if g.names[s] == "" {
			if len(g.out[s])+len(g.in[s]) != 0 || g.head[s] != -1 {
				t.Fatalf("%s: free slot %d has rows or members", where, s)
			}
			continue
		}
		if g.index[g.names[s]] != s {
			t.Fatalf("%s: index of %q is %d, want %d", where, g.names[s], g.index[g.names[s]], s)
		}
		edges += len(g.out[s])
		for i, a := range g.out[s] {
			b := g.in[a.peer][a.twin]
			if int(b.peer) != s || int(b.twin) != i || b.w != a.w || b.fs != a.fs || b.replica != a.replica {
				t.Fatalf("%s: out[%d][%d] = %+v, twin %+v", where, s, i, a, b)
			}
		}
		for i, a := range g.in[s] {
			if b := g.out[a.peer][a.twin]; int(b.peer) != s || int(b.twin) != i {
				t.Fatalf("%s: in[%d][%d] = %+v, twin %+v", where, s, i, a, b)
			}
		}
	}
	if edges != g.edges || len(g.index) != len(g.names)-len(g.free) {
		t.Fatalf("%s: %d edges in rows, count %d; %d indexed, %d slots, %d free", where, edges, g.edges, len(g.index), len(g.names), len(g.free))
	}
}

// TestReplicateMatchesReference holds Replicate, which builds straight
// into slots, to the expansion as the reference builds it: AddNode per
// replica, AddReplicaEdge per replica pair, then SetEdge per replicated
// weighted edge.
func TestReplicateMatchesReference(t *testing.T) {
	for seed := uint32(1); seed <= 50; seed++ {
		s := seed
		next := func(n int) int {
			s = s*1664525 + 1013904223
			return int(s>>8) % n
		}
		g := New()
		for _, id := range fuzzNames {
			if err := g.AddNode(id, attrs.Timing(float64(next(9)), 1+next(3), 0, 20, 1)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 20; i++ {
			from, to := fuzzNames[next(len(fuzzNames))], fuzzNames[next(len(fuzzNames))]
			fs := make([]string, next(3))
			for k := range fs {
				fs[k] = fuzzFactors[next(len(fuzzFactors))]
			}
			if next(6) == 0 {
				_ = g.AddReplicaEdge(from, to)
			} else {
				_ = g.SetEdge(from, to, float64(next(1000))/1000, fs...)
			}
		}
		replicas := map[string][]string{}
		r := newRef()
		for _, id := range g.Nodes() {
			ft := int(g.Attrs(id).Value(attrs.FaultTolerance))
			for i := 0; i < ft; i++ {
				name := id
				if ft > 1 {
					name = fmt.Sprintf("%s%c", id, 'a'+i)
				}
				replicas[id] = append(replicas[id], name)
				if err := r.AddNode(name, g.Attrs(id)); err != nil {
					t.Fatal(err)
				}
			}
			for i, a := range replicas[id] {
				for _, b := range replicas[id][i+1:] {
					if err := r.AddReplicaEdge(a, b); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		for _, e := range g.Edges() {
			if e.Replica {
				continue
			}
			for _, from := range replicas[e.From] {
				for _, to := range replicas[e.To] {
					if err := r.SetEdge(from, to, e.Weight, e.Factors...); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		got, err := g.Replicate(replicas)
		if err != nil {
			t.Fatal(err)
		}
		requireSameGraph(t, fmt.Sprintf("seed %d", seed), got, r)
	}
}

// symmetric returns the reference's symmetrized influence matrix over the
// sorted node ids, summing arcs in map order.
func (g *refGraph) symmetric() ([][]float64, []string) {
	ids := g.Nodes()
	idx := make(map[string]int, len(ids))
	for i, id := range ids {
		idx[id] = i
	}
	w := make([][]float64, len(ids))
	for i := range w {
		w[i] = make([]float64, len(ids))
	}
	for from, m := range g.out {
		for to, e := range m {
			if e.Replica {
				continue
			}
			i, j := idx[from], idx[to]
			w[i][j] += e.Weight
			w[j][i] += e.Weight
		}
	}
	return w, ids
}

// GlobalMinCut is the map-based Stoer–Wagner GlobalMinCut replaced.
func (g *refGraph) GlobalMinCut() (Cut, error) {
	if g.NumNodes() < 2 {
		return Cut{}, ErrTooSmall
	}
	w, ids := g.symmetric()
	n := len(ids)
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

// MinCutST is the allocating Edmonds–Karp MinCutST replaced.
func (g *refGraph) MinCutST(s, t string) (Cut, error) {
	if !g.HasNode(s) || !g.HasNode(t) {
		return Cut{}, ErrNoSuchNode
	}
	if s == t {
		return Cut{}, ErrSelfEdge
	}
	capM, ids := g.symmetric()
	n := len(ids)
	si := sort.SearchStrings(ids, s)
	ti := sort.SearchStrings(ids, t)
	flowTotal := 0.0
	const eps = 1e-12
	for {
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

// FuzzMinCutMatchesReference builds the same random graph in Graph and the
// reference — nodes added in shuffled order, a removed node leaving a free
// slot, replica edges, weights drawn from a few tied values or at random,
// and nodes split into components that no edge joins — and requires
// GlobalMinCut and MinCutST between random nodes to return the same sides
// and bit-equal weights.
func FuzzMinCutMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint8(6), uint8(0), uint8(1))
	f.Add(uint64(2), uint8(12), uint8(3), uint8(9))
	f.Add(uint64(3), uint8(2), uint8(0), uint8(1))
	f.Add(uint64(4), uint8(9), uint8(7), uint8(7))
	f.Add(uint64(5), uint8(1), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, size, si, ti uint8) {
		pr := rand.New(rand.NewPCG(seed, seed^0x5851f42d4c957f2d))
		n := int(size)%14 + 1
		names := make([]string, n+1)
		for i := range names {
			names[i] = fmt.Sprintf("n%02d", i)
		}
		pr.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
		g, r := New(), newRef()
		for _, id := range names {
			if g.AddNode(id, attrs.Set{}) != nil || r.AddNode(id, attrs.Set{}) != nil {
				t.Fatal("AddNode failed")
			}
		}
		// Remove one node so a free slot sits among the live ones.
		gone := names[pr.IntN(len(names))]
		if g.RemoveNode(gone) != nil || r.RemoveNode(gone) != nil {
			t.Fatal("RemoveNode failed")
		}
		nodes := g.Nodes()
		comps := 1 + pr.IntN(3)
		comp := make(map[string]int, len(nodes))
		for _, id := range nodes {
			comp[id] = pr.IntN(comps)
		}
		tied := pr.IntN(2) == 0
		for _, from := range nodes {
			for _, to := range nodes {
				if from == to || comp[from] != comp[to] {
					continue
				}
				switch k := pr.IntN(10); {
				case k < 4:
				case k == 4:
					if g.AddReplicaEdge(from, to) != nil || r.AddReplicaEdge(from, to) != nil {
						t.Fatal("AddReplicaEdge failed")
					}
				default:
					w := pr.Float64()
					if tied {
						w = float64(pr.IntN(4)) / 4
					}
					if g.SetEdge(from, to, w) != nil || r.SetEdge(from, to, w) != nil {
						t.Fatal("SetEdge failed")
					}
				}
			}
		}
		got, errG := g.GlobalMinCut()
		want, errR := r.GlobalMinCut()
		requireSameCut(t, "GlobalMinCut", got, errG, want, errR)
		if len(nodes) == 0 {
			return
		}
		s, d := nodes[int(si)%len(nodes)], nodes[int(ti)%len(nodes)]
		got, errG = g.MinCutST(s, d)
		want, errR = r.MinCutST(s, d)
		requireSameCut(t, "MinCutST "+s+" "+d, got, errG, want, errR)
	})
}

// requireSameCut fails unless a cut and its error match the reference's,
// with the weight compared bit for bit.
func requireSameCut(t *testing.T, what string, got Cut, errG error, want Cut, errR error) {
	t.Helper()
	if fmt.Sprint(errG) != fmt.Sprint(errR) {
		t.Fatalf("%s: err %v, reference %v", what, errG, errR)
	}
	if !slices.Equal(got.S, want.S) || !slices.Equal(got.T, want.T) ||
		math.Float64bits(got.Weight) != math.Float64bits(want.Weight) {
		t.Fatalf("%s: %v | %v (%v), reference %v | %v (%v)", what, got.S, got.T, got.Weight, want.S, want.T, want.Weight)
	}
}
