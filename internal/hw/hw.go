// Package hw models the hardware platform of the integration framework
// (ICDCS 1998 §2, §5.1): a fixed topology of homogeneous processors "with
// access to equivalent sets of resources", structured using a hardware
// fault-containment-region (FCR) model.
//
// The worked example uses "a strongly connected network with 6 HW nodes";
// other topologies are provided for the heuristic-comparison experiments.
package hw

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync/atomic"
)

// Errors returned by platform constructors and queries.
var (
	ErrNoSuchNode   = errors.New("hw: no such node")
	ErrBadTopology  = errors.New("hw: invalid topology parameters")
	ErrDuplicateTag = errors.New("hw: duplicate node name")
)

// Node is one processor in the platform.
type Node struct {
	// Name identifies the node, e.g. "hw1".
	Name string
	// FCR is the hardware fault containment region the node belongs to.
	// Nodes in one FCR fail together under a region-level fault.
	FCR string
	// Resources lists named resources available at this node (e.g. an I/O
	// channel present on only one processor — one of the paper's mapping
	// complications).
	Resources map[string]bool
	// Capacity is a relative processing capacity; homogeneous platforms
	// use 1 everywhere.
	Capacity float64
}

// HasResource reports whether the node offers the named resource.
func (n Node) HasResource(r string) bool { return n.Resources[r] }

// Platform is a set of processors and a symmetric communication topology
// with per-link costs.
type Platform struct {
	nodes map[string]*Node
	// links[a][b] = communication cost between a and b (0 = no link); a
	// node without links may have no map. The nodes of Complete share one
	// map, which lists every node at unit cost, the node itself too: a
	// self link never shortens a path, and it marks the map as shared, so
	// Link copies it before a change.
	links map[string]map[string]float64
	// dist caches every Distance answer. The first Distance call builds
	// it; AddNode and Link clear it. Concurrent readers may each build an
	// identical table, and the last store wins.
	dist atomic.Pointer[distTable]
}

// distTable holds the cheapest cost between every ordered pair of nodes,
// indexed by position in name order.
type distTable struct {
	index map[string]int
	n     int
	cost  []float64 // cost[i*n+j]: cheapest cost from node i to node j
	reach []bool    // reach[i*n+j]: node j is reachable from node i
}

// NewPlatform returns an empty platform.
func NewPlatform() *Platform {
	return &Platform{
		nodes: make(map[string]*Node),
		links: make(map[string]map[string]float64),
	}
}

// AddNode inserts a processor.
func (p *Platform) AddNode(n Node) error {
	if n.Name == "" {
		return fmt.Errorf("%w: empty name", ErrNoSuchNode)
	}
	if _, ok := p.nodes[n.Name]; ok {
		return fmt.Errorf("%w: %q", ErrDuplicateTag, n.Name)
	}
	if n.Capacity <= 0 {
		n.Capacity = 1
	}
	if n.Resources == nil {
		n.Resources = map[string]bool{}
	}
	cp := n
	p.nodes[n.Name] = &cp
	p.dist.Store(nil)
	return nil
}

// Link creates a symmetric communication link with the given cost.
func (p *Platform) Link(a, b string, cost float64) error {
	if a == b {
		return fmt.Errorf("%w: self link %q", ErrBadTopology, a)
	}
	if _, ok := p.nodes[a]; !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchNode, a)
	}
	if _, ok := p.nodes[b]; !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchNode, b)
	}
	if cost <= 0 {
		return fmt.Errorf("%w: cost %g", ErrBadTopology, cost)
	}
	for _, e := range [...][2]string{{a, b}, {b, a}} {
		from, to := e[0], e[1]
		own := p.links[from]
		if _, shared := own[from]; shared || own == nil {
			own = make(map[string]float64, len(own))
			for nbr, c := range p.links[from] {
				if nbr != from {
					own[nbr] = c
				}
			}
			p.links[from] = own
		}
		own[to] = cost
	}
	p.dist.Store(nil)
	return nil
}

// Node returns the named node.
func (p *Platform) Node(name string) (*Node, error) {
	n, ok := p.nodes[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchNode, name)
	}
	return n, nil
}

// Nodes returns all node names, sorted.
func (p *Platform) Nodes() []string {
	out := make([]string, 0, len(p.nodes))
	for n := range p.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// NumNodes returns the processor count.
func (p *Platform) NumNodes() int { return len(p.nodes) }

// Distance returns the cheapest communication cost between two nodes
// (Dijkstra over link costs) and whether they are connected at all.
// Distance(a, a) is 0. Answers come from a table built on the first call
// after the topology last changed; concurrent calls are safe.
func (p *Platform) Distance(a, b string) (float64, bool) {
	t := p.dist.Load()
	if t == nil {
		t = p.distances()
		p.dist.Store(t)
	}
	i, ok := t.index[a]
	if !ok {
		return 0, false
	}
	j, ok := t.index[b]
	if !ok || !t.reach[i*t.n+j] {
		return 0, false
	}
	return t.cost[i*t.n+j], true
}

// distances runs Dijkstra from every node. Each run settles the unsettled
// node with the smallest distance next, the first in name order on ties,
// and sums costs along the path from its source, so every entry is the
// value a single-pair search from that source returns.
func (p *Platform) distances() *distTable {
	names := p.Nodes()
	n := len(names)
	t := &distTable{
		index: make(map[string]int, n),
		n:     n,
		cost:  make([]float64, n*n),
		reach: make([]bool, n*n),
	}
	for i, name := range names {
		t.index[name] = i
	}
	type arc struct {
		to   int
		cost float64
	}
	adj := make([][]arc, n)
	for i, name := range names {
		for nbr, cost := range p.links[name] {
			adj[i] = append(adj[i], arc{t.index[nbr], cost})
		}
	}
	done := make([]bool, n)
	for src := 0; src < n; src++ {
		dist := t.cost[src*n : (src+1)*n]
		seen := t.reach[src*n : (src+1)*n]
		clear(done)
		seen[src] = true
		for {
			cur := -1
			for j := range dist {
				if seen[j] && !done[j] && (cur < 0 || dist[j] < dist[cur]) {
					cur = j
				}
			}
			if cur < 0 {
				break
			}
			done[cur] = true
			for _, e := range adj[cur] {
				if d := dist[cur] + e.cost; !seen[e.to] || d < dist[e.to] {
					dist[e.to], seen[e.to] = d, true
				}
			}
		}
	}
	return t
}

// Complete builds the paper's "strongly connected network with n HW
// nodes": every pair linked at unit cost, each node its own FCR, names
// hw1..hwN, sharing one link map. Every distance is known without a search (0 from a node to
// itself, 1 to any other), so the table Distance reads is stored at once;
// it equals the one Dijkstra would build, and AddNode and Link still
// clear it.
func Complete(n int) (*Platform, error) {
	if n < 1 {
		return nil, fmt.Errorf("%w: n=%d", ErrBadTopology, n)
	}
	p := &Platform{
		nodes: make(map[string]*Node, n),
		links: make(map[string]map[string]float64, n),
	}
	all := make(map[string]float64, n)
	for i := 1; i <= n; i++ {
		name := "hw" + strconv.Itoa(i)
		if err := p.AddNode(Node{Name: name, FCR: name}); err != nil {
			return nil, err
		}
		all[name] = 1
		p.links[name] = all
	}
	names := p.Nodes()
	t := &distTable{
		index: make(map[string]int, n),
		n:     n,
		cost:  make([]float64, n*n),
		reach: make([]bool, n*n),
	}
	for i, a := range names {
		t.index[a] = i
		for j := range names {
			if i != j {
				t.cost[i*n+j] = 1
			}
			t.reach[i*n+j] = true
		}
	}
	p.dist.Store(t)
	return p, nil
}

// Ring builds a ring of n nodes (dilation matters on rings, exercising the
// paper's communication-cost discussion in §6).
func Ring(n int) (*Platform, error) {
	if n < 3 {
		return nil, fmt.Errorf("%w: ring needs n>=3, got %d", ErrBadTopology, n)
	}
	p := NewPlatform()
	for i := 1; i <= n; i++ {
		name := fmt.Sprintf("hw%d", i)
		if err := p.AddNode(Node{Name: name, FCR: name}); err != nil {
			return nil, err
		}
	}
	for i := 1; i <= n; i++ {
		a := fmt.Sprintf("hw%d", i)
		b := fmt.Sprintf("hw%d", i%n+1)
		if err := p.Link(a, b, 1); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// Mesh builds a rows×cols grid.
func Mesh(rows, cols int) (*Platform, error) {
	if rows < 1 || cols < 1 || rows*cols < 2 {
		return nil, fmt.Errorf("%w: mesh %dx%d", ErrBadTopology, rows, cols)
	}
	p := NewPlatform()
	name := func(r, c int) string { return fmt.Sprintf("hw%d_%d", r, c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if err := p.AddNode(Node{Name: name(r, c), FCR: name(r, c)}); err != nil {
				return nil, err
			}
		}
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				if err := p.Link(name(r, c), name(r, c+1), 1); err != nil {
					return nil, err
				}
			}
			if r+1 < rows {
				if err := p.Link(name(r, c), name(r+1, c), 1); err != nil {
					return nil, err
				}
			}
		}
	}
	return p, nil
}
