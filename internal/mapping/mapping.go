// Package mapping assigns condensed SW clusters to HW processors and
// evaluates the "goodness" of a mapping per ICDCS 1998 §5.3–5.4.
//
// The goodness criteria of §5.3:
//
//   - Satisfaction of constraints — absolute semantic/temporal/resource
//     constraints; always the primary concern.
//   - Containment of faults — FCMs that influence each other strongly
//     share a node so that cross-node interaction (and hence fault
//     propagation across HW nodes) is minimized.
//   - Criticality — critical processes sit on distinct HW nodes and are
//     combined only with non-critical ones.
//
// Two satisficing assignment heuristics are provided, following §5.4:
// Approach A orders clusters by node importance; Approach B proceeds
// lexicographically over attributes in decreasing importance.
package mapping

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/attrs"
	"repro/internal/graph"
	"repro/internal/hw"
)

// Errors returned by assignment and evaluation.
var (
	ErrTooManyClusters = errors.New("mapping: more clusters than HW nodes")
	ErrNoFeasibleNode  = errors.New("mapping: no HW node satisfies a cluster's requirements")
)

// Requirements maps base SW node names to the HW resources they need
// (e.g. the paper's "need for a resource present on only one processor").
type Requirements map[string][]string

// forCluster unions the requirements of a cluster's members.
func (r Requirements) forCluster(clusterID string) []string {
	if len(r) == 0 {
		return nil
	}
	seen := map[string]bool{}
	var out []string
	for _, m := range graph.Members(clusterID) {
		for _, res := range r[m] {
			if !seen[res] {
				seen[res] = true
				out = append(out, res)
			}
		}
	}
	sort.Strings(out)
	return out
}

// Assignment maps each SW cluster id to a HW node name.
type Assignment map[string]string

// Clusters returns the assigned cluster ids, sorted.
func (a Assignment) Clusters() []string {
	out := make([]string, 0, len(a))
	for c := range a {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// NodeOf returns the HW node hosting the given base SW node name (searching
// cluster members), or "" if not found. A base listed in several clusters
// is hosted by the first of them in id order, as Evaluate places it.
func (a Assignment) NodeOf(base string) string {
	for _, cluster := range a.Clusters() {
		if slices.Contains(graph.Members(cluster), base) {
			return a[cluster]
		}
	}
	return ""
}

// Alternative is one feasible-but-not-chosen HW node of a placement
// decision, with the communication cost the chosen node beat.
type Alternative struct {
	Node string
	Cost float64
}

// Decision records one cluster-to-processor choice of a placement pass:
// the node picked, the influence-weighted communication cost it was
// picked at, and every other feasible node with its cost — the provenance
// the run ledger preserves.
type Decision struct {
	Cluster      string
	Node         string
	Cost         float64
	Alternatives []Alternative
}

// rule is how a placement pass picks among the feasible nodes for one
// cluster. The zero rule is the standard one of Approaches A and B:
// lower cost, then fewer resources. fcrAware is the rule of
// AssignCriticalityAwareDetailed: a cluster at or above threshold
// criticality first prefers a node whose FCR hosts no critical cluster
// yet, then lower cost, with no resource tie-break.
type rule struct {
	fcrAware  bool
	threshold float64
}

// placedCluster is a placed cluster a later candidate's cost may sum
// over: its id, graph slot and HW node index.
type placedCluster struct {
	id       string
	slot, hw int
}

// peer is one term of a candidate's cost: a placed cluster's mutual
// influence with the cluster being placed, and its HW node index.
type peer struct {
	m  float64
	hw int
}

// place greedily assigns ordered clusters, distinct ids, to HW nodes.
// Each cluster goes to an unused node that offers its required resources;
// among valid nodes it picks by r, minimizing the influence-weighted
// communication distance to already-placed clusters (the dilation concern
// of §6), with name order breaking ties. The returned decisions record,
// per cluster, the chosen node and the feasible alternatives it beat.
//
// The platform's nodes and distances are read into int-indexed tables
// once per call. A candidate's cost sums m·d over the placed clusters in
// cluster-name order, skipping those with m <= 0 (every cluster absent
// from g), so equal costs compare equal bit for bit between runs.
func place(order []string, g *graph.Graph, p *hw.Platform, req Requirements, r rule) (Assignment, []Decision, error) {
	if len(order) > p.NumNodes() {
		return nil, nil, fmt.Errorf("%w: %d clusters, %d nodes", ErrTooManyClusters, len(order), p.NumNodes())
	}
	names := p.Nodes()
	n := len(names)
	nodes := make([]*hw.Node, n)
	dist := make([]float64, n*n) // dist[i*n+j]: Distance(names[i], names[j]) or the disconnected penalty
	for i, name := range names {
		node, err := p.Node(name)
		if err != nil {
			return nil, nil, err
		}
		nodes[i] = node
		for j, other := range names {
			d, conn := p.Distance(name, other)
			if !conn {
				d = float64(n) // disconnected penalty
			}
			dist[i*n+j] = d
		}
	}

	asg := make(Assignment, len(order))
	decisions := make([]Decision, 0, len(order))
	used := make([]bool, n)
	criticalFCRs := map[string]bool{}
	placed := make([]placedCluster, 0, len(order)) // by id
	row := make([]float64, g.NumSlots())
	peers := make([]peer, 0, len(order))
	feasible := make([]Alternative, 0, n)
	for _, cluster := range order {
		needs := req.forCluster(cluster)
		critical := r.fcrAware && g.Attrs(cluster).Value(attrs.Criticality) >= r.threshold
		slot, inGraph := g.Slot(cluster)
		peers = peers[:0]
		if inGraph {
			g.MutualRow(slot, row)
			for _, pc := range placed {
				if m := row[pc.slot]; !(m <= 0) { // a NaN m stays in the sum
					peers = append(peers, peer{m, pc.hw})
				}
			}
		}
		best, bestCost, bestFresh := -1, 0.0, false
		feasible = feasible[:0]
		for i, node := range nodes {
			if used[i] || !hasAll(node, needs) {
				continue
			}
			cost := 0.0
			d := dist[i*n : (i+1)*n]
			for _, pr := range peers {
				cost += pr.m * d[pr.hw]
			}
			feasible = append(feasible, Alternative{Node: names[i], Cost: cost})
			fresh := r.fcrAware && !criticalFCRs[node.FCR]
			better := false
			switch {
			case best < 0:
				better = true
			case critical && fresh != bestFresh:
				better = fresh // a fresh FCR dominates for critical clusters
			case cost < bestCost:
				better = true
			case !r.fcrAware && cost == bestCost && len(node.Resources) < len(nodes[best].Resources):
				// Among equal costs prefer the node with the fewest
				// resources, so scarce resources stay free for the
				// clusters that need them (the paper's "resource present
				// on only one processor" complication).
				better = true
			}
			if better {
				best, bestCost, bestFresh = i, cost, fresh
			}
		}
		if best < 0 {
			return nil, nil, fmt.Errorf("%w: cluster %s needs %v", ErrNoFeasibleNode, cluster, needs)
		}
		asg[cluster] = names[best]
		used[best] = true
		if critical {
			criticalFCRs[nodes[best].FCR] = true
		}
		if inGraph {
			at, _ := slices.BinarySearchFunc(placed, cluster, func(pc placedCluster, id string) int {
				return strings.Compare(pc.id, id)
			})
			placed = slices.Insert(placed, at, placedCluster{cluster, slot, best})
		}
		decisions = append(decisions, Decision{
			Cluster:      cluster,
			Node:         names[best],
			Cost:         bestCost,
			Alternatives: beaten(feasible, names[best]),
		})
	}
	return asg, decisions, nil
}

// hasAll reports whether node offers every resource in needs.
func hasAll(node *hw.Node, needs []string) bool {
	for _, res := range needs {
		if !node.HasResource(res) {
			return false
		}
	}
	return true
}

// beaten filters the chosen node out of the feasible candidates, leaving
// the alternatives a placement decision beat (in platform node order).
func beaten(feasible []Alternative, chosen string) []Alternative {
	if len(feasible) < 2 {
		return nil
	}
	out := make([]Alternative, 0, len(feasible)-1)
	for _, alt := range feasible {
		if alt.Node != chosen {
			out = append(out, alt)
		}
	}
	return out
}

// AssignByImportanceDetailed implements Approach A of §5.4: "Evaluate
// importance of each SW node based on its attributes. Map 'most important'
// SW node onto a HW node such that all its resource requirements are
// satisfied." It returns the per-cluster decision trail (chosen node,
// cost, beaten alternatives) with the assignment.
func AssignByImportanceDetailed(g *graph.Graph, p *hw.Platform, w attrs.Weights, req Requirements) (Assignment, []Decision, error) {
	order := g.Nodes()
	sort.SliceStable(order, func(i, j int) bool {
		ii, ij := w.Importance(g.Attrs(order[i])), w.Importance(g.Attrs(order[j]))
		if ii != ij {
			return ii > ij
		}
		return order[i] < order[j]
	})
	return place(order, g, p, req, rule{})
}

// AssignLexicographicDetailed implements Approach B of §5.4: "List
// attributes in decreasing importance, and proceed lexicographically. The
// most important attribute is considered first (say criticality) … the
// next most important attribute is considered (breaking ties) and so on."
// It returns the assignment and the per-cluster decision trail.
func AssignLexicographicDetailed(g *graph.Graph, p *hw.Platform, kinds []attrs.Kind, req Requirements) (Assignment, []Decision, error) {
	if len(kinds) == 0 {
		kinds = []attrs.Kind{attrs.Criticality, attrs.FaultTolerance}
	}
	order := g.Nodes()
	sort.SliceStable(order, func(i, j int) bool {
		ai, aj := g.Attrs(order[i]), g.Attrs(order[j])
		for _, k := range kinds {
			vi, vj := ai.Value(k), aj.Value(k)
			if vi != vj {
				return vi > vj
			}
		}
		return order[i] < order[j]
	})
	return place(order, g, p, req, rule{})
}

// Report quantifies the goodness of a mapping per §5.3.
type Report struct {
	// ConstraintsOK is true when every cluster is assigned to a distinct
	// node satisfying its resource requirements.
	ConstraintsOK bool
	// Violations lists human-readable constraint failures.
	Violations []string
	// CrossInfluence is the total influence between FCMs on different HW
	// nodes (lower = better containment). Measured over the original,
	// pre-reduction graph.
	CrossInfluence float64
	// InternalInfluence is the influence contained within HW nodes.
	InternalInfluence float64
	// Containment is InternalInfluence / (Internal + Cross); 1 when all
	// influence is contained (or there is none).
	Containment float64
	// MaxNodeCriticality is the largest summed criticality hosted by one
	// HW node (lower = better criticality dispersion).
	MaxNodeCriticality float64
	// CriticalPairsColocated counts pairs of processes at or above the
	// criticality threshold sharing a HW node.
	CriticalPairsColocated int
	// CriticalPairsSharedFCR counts critical pairs whose HW nodes share a
	// fault containment region (>= CriticalPairsColocated on platforms
	// with multi-node FCRs; equal when every node is its own FCR).
	CriticalPairsSharedFCR int
	// CommCost is the dilation: Σ influence(u→v) × distance(hw(u), hw(v))
	// over cross-node edges.
	CommCost float64
}

// EvalConfig parameterises Evaluate.
type EvalConfig struct {
	// CriticalThreshold marks a process as critical for the colocated-pair
	// count. Zero disables the count.
	CriticalThreshold float64
	// Requirements, when non-nil, are re-checked against the platform.
	Requirements Requirements
}

// Evaluate scores an assignment of clusters (over the condensed graph's
// node ids) against the original full influence graph and the platform.
// A base node listed in more than one cluster is placed by the first of
// them in id order, and each repeat is a violation.
//
// The walk runs on full's slots: every member is resolved to a host (a
// distinct assigned node name) once, each host pair's distance is looked
// up once, and the sums run in the orders of the string walk they
// replaced (edges in Edges() order, criticality in sorted base order), so
// every float is the same bit for bit.
func Evaluate(full *graph.Graph, asg Assignment, p *hw.Platform, cfg EvalConfig) Report {
	rep := Report{ConstraintsOK: true}
	clusters := asg.Clusters()

	// Constraint pass: distinct nodes, resources available.
	hosts := make([]host, 0, len(clusters))
	hostIndex := make(map[string]int, len(clusters))
	hostOf := make([]int, len(clusters)) // by cluster index
	for i, cluster := range clusters {
		nodeName := asg[cluster]
		h, dup := hostIndex[nodeName]
		if dup {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("HW node %s hosts both %s and %s", nodeName, hosts[h].last, cluster))
		} else {
			h = len(hosts)
			hostIndex[nodeName] = h
			node, _ := p.Node(nodeName)
			hosts = append(hosts, host{name: nodeName, node: node})
		}
		hosts[h].last = cluster
		hostOf[i] = h
		node := hosts[h].node
		if node == nil {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("cluster %s assigned to unknown node %s", cluster, nodeName))
			continue
		}
		if cfg.Requirements != nil {
			for _, res := range cfg.Requirements.forCluster(cluster) {
				if !node.HasResource(res) {
					rep.Violations = append(rep.Violations,
						fmt.Sprintf("cluster %s needs %s, absent on %s", cluster, res, nodeName))
				}
			}
		}
	}

	// Place each member by the first cluster listing it: at[s] is that
	// cluster's host for full's slot s (-1 for none), extraOwner the
	// cluster index for members full lacks.
	at := make([]int, full.NumSlots())
	first := make([]int, full.NumSlots()) // cluster index by slot
	for s := range at {
		at[s], first[s] = -1, -1
	}
	var extraOwner map[string]int
	var members []string
	for i, cluster := range clusters {
		members = graph.AppendMembers(members[:0], cluster)
		for _, m := range members {
			prev := i
			if s, ok := full.Slot(m); !ok {
				if j, seen := extraOwner[m]; seen {
					prev = j
				} else {
					if extraOwner == nil {
						extraOwner = map[string]int{}
					}
					extraOwner[m] = i
				}
			} else if first[s] >= 0 {
				prev = first[s]
			} else {
				first[s], at[s] = i, hostOf[i]
			}
			if prev != i {
				rep.Violations = append(rep.Violations,
					fmt.Sprintf("base node %s in both %s and %s", m, clusters[prev], cluster))
			}
		}
	}
	placed := func(s int) bool { return at[s] >= 0 && hosts[at[s]].name != "" }
	order := full.SlotsByName()
	for _, s := range order {
		if !placed(s) {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("base node %s unassigned", full.Name(s)))
		}
	}
	rep.ConstraintsOK = len(rep.Violations) == 0

	// Containment + dilation over the full graph.
	dist := make([]float64, len(hosts)*len(hosts))
	known := make([]bool, len(dist))
	full.EachEdge(func(from, to int, w float64, replica bool) {
		if replica || !placed(from) || !placed(to) {
			return
		}
		hu, hv := at[from], at[to]
		if hu == hv {
			rep.InternalInfluence += w
			return
		}
		rep.CrossInfluence += w
		k := hu*len(hosts) + hv
		if !known[k] {
			d, conn := p.Distance(hosts[hu].name, hosts[hv].name)
			if !conn {
				d = float64(p.NumNodes())
			}
			dist[k], known[k] = d, true
		}
		rep.CommCost += w * dist[k]
	})
	if total := rep.InternalInfluence + rep.CrossInfluence; total > 0 {
		rep.Containment = rep.InternalInfluence / total
	} else {
		rep.Containment = 1
	}

	// Criticality dispersion. Accumulate in sorted base order: float
	// addition is order-sensitive in the last ulps. full's bases come in
	// id order already; the members it lacks are merged in.
	extras := make([]string, 0, len(extraOwner))
	for m := range extraOwner {
		extras = append(extras, m)
	}
	slices.Sort(extras)
	add := func(base string, h int) {
		c := full.Attrs(base).Value(attrs.Criticality)
		hosts[h].crit += c
		if cfg.CriticalThreshold > 0 && c >= cfg.CriticalThreshold {
			hosts[h].critical++
		}
	}
	for _, s := range order {
		base := full.Name(s)
		for len(extras) > 0 && extras[0] < base {
			add(extras[0], hostOf[extraOwner[extras[0]]])
			extras = extras[1:]
		}
		if at[s] >= 0 {
			add(base, at[s])
		}
	}
	for _, m := range extras {
		add(m, hostOf[extraOwner[m]])
	}
	for _, h := range hosts {
		if h.crit > rep.MaxNodeCriticality {
			rep.MaxNodeCriticality = h.crit
		}
		if h.critical > 1 {
			rep.CriticalPairsColocated += h.critical * (h.critical - 1) / 2
		}
	}
	if cfg.CriticalThreshold > 0 {
		perFCR := map[string]int{}
		for _, h := range hosts {
			if h.node != nil { // unknown nodes are already violations
				perFCR[h.node.FCR] += h.critical
			}
		}
		for _, k := range perFCR {
			rep.CriticalPairsSharedFCR += k * (k - 1) / 2
		}
	}
	return rep
}

// host is one distinct HW node name of an assignment under Evaluate: the
// platform node (nil when unknown), the last cluster seen on it, and the
// summed criticality and critical-base count of the bases it hosts.
type host struct {
	name     string
	node     *hw.Node
	last     string
	crit     float64
	critical int
}
