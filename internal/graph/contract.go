package graph

import (
	"fmt"
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
func (g *Graph) Contract(members []string, combine CombineWeights) (string, error) {
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

	id := ClusterID(flattenMembers(g, members))
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
	if !strings.HasPrefix(id, "{") || !strings.HasSuffix(id, "}") {
		return []string{id}
	}
	inner := id[1 : len(id)-1]
	if inner == "" {
		return nil
	}
	return strings.Split(inner, ",")
}

// MemberCount returns len(Members(id)) without allocating.
func MemberCount(id string) int {
	if !strings.HasPrefix(id, "{") || !strings.HasSuffix(id, "}") {
		return 1
	}
	inner := id[1 : len(id)-1]
	if inner == "" {
		return 0
	}
	return strings.Count(inner, ",") + 1
}

// flattenMembers expands any cluster members into their base ids so that
// repeated contraction produces flat "{a,b,c}" ids rather than nested ones.
func flattenMembers(g *Graph, members []string) []string {
	var out []string
	for _, m := range members {
		out = append(out, Members(m)...)
	}
	return out
}
