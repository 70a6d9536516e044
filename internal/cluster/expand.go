package cluster

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/attrs"
	"repro/internal/graph"
	"repro/internal/sched"
)

// Expansion is the result of replicating a SW graph per fault-tolerance
// requirements (§5.4, Fig. 4).
type Expansion struct {
	// Graph is the replicated influence graph.
	Graph *graph.Graph
	// ReplicasOf maps each original node id to its replica ids (a node
	// with FT=1 maps to itself).
	ReplicasOf map[string][]string
	// Jobs are the scheduling jobs of all replica nodes, sorted by name.
	Jobs []sched.Job
}

// replicaName derives the i-th replica id of base ("p1" -> "p1a").
func replicaName(base string, i, ft int) string {
	if ft <= 1 {
		return base
	}
	if i < 26 {
		return base + string(rune('a'+i))
	}
	return fmt.Sprintf("%s_r%d", base, i+1)
}

// Expand performs the paper's replication expansion: each node with
// fault-tolerance degree FT ≥ 2 becomes FT replica nodes with identical
// attributes; replicas are linked pairwise by weight-0 replica edges; and
// every influence edge of the original node is duplicated to/from every
// replica ("edges with neighbors are also replicated"). Jobs for replicas
// copy the base node's timing from the supplied job table.
//
// The input graph is not modified.
func Expand(g *graph.Graph, jobs []sched.Job) (*Expansion, error) {
	jobs = sortedJobs(jobs)
	ids := g.Nodes()
	total := 0
	for _, id := range ids {
		total += faultTolerance(g, id)
	}
	out := &Expansion{
		ReplicasOf: make(map[string][]string, len(ids)),
		Jobs:       make([]sched.Job, 0, total),
	}
	names := make([]string, 0, total) // every node's replica ids, in turn
	for _, id := range ids {
		ft := faultTolerance(g, id)
		j, hasJob := findJob(jobs, id)
		start := len(names)
		for i := 0; i < ft; i++ {
			name := replicaName(id, i, ft)
			names = append(names, name)
			if hasJob {
				j.Name = name
				out.Jobs = append(out.Jobs, j)
			}
		}
		out.ReplicasOf[id] = names[start:len(names):len(names)]
	}
	slices.SortFunc(out.Jobs, func(a, b sched.Job) int { return strings.Compare(a.Name, b.Name) })
	eg, err := g.Replicate(out.ReplicasOf)
	if err != nil {
		return nil, fmt.Errorf("cluster: expand: %w", err)
	}
	out.Graph = eg
	return out, nil
}

// faultTolerance returns node id's FT degree, at least 1.
func faultTolerance(g *graph.Graph, id string) int {
	return max(int(g.Attrs(id).Value(attrs.FaultTolerance)), 1)
}

// Condenser builds a Condenser over the expanded graph and its jobs.
func (e *Expansion) Condenser() *Condenser {
	return NewCondenser(e.Graph, e.Jobs)
}
