package mapping

import (
	"sort"

	"repro/internal/attrs"
	"repro/internal/graph"
	"repro/internal/hw"
)

// AssignCriticalityAwareDetailed places clusters with FCR awareness, the
// §5.3 criticality criterion taken to the hardware
// fault-containment-region level: "the selected critical processes should
// be assigned to distinct HW nodes … This ensures that critical processes
// do not affect each other when faults occur." On platforms where several
// processors share an FCR (a cabinet, a power domain), distinct nodes are
// not enough — critical clusters should also sit in distinct FCRs, so a
// region-level HW fault cannot take out two critical functions at once.
//
// Clusters are ordered by descending criticality; a cluster at or above
// threshold prefers (a) nodes in FCRs hosting no other critical cluster,
// then (b) lowest communication cost, as in the standard placement. It
// returns the per-cluster decision trail with the assignment.
func AssignCriticalityAwareDetailed(g *graph.Graph, p *hw.Platform, req Requirements, threshold float64) (Assignment, []Decision, error) {
	order := g.Nodes()
	sort.SliceStable(order, func(i, j int) bool {
		ci := g.Attrs(order[i]).Value(attrs.Criticality)
		cj := g.Attrs(order[j]).Value(attrs.Criticality)
		if ci != cj {
			return ci > cj
		}
		return order[i] < order[j]
	})
	return place(order, g, p, req, rule{fcrAware: true, threshold: threshold})
}
