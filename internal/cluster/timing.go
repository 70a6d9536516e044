package cluster

import (
	"fmt"
	"sort"

	"repro/internal/sched"
)

// ReduceByTiming implements the Fig. 8 technique of §6.2, used "in some
// applications [where] the criticality of all processes might be similar …
// other attributes (such as timing) can be used to generate the mapping":
//
//	"Compute an ordered list of SW nodes. Place the nodes which should
//	preferably be mapped onto the same node adjacent to each other. Next,
//	map SW nodes onto a HW node starting at the top of the list
//	maintaining their compliance to the specified constraints."
//
// Nodes are ordered by (EST, TCD, name) so jobs with compatible windows sit
// adjacent; each node joins the first existing group that remains feasible
// (first-fit), opening a new group otherwise. maxGroups of 0 means
// unlimited; a positive maxGroups fails with ErrCannotReduce if a node fits
// no group and the group budget is exhausted.
func (c *Condenser) ReduceByTiming(maxGroups int) error {
	slots := c.G.SlotsByName()
	type key struct {
		est, tcd float64
	}
	keys := make([]key, c.G.NumSlots())
	var jobs []sched.Job
	for _, s := range slots {
		jobs = c.appendJobs(jobs[:0], s)
		if len(jobs) == 0 {
			continue
		}
		k := key{est: jobs[0].EST, tcd: jobs[0].TCD}
		for _, j := range jobs[1:] {
			if j.EST < k.est {
				k.est = j.EST
			}
			if j.TCD < k.tcd {
				k.tcd = j.TCD
			}
		}
		keys[s] = k
	}
	sort.Slice(slots, func(i, j int) bool {
		a, b := keys[slots[i]], keys[slots[j]]
		if a.est != b.est {
			return a.est < b.est
		}
		if a.tcd != b.tcd {
			return a.tcd < b.tcd
		}
		return c.G.Name(slots[i]) < c.G.Name(slots[j])
	})

	var groups [][]int
	var candidate []int
	for _, s := range slots {
		if err := c.checkCtx(); err != nil {
			return err
		}
		placed := false
		for gi := range groups {
			candidate = append(append(candidate[:0], groups[gi]...), s)
			if c.groupFeasible(candidate) {
				groups[gi] = append(groups[gi], s)
				placed = true
				break
			}
		}
		if placed {
			continue
		}
		if maxGroups > 0 && len(groups) >= maxGroups {
			return fmt.Errorf("%w: %q fits no group within %d groups",
				ErrCannotReduce, c.G.Name(s), maxGroups)
		}
		groups = append(groups, []int{s})
	}
	return c.materialise(groups, "timing-order")
}
