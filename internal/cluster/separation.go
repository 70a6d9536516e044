package cluster

import (
	"fmt"

	"repro/internal/influence"
)

// ReduceBySeparation is the transitive-coupling variant of H1: instead of
// combining the pair with the highest *direct* mutual influence, it
// combines the feasible pair with the lowest mutual *separation* (Eq. 3),
// which also accounts for influence routed through intermediate FCMs
// ("it is also possible to increase separation by reducing the influence
// between other FCMs through which the two interact", §4.2.4).
//
// order is the truncation order of the separation series
// (influence.DefaultMaxOrder when < 1). This heuristic is the ablation
// DESIGN.md §6 calls out against H1's direct-influence criterion.
//
// Every merge is followed by a full Eq. 3 sweep. A merge changes P only
// in the merged node's row and column, but the separation of any two
// other nodes sums the paths through the merged node too, so no row of
// the previous sweep can be reused (TestSeparationMergeChangesOtherRows).
func (c *Condenser) ReduceBySeparation(target, order int) error {
	if err := c.checkTarget(target); err != nil {
		return err
	}
	live := c.G.SlotsByName()
	for c.G.NumNodes() > target {
		var err error
		if live, err = c.separationStep(live, target, order); err != nil {
			return err
		}
	}
	return nil
}

// separationStep makes one merge of ReduceBySeparation. live lists the
// working graph's slots in id order; it returns the list after the merge.
func (c *Condenser) separationStep(live []int, target, order int) ([]int, error) {
	if err := c.checkCtx(); err != nil {
		return live, err
	}
	sep, err := influence.SeparationSparse(c.ctx, c.G.SparseRows(live), order, c.workers)
	if err != nil {
		return live, fmt.Errorf("cluster: separation: %w", err)
	}
	// Mutual coupling of a pair: (1−sep(i,j)) + (1−sep(j,i)), the
	// separation analogue of mutual influence. Pick the most coupled
	// feasible pair; ties break by id order (live is in id order).
	bestI, bestJ := -1, -1
	bestCoupling := -1.0
	for i, si := range live {
		for j := i + 1; j < len(live); j++ {
			coupling := (1 - sep[i][j]) + (1 - sep[j][i])
			if coupling <= bestCoupling {
				continue
			}
			if ok, _ := c.combinableSlots(si, live[j]); !ok {
				continue
			}
			bestI, bestJ, bestCoupling = i, j, coupling
		}
	}
	if bestI < 0 {
		return live, fmt.Errorf("%w: %d nodes remain, target %d",
			ErrCannotReduce, c.G.NumNodes(), target)
	}
	a, b := live[bestI], live[bestJ]
	s, err := c.combineSlots(a, b, "separation")
	if err != nil {
		return live, err
	}
	return replaceMerged(c.G, live, a, b, s), nil
}
