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
func (c *Condenser) ReduceBySeparation(target, order int) error {
	if err := c.checkTarget(target); err != nil {
		return err
	}
	for c.G.NumNodes() > target {
		if err := c.checkCtx(); err != nil {
			return err
		}
		p := c.G.SparseMatrix()
		sep, err := influence.SeparationSparse(c.ctx, p, order, c.workers)
		if err != nil {
			return fmt.Errorf("cluster: separation: %w", err)
		}
		ids := p.IDs
		// Mutual coupling of a pair: (1−sep(i,j)) + (1−sep(j,i)), the
		// separation analogue of mutual influence. Pick the most coupled
		// feasible pair; ties break by id order (ids are sorted).
		bestI, bestJ := -1, -1
		bestCoupling := -1.0
		for i := range ids {
			for j := i + 1; j < len(ids); j++ {
				coupling := (1 - sep[i][j]) + (1 - sep[j][i])
				if coupling <= bestCoupling {
					continue
				}
				if ok, _ := c.combinable(ids[i], ids[j]); !ok {
					continue
				}
				bestI, bestJ, bestCoupling = i, j, coupling
			}
		}
		if bestI < 0 {
			return fmt.Errorf("%w: %d nodes remain, target %d",
				ErrCannotReduce, c.G.NumNodes(), target)
		}
		if _, err := c.Combine(ids[bestI], ids[bestJ], "separation"); err != nil {
			return err
		}
	}
	return nil
}
