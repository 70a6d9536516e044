package cluster

import (
	"fmt"
	"sort"
)

// ReduceByCriticality implements §6.2 (Approach B): "the objective is to
// separate critical processes, so that the same faults affect a minimal
// number of such processes."
//
// Per round:
//
//  1. List processes in descending order of criticality.
//  2. Combine the most critical process with the least critical process,
//     the second most critical with the second least, and so on.
//  3. If a high-criticality process cannot be combined with a
//     low-criticality one due to conflicts (timing infeasibility, or the
//     two are replicas), it is combined "with the process preceding p_l on
//     the criticality list" — implemented as backtracking over partner
//     choices, which reproduces the paper's p3a/p3b conflict resolution
//     exactly.
//  4. In subsequent rounds the clusters are ordered by summary criticality
//     (the max, which is what the attribute combination produces) and the
//     steps repeat until the desired number of nodes is reached.
//
// Rounds stop mid-way once the target count is hit; a round that makes no
// progress returns ErrCannotReduce.
func (c *Condenser) ReduceByCriticality(target int) error {
	if err := c.checkTarget(target); err != nil {
		return err
	}
	for c.G.NumNodes() > target {
		if err := c.checkCtx(); err != nil {
			return err
		}
		pairs, ok := c.pairRound()
		if !ok || len(pairs) == 0 {
			// Distinguish "cancelled mid-search" from "genuinely stuck".
			if err := c.checkCtx(); err != nil {
				return err
			}
			return fmt.Errorf("%w: %d nodes remain, target %d",
				ErrCannotReduce, c.G.NumNodes(), target)
		}
		for _, p := range pairs {
			if c.G.NumNodes() <= target {
				break
			}
			if _, err := c.Combine(p[0], p[1], "criticality-pair"); err != nil {
				return err
			}
		}
	}
	return nil
}

// pairRound computes one round of most-with-least pairing over the current
// nodes, with backtracking on conflicts. It returns the chosen pairs in
// pairing order. Odd node counts leave the median node unpaired.
func (c *Condenser) pairRound() ([][2]string, bool) {
	nodes := c.G.Nodes()
	// Descending criticality, name tie-break (gives the paper's ordering).
	sort.Slice(nodes, func(i, j int) bool {
		ci, cj := c.criticalityOf(nodes[i]), c.criticalityOf(nodes[j])
		if ci != cj {
			return ci > cj
		}
		return nodes[i] < nodes[j]
	})

	// The search prefers solutions with as few unpaired nodes as possible:
	// it first attempts a perfect pairing (one singleton when the count is
	// odd), then relaxes by two singletons at a time. This reproduces the
	// paper's conflict resolution, where the p2b+p4 pairing is undone so
	// that p3a and p3b both find partners.
	n := len(nodes)
	for singletons := n % 2; singletons <= n; singletons += 2 {
		used := make([]bool, n)
		var pairs [][2]string
		// budget bounds each backtracking attempt; large graphs fall back
		// to the next relaxation level instead of searching exhaustively.
		budget := 100000

		var solve func(hi, single int) bool
		solve = func(hi, single int) bool {
			for hi < n && used[hi] {
				hi++
			}
			if hi >= n {
				return true
			}
			if budget <= 0 {
				return false
			}
			if c.ctx != nil && budget%256 == 0 && c.ctx.Err() != nil {
				budget = 0 // drain the search; the caller reports ctx.Err()
				return false
			}
			budget--
			used[hi] = true
			// Partner candidates: least critical first (from the end of
			// the descending list upward).
			for lo := n - 1; lo > hi; lo-- {
				if used[lo] {
					continue
				}
				if ok, _ := c.combinable(nodes[hi], nodes[lo]); !ok {
					continue
				}
				used[lo] = true
				pairs = append(pairs, [2]string{nodes[hi], nodes[lo]})
				if solve(hi+1, single) {
					return true
				}
				// The paper's conflict resolution: a later process found no
				// partner, so this tentative pairing is undone and p_hi tries
				// "the process preceding p_l on the criticality list".
				c.backtrack(nodes[hi], nodes[lo])
				pairs = pairs[:len(pairs)-1]
				used[lo] = false
			}
			// Leave hi unpaired if the singleton allowance permits.
			if single > 0 && solve(hi+1, single-1) {
				return true
			}
			used[hi] = false
			return false
		}
		if solve(0, singletons) {
			return pairs, true
		}
	}
	return nil, false
}
