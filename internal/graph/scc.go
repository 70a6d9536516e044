package graph

import "sort"

// StronglyConnectedComponents returns the strongly connected components of
// the influence graph (replica edges excluded — they carry no influence),
// using Tarjan's algorithm. Components are returned as sorted member
// lists, ordered by their smallest member.
//
// Influence cycles matter to the framework: the Eq. (3) separation series
// sums path products over all walks, and a component whose cycle products
// are large makes high-order terms significant (experiment E4's
// oscillation) — worth surfacing to the designer.
func (g *Graph) StronglyConnectedComponents() [][]string {
	n := len(g.names)
	index := make([]int, n) // 1 + visit order; 0 = unvisited
	lowlink := make([]int, n)
	onStack := make([]bool, n)
	var stack []int
	counter := 0
	var comps [][]string

	var strongconnect func(v int)
	strongconnect = func(v int) {
		counter++
		index[v], lowlink[v] = counter, counter
		stack = append(stack, v)
		onStack[v] = true
		for _, a := range g.out[v] {
			if a.replica || a.w <= 0 {
				continue
			}
			w := int(a.peer)
			if index[w] == 0 {
				strongconnect(w)
				lowlink[v] = min(lowlink[v], lowlink[w])
			} else if onStack[w] {
				lowlink[v] = min(lowlink[v], index[w])
			}
		}
		if lowlink[v] == index[v] {
			var comp []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, g.names[w])
				if w == v {
					break
				}
			}
			sort.Strings(comp)
			comps = append(comps, comp)
		}
	}
	for _, v := range g.SlotsByName() {
		if index[v] == 0 {
			strongconnect(v)
		}
	}
	sort.Slice(comps, func(i, j int) bool { return comps[i][0] < comps[j][0] })
	return comps
}

// InfluenceCycles returns the non-trivial strongly connected components
// (size ≥ 2) together with the maximum single-cycle feedback observed on a
// simple two-hop loop inside each (the product w(a→b)·w(b→a) maximised
// over member pairs — a cheap lower bound on the component's feedback
// strength).
type CycleReport struct {
	Members []string
	// TwoHopFeedback is max over member pairs of w(a→b)·w(b→a).
	TwoHopFeedback float64
}

// InfluenceCycles reports the graph's influence cycles.
func (g *Graph) InfluenceCycles() []CycleReport {
	var out []CycleReport
	for _, comp := range g.StronglyConnectedComponents() {
		if len(comp) < 2 {
			continue
		}
		rep := CycleReport{Members: comp}
		for i, a := range comp {
			for _, b := range comp[i+1:] {
				fb := g.Influence(a, b) * g.Influence(b, a)
				if fb > rep.TwoHopFeedback {
					rep.TwoHopFeedback = fb
				}
			}
		}
		out = append(out, rep)
	}
	return out
}
