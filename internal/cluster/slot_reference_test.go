package cluster

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/attrs"
	"repro/internal/graph"
	"repro/internal/influence"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/spec"
)

// This file keeps H1's pair-all variation and the separation-guided
// reduction as they ran before they worked on slots: node ids sorted
// afresh every round or merge, mutual influence read pair by pair through
// string-keyed edge lookups, and feasibility checks and merges made by
// name. TestPairAllMatchesStringReference and
// TestSeparationMatchesStringReference hold the slot-based loops to them.

// refPairAllRound is one round of ReduceByInfluencePairAll on the
// reference, reporting whether it merged any pair.
func refPairAllRound(c *Condenser, target int) (bool, error) {
	type pair struct {
		a, b   string
		mutual float64
	}
	nodes := c.G.Nodes()
	var pairs []pair
	for i, a := range nodes {
		for _, b := range nodes[i+1:] {
			pairs = append(pairs, pair{a, b, c.G.MutualInfluence(a, b)})
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].mutual != pairs[j].mutual {
			return pairs[i].mutual > pairs[j].mutual
		}
		if pairs[i].a != pairs[j].a {
			return pairs[i].a < pairs[j].a
		}
		return pairs[i].b < pairs[j].b
	})
	used := map[string]bool{}
	progressed := false
	for _, p := range pairs {
		if c.G.NumNodes() <= target {
			break
		}
		if used[p.a] || used[p.b] {
			continue
		}
		if ok, _ := c.combinable(p.a, p.b); !ok {
			continue
		}
		if _, err := c.Combine(p.a, p.b, "H1-pair-all"); err != nil {
			return progressed, err
		}
		used[p.a], used[p.b] = true, true
		progressed = true
	}
	return progressed, nil
}

// refSeparationStep is one merge of ReduceBySeparation on the reference.
func refSeparationStep(c *Condenser, target, order int) error {
	p := c.G.SparseMatrix()
	sep, err := influence.SeparationSparse(c.ctx, p, order, c.workers)
	if err != nil {
		return fmt.Errorf("cluster: separation: %w", err)
	}
	ids := p.IDs
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
	_, err = c.Combine(ids[bestI], ids[bestJ], "separation")
	return err
}

// observedPair returns two condensers over the expansion of sys, each
// observed by its own registry, and the registries.
func observedPair(t *testing.T, sys *spec.System) (c, ref *Condenser, reg, refReg *obs.Registry) {
	t.Helper()
	condenser := func() *Condenser {
		g, err := sys.Graph()
		if err != nil {
			t.Fatal(err)
		}
		exp, err := Expand(g, sys.Jobs())
		if err != nil {
			t.Fatal(err)
		}
		return exp.Condenser()
	}
	c, ref = condenser(), condenser()
	reg, refReg = obs.NewRegistry(), obs.NewRegistry()
	c.Observe(nil, reg)
	ref.Observe(nil, refReg)
	return c, ref, reg, refReg
}

// requireSameCondenser fails unless c and its reference hold the same
// trace, with bit-equal mutual influence, the same partition and the same
// counters.
func requireSameCondenser(t *testing.T, where string, c, ref *Condenser, reg, refReg *obs.Registry) {
	t.Helper()
	if len(c.Trace) != len(ref.Trace) {
		t.Fatalf("%s: %d steps, reference %d\n got %v\nwant %v", where, len(c.Trace), len(ref.Trace), c.Trace, ref.Trace)
	}
	for i, s := range c.Trace {
		r := ref.Trace[i]
		if s.A != r.A || s.B != r.B || s.Result != r.Result || s.Rule != r.Rule ||
			math.Float64bits(s.Mutual) != math.Float64bits(r.Mutual) {
			t.Fatalf("%s: step %d is %+v, reference %+v", where, i+1, s, r)
		}
	}
	if got, want := c.Partition(), ref.Partition(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: partition %v, reference %v", where, got, want)
	}
	if got, want := counters(reg), counters(refReg); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: counters %v, reference %v", where, got, want)
	}
}

// TestPairAllMatchesStringReference runs ReduceByInfluencePairAll's rounds
// and the string-keyed reference's in lockstep on two copies of each
// system of h1Systems, reduced to its HW node count: after every round
// both must have made the same merges and left the same partition and
// counters, and report the same progress and error.
func TestPairAllMatchesStringReference(t *testing.T) {
	defer sched.Observe(nil)
	merges := 0
	for name, sys := range h1Systems(t) {
		t.Run(name, func(t *testing.T) {
			c, ref, reg, refReg := observedPair(t, sys)
			var r pairAllRound
			for round := 1; c.G.NumNodes() > sys.HWNodes; round++ {
				sched.Observe(reg)
				progressed, err := r.run(c, sys.HWNodes)
				sched.Observe(refReg)
				refProgressed, refErr := refPairAllRound(ref, sys.HWNodes)
				sched.Observe(nil)
				where := fmt.Sprintf("round %d", round)
				requireSameCondenser(t, where, c, ref, reg, refReg)
				if progressed != refProgressed || fmt.Sprint(err) != fmt.Sprint(refErr) {
					t.Fatalf("%s: progressed %v err %v, reference %v %v", where, progressed, err, refProgressed, refErr)
				}
				if !progressed || err != nil {
					break
				}
			}
			merges += len(c.Trace)
		})
	}
	t.Logf("%d merges matched", merges)
	if merges == 0 {
		t.Error("no system merged anything")
	}
}

// TestSeparationMatchesStringReference runs ReduceBySeparation's merges
// and the string-keyed reference's in lockstep on two copies of each
// system of h1Systems, reduced to its HW node count: after every merge
// both must have made the same merges and left the same partition and
// counters, and report the same error. The maintained slot order must
// equal SlotsByName, and the rows SparseRows builds from it must equal
// SparseMatrix's.
func TestSeparationMatchesStringReference(t *testing.T) {
	defer sched.Observe(nil)
	merges := 0
	for name, sys := range h1Systems(t) {
		t.Run(name, func(t *testing.T) {
			c, ref, reg, refReg := observedPair(t, sys)
			live := c.G.SlotsByName()
			for merge := 1; c.G.NumNodes() > sys.HWNodes; merge++ {
				var err error
				sched.Observe(reg)
				live, err = c.separationStep(live, sys.HWNodes, 0)
				sched.Observe(refReg)
				refErr := refSeparationStep(ref, sys.HWNodes, 0)
				sched.Observe(nil)
				where := fmt.Sprintf("merge %d", merge)
				requireSameCondenser(t, where, c, ref, reg, refReg)
				if fmt.Sprint(err) != fmt.Sprint(refErr) {
					t.Fatalf("%s: err %v, reference %v", where, err, refErr)
				}
				if err != nil {
					break
				}
				if want := c.G.SlotsByName(); !slices.Equal(live, want) {
					t.Fatalf("%s: slot order %v, SlotsByName %v", where, live, want)
				}
				if got, want := c.G.SparseRows(live), c.G.SparseMatrix(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: SparseRows %+v, SparseMatrix %+v", where, got, want)
				}
			}
			merges += len(c.Trace)
		})
	}
	t.Logf("%d merges matched", merges)
	if merges == 0 {
		t.Error("no system merged anything")
	}
}

// TestSeparationMergeChangesOtherRows pins why ReduceBySeparation sweeps
// Eq. 3 afresh after every merge: on the chain x → a → b → y, merging a
// and b changes sep(x, y), although neither x nor y took part in the merge
// and P changed only in the merged node's row and column.
func TestSeparationMergeChangesOtherRows(t *testing.T) {
	g := graph.New()
	for _, id := range []string{"a", "b", "x", "y"} {
		if err := g.AddNode(id, attrs.Set{}); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range []struct {
		from, to string
		w        float64
	}{{"x", "a", 0.5}, {"a", "b", 0.9}, {"b", "y", 0.5}} {
		if err := g.SetEdge(e.from, e.to, e.w); err != nil {
			t.Fatal(err)
		}
	}
	sepOf := func(g *graph.Graph, from, to string) float64 {
		t.Helper()
		p := g.SparseMatrix()
		sep, err := influence.SeparationSparse(nil, p, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		return sep[slices.Index(p.IDs, from)][slices.Index(p.IDs, to)]
	}
	before := sepOf(g, "x", "y")
	c := NewCondenser(g, nil)
	if err := c.ReduceBySeparation(3, 0); err != nil {
		t.Fatal(err)
	}
	if s := c.Trace[0]; s.A != "a" || s.B != "b" {
		t.Fatalf("first merge %v, want a + b", s)
	}
	if after := sepOf(c.G, "x", "y"); after == before {
		t.Errorf("sep(x, y) = %v before and after merging a and b; want it changed", before)
	}
}
