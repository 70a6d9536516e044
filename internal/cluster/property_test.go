package cluster

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/attrs"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/scengen"
	"repro/internal/sched"
	"repro/internal/spec"
)

// randomSystem builds a seeded random influence graph with loose timing so
// that feasibility rarely blocks merges, plus its job table.
func randomSystem(seed uint64, n int) (*graph.Graph, []sched.Job) {
	rng := rand.New(rand.NewPCG(seed, seed^0xbeef))
	g := graph.New()
	jobs := make([]sched.Job, 0, n)
	names := make([]string, 0, n)
	for i := 0; i < n; i++ {
		name := string(rune('a' + i))
		names = append(names, name)
		ft := 1
		if rng.IntN(4) == 0 {
			ft = 2
		}
		a := attrs.Timing(1+rng.Float64()*10, ft, 0, 1000, 1+rng.Float64()*3)
		if err := g.AddNode(name, a); err != nil {
			panic(err)
		}
		jobs = append(jobs, sched.Job{Name: name, EST: 0, TCD: 1000, CT: a.Value(attrs.ComputeTime)})
	}
	for i := 0; i < n*2; i++ {
		a, b := names[rng.IntN(n)], names[rng.IntN(n)]
		if a == b {
			continue
		}
		_ = g.SetEdge(a, b, 0.05+rng.Float64()*0.8)
	}
	return g, jobs
}

func totalWeight(g *graph.Graph) float64 {
	t := 0.0
	for _, e := range g.Edges() {
		if !e.Replica {
			t += e.Weight
		}
	}
	return t
}

// TestContractNeverIncreasesPairwiseInfluence checks the Eq. (4) bound:
// after any contraction, each remaining edge weight stays a probability
// and the combined influence on a neighbour is at least the max of its
// components (checked via CrossWeight monotonicity of the partition).
func TestContractNeverIncreasesPairwiseInfluence(t *testing.T) {
	f := func(seed uint16) bool {
		g, jobs := randomSystem(uint64(seed), 8)
		full := g.Clone()
		c := NewCondenser(g, jobs)
		// Merge any three feasible pairs.
		for step := 0; step < 3; step++ {
			a, b, ok := rescanBestPair(c)
			if !ok {
				break
			}
			before := full.CrossWeight(c.Partition())
			if _, err := c.Combine(a, b, "prop"); err != nil {
				return false
			}
			after := full.CrossWeight(c.Partition())
			// Each merge can only internalise influence.
			if after > before+1e-9 {
				return false
			}
			// All remaining edges are probabilities.
			for _, e := range c.G.Edges() {
				if !e.Replica && (e.Weight < 0 || e.Weight > 1) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestReductionPreservesBaseMembers checks no base node is ever lost or
// duplicated by any heuristic.
func TestReductionPreservesBaseMembers(t *testing.T) {
	heuristics := []struct {
		name   string
		reduce func(c *Condenser, target int) error
	}{
		{"H1", func(c *Condenser, tgt int) error { return c.ReduceByInfluence(tgt) }},
		{"H1pair", func(c *Condenser, tgt int) error { return c.ReduceByInfluencePairAll(tgt) }},
		{"H2", func(c *Condenser, tgt int) error { return c.ReduceByMinCut(tgt) }},
		{"H3", func(c *Condenser, tgt int) error { return c.ReduceBySpheres(tgt, defaultWeights(t)) }},
		{"crit", func(c *Condenser, tgt int) error { return c.ReduceByCriticality(tgt) }},
		{"sep", func(c *Condenser, tgt int) error { return c.ReduceBySeparation(tgt, 4) }},
	}
	for _, h := range heuristics {
		t.Run(h.name, func(t *testing.T) {
			f := func(seed uint16) bool {
				g, jobs := randomSystem(uint64(seed)+7, 9)
				exp, err := Expand(g, jobs)
				if err != nil {
					return false
				}
				want := map[string]bool{}
				for _, n := range exp.Graph.Nodes() {
					want[n] = true
				}
				c := NewCondenser(exp.Graph, exp.Jobs)
				target := 4
				if err := h.reduce(c, target); err != nil {
					return true // infeasible reductions are acceptable
				}
				got := map[string]bool{}
				for _, grp := range c.Partition() {
					for _, m := range grp {
						if got[m] {
							return false // duplicated
						}
						got[m] = true
					}
				}
				if len(got) != len(want) {
					return false
				}
				for n := range want {
					if !got[n] {
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestExpandEdgeCounts checks the combinatorics of replication: each
// original edge u→v becomes FT(u)×FT(v) edges, and replica links number
// Σ FT(FT−1).
func TestExpandEdgeCounts(t *testing.T) {
	f := func(seed uint16) bool {
		g, jobs := randomSystem(uint64(seed)+99, 7)
		exp, err := Expand(g, jobs)
		if err != nil {
			return false
		}
		ftOf := func(id string) int {
			ft := int(g.Attrs(id).Value(attrs.FaultTolerance))
			if ft < 1 {
				ft = 1
			}
			return ft
		}
		wantWeighted := 0
		for _, e := range g.Edges() {
			wantWeighted += ftOf(e.From) * ftOf(e.To)
		}
		wantReplica := 0
		for _, id := range g.Nodes() {
			ft := ftOf(id)
			wantReplica += ft * (ft - 1) // directed pairs
		}
		gotWeighted, gotReplica := 0, 0
		for _, e := range exp.Graph.Edges() {
			if e.Replica {
				gotReplica++
			} else {
				gotWeighted++
			}
		}
		return gotWeighted == wantWeighted && gotReplica == wantReplica
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestTotalWeightConservedByExpansion checks expansion multiplies but
// never loses influence mass.
func TestTotalWeightConservedByExpansion(t *testing.T) {
	f := func(seed uint16) bool {
		g, jobs := randomSystem(uint64(seed)+3, 6)
		exp, err := Expand(g, jobs)
		if err != nil {
			return false
		}
		return totalWeight(exp.Graph) >= totalWeight(g)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestH1Deterministic checks the same seed yields byte-identical traces.
func TestH1Deterministic(t *testing.T) {
	run := func() []Step {
		g, jobs := randomSystem(42, 10)
		exp, err := Expand(g, jobs)
		if err != nil {
			t.Fatal(err)
		}
		c := NewCondenser(exp.Graph, exp.Jobs)
		if err := c.ReduceByInfluence(5); err != nil {
			t.Fatal(err)
		}
		return c.Trace
	}
	t1, t2 := run(), run()
	if len(t1) != len(t2) {
		t.Fatalf("trace lengths differ: %d vs %d", len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i] != t2[i] && !(t1[i].A == t2[i].A && t1[i].B == t2[i].B &&
			t1[i].Result == t2[i].Result && math.Abs(t1[i].Mutual-t2[i].Mutual) < 1e-12) {
			t.Errorf("step %d differs: %v vs %v", i, t1[i], t2[i])
		}
	}
}

// rescanBestPair is H1's pair choice as ReduceByInfluence made it before
// the pair table: a full rescan of every pair of the working graph, with
// mutual influence and member counts read from the graph and ids. It is
// the reference TestH1PairTableMatchesRescan holds the table to.
func rescanBestPair(c *Condenser) (string, string, bool) {
	nodes := c.G.Nodes()
	bestA, bestB := "", ""
	bestMutual := -1.0
	bestSize := 0
	for i, a := range nodes {
		for _, b := range nodes[i+1:] {
			m := c.G.MutualInfluence(a, b)
			size := len(graph.Members(a)) + len(graph.Members(b))
			better := false
			switch {
			case m > bestMutual:
				better = true
			case m == bestMutual && bestMutual > 0:
				better = false // nodes are already in sorted order
			case m == bestMutual && bestMutual == 0 && size < bestSize:
				better = true
			}
			if !better {
				continue
			}
			if ok, _ := c.CanCombine(a, b); !ok {
				continue
			}
			bestA, bestB, bestMutual, bestSize = a, b, m, size
		}
	}
	return bestA, bestB, bestA != ""
}

// rescanReduceByInfluence is ReduceByInfluence driven by rescanBestPair.
func rescanReduceByInfluence(c *Condenser, target int) error {
	if err := c.checkTarget(target); err != nil {
		return err
	}
	for c.G.NumNodes() > target {
		a, b, found := rescanBestPair(c)
		if !found {
			return fmt.Errorf("%w: %d nodes remain, target %d",
				ErrCannotReduce, c.G.NumNodes(), target)
		}
		if _, err := c.Combine(a, b, "H1"); err != nil {
			return err
		}
	}
	return nil
}

// TestH1PairTableMatchesRescan holds the incremental pair table to the
// full rescan it replaced: on every scengen family at 12, 36 and 60
// processes, H1 must produce the same trace, the same partition, the same
// error and the same condenser and oracle counters, up to the oracle
// calls its verdict memo saves (see requireCountersMatch).
func TestH1PairTableMatchesRescan(t *testing.T) {
	defer sched.Observe(nil)
	type run struct {
		trace    []Step
		part     [][]string
		err      string
		counters map[string]int64
	}
	reduce := func(t *testing.T, sys *spec.System, h1 func(*Condenser, int) error) run {
		t.Helper()
		g, err := sys.Graph()
		if err != nil {
			t.Fatal(err)
		}
		exp, err := Expand(g, sys.Jobs())
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		sched.Observe(reg)
		c := exp.Condenser()
		c.Observe(nil, reg)
		var r run
		if err := h1(c, sys.HWNodes); err != nil {
			r.err = err.Error()
		}
		r.trace, r.part = c.Trace, c.Partition()
		r.counters = counters(reg)
		return r
	}
	for _, fam := range scengen.Families() {
		for _, n := range []int{12, 36, 60} {
			t.Run(fmt.Sprintf("%s-%d", fam, n), func(t *testing.T) {
				sc, err := scengen.Generate(scengen.Config{Family: fam, Processes: n, Seed: 1998})
				if err != nil {
					t.Fatal(err)
				}
				got := reduce(t, sc.System, (*Condenser).ReduceByInfluence)
				want := reduce(t, sc.System, rescanReduceByInfluence)
				if len(want.trace) == 0 {
					t.Fatalf("reference made no merge (err %q)", want.err)
				}
				requireCountersMatch(t, "pair table", got.counters, want.counters)
				got.counters, want.counters = nil, nil
				if !reflect.DeepEqual(got, want) {
					t.Errorf("pair table diverges from the rescan:\n got %+v\nwant %+v", got, want)
				}
			})
		}
	}
}

// TestReduceByInfluenceAllocs pins H1's allocation cost per merge on a
// 60-process scengen scenario of every family: set-up and all merges of
// one reduction, divided by the merges made. Each merge allocates its
// cluster id and the Trace step; contraction, the pair table and the
// feasibility checks add at most a few amortised allocations.
func TestReduceByInfluenceAllocs(t *testing.T) {
	const perMerge = 4
	for _, fam := range scengen.Families() {
		sc, err := scengen.Generate(scengen.Config{Family: fam, Processes: 60, Seed: 1998})
		if err != nil {
			t.Fatal(err)
		}
		g, err := sc.System.Graph()
		if err != nil {
			t.Fatal(err)
		}
		exp, err := Expand(g, sc.System.Jobs())
		if err != nil {
			t.Fatal(err)
		}
		c := exp.Condenser()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		err = c.ReduceByInfluence(sc.System.HWNodes)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		merges := len(c.Trace)
		if merges == 0 {
			t.Fatalf("%s: no merge", fam)
		}
		got := float64(after.Mallocs-before.Mallocs) / float64(merges)
		t.Logf("%s: %d merges, %.2f allocations per merge", fam, merges, got)
		if got > perMerge {
			t.Errorf("%s: H1 made %.2f allocations per merge, want at most %d", fam, got, perMerge)
		}
	}
}
