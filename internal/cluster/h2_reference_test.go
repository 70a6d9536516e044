package cluster

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/attrs"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/scengen"
	"repro/internal/sched"
	"repro/internal/spec"
)

// This file keeps H2 as it ran before the bisection worked on ranks: every
// cut built the part's induced string-keyed subgraph and cut that, and the
// repair loop read bonds and replica checks by node id. It is the
// reference TestH2MatchesInducedReference holds the rank-based H2 to.

// refInduced builds the subgraph of g on the given node set.
func refInduced(g *graph.Graph, ids []string) *graph.Graph {
	in := make(map[string]bool, len(ids))
	for _, id := range ids {
		in[id] = true
	}
	sub := graph.New()
	for _, id := range ids {
		if err := sub.AddNode(id, g.Attrs(id).Clone()); err != nil {
			continue
		}
	}
	for _, e := range g.Edges() {
		if !in[e.From] || !in[e.To] {
			continue
		}
		if e.Replica {
			_ = sub.AddReplicaEdge(e.From, e.To)
		} else {
			_ = sub.SetEdge(e.From, e.To, e.Weight, e.Factors...)
		}
	}
	return sub
}

// refBisect is H2's bisection loop over induced subgraphs: the global
// minimum cut when w is nil, else the s–t cut between the part's two most
// important nodes. It returns the parts and each cut's weight.
func refBisect(c *Condenser, target int, w *attrs.Weights) ([][]string, []float64, error) {
	parts := [][]string{c.G.Nodes()}
	var weights []float64
	for len(parts) < target {
		idx := -1
		for i, p := range parts {
			if len(p) < 2 {
				continue
			}
			if idx == -1 || len(p) > len(parts[idx]) {
				idx = i
			}
		}
		if idx == -1 {
			break
		}
		sub := refInduced(c.G, parts[idx])
		var cut graph.Cut
		var err error
		if w == nil {
			cut, err = sub.GlobalMinCut()
		} else {
			members := append([]string(nil), parts[idx]...)
			sort.Slice(members, func(i, j int) bool {
				ii := w.Importance(c.G.Attrs(members[i]))
				ij := w.Importance(c.G.Attrs(members[j]))
				if ii != ij {
					return ii > ij
				}
				return members[i] < members[j]
			})
			cut, err = sub.MinCutST(members[0], members[1])
		}
		if err != nil {
			return nil, nil, err
		}
		parts[idx] = cut.S
		parts = append(parts, cut.T)
		weights = append(weights, cut.Weight)
	}
	return parts, weights, nil
}

// refGroupFeasible reports whether a group of current node ids could form
// one cluster.
func refGroupFeasible(c *Condenser, group []string) bool {
	for i, a := range group {
		for _, b := range group[i+1:] {
			if c.G.AreReplicas(a, b) {
				return false
			}
		}
	}
	c.union = c.union[:0]
	for _, id := range group {
		s, _ := c.G.Slot(id)
		c.union = c.appendJobs(c.union, s)
	}
	ok, err := sched.Check(c.union)
	return err == nil && ok
}

// refRepairPartition moves nodes out of infeasible groups into feasible
// ones. Returns nil if the partition cannot be repaired.
func refRepairPartition(c *Condenser, parts [][]string) [][]string {
	const maxPasses = 16
	for pass := 0; pass < maxPasses; pass++ {
		fixed := true
		for gi := range parts {
			if refGroupFeasible(c, parts[gi]) {
				continue
			}
			fixed = false
			moved := false
			for _, victim := range refEvictionOrder(c, parts[gi]) {
				for gj := range parts {
					if gi == gj {
						continue
					}
					candidate := append(append([]string(nil), parts[gj]...), victim)
					if !refGroupFeasible(c, candidate) {
						continue
					}
					parts[gj] = candidate
					rest := parts[gi][:0]
					for _, v := range parts[gi] {
						if v != victim {
							rest = append(rest, v)
						}
					}
					parts[gi] = rest
					moved = true
					break
				}
				if moved {
					break
				}
			}
			if !moved {
				return nil
			}
		}
		if fixed {
			return parts
		}
	}
	return nil
}

// refEvictionOrder sorts group members by ascending mutual influence with
// the rest of the group.
func refEvictionOrder(c *Condenser, group []string) []string {
	type scored struct {
		id   string
		bond float64
	}
	out := make([]scored, 0, len(group))
	for _, id := range group {
		bond := 0.0
		for _, other := range group {
			if other != id {
				bond += c.G.MutualInfluence(id, other)
			}
		}
		out = append(out, scored{id, bond})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].bond != out[j].bond {
			return out[i].bond < out[j].bond
		}
		return out[i].id < out[j].id
	})
	ids := make([]string, len(out))
	for i, s := range out {
		ids[i] = s.id
	}
	return ids
}

// refReduceByCuts is ReduceByMinCut (w nil) or ReduceByMinCutST on the
// reference: bisect, repair, then merge each part in id order.
func refReduceByCuts(c *Condenser, target int, rule string, w *attrs.Weights) error {
	if err := c.checkTarget(target); err != nil {
		return err
	}
	parts, _, err := refBisect(c, target, w)
	if err != nil {
		return err
	}
	if parts = refRepairPartition(c, parts); parts == nil {
		return fmt.Errorf("%w: %s partition cannot satisfy feasibility", ErrCannotReduce, rule)
	}
	for _, p := range parts {
		sort.Strings(p)
		cur := p[0]
		for _, next := range p[1:] {
			if cur, err = c.Combine(cur, next, rule); err != nil {
				return err
			}
		}
	}
	return nil
}

// h2Systems returns the systems TestH2MatchesInducedReference runs: the
// committed corpus, the built-in examples, and a small and a medium
// scengen system of every family.
func h2Systems(t *testing.T) map[string]*spec.System {
	t.Helper()
	systems := map[string]*spec.System{
		"paper":      spec.PaperExample(),
		"flight":     spec.FlightControl(),
		"brake":      spec.BrakeByWire(),
		"industrial": spec.IndustrialControl(),
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "corpus", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if filepath.Base(f) == "manifest.json" {
			continue
		}
		r, err := os.Open(f)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := spec.Decode(r)
		r.Close()
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		systems["corpus/"+strings.TrimSuffix(filepath.Base(f), ".json")] = sys
	}
	if len(systems) != 16 {
		t.Fatalf("%d systems, want 12 corpus specs and 4 built-in examples", len(systems))
	}
	for _, fam := range scengen.Families() {
		for _, size := range []string{scengen.SizeSmall, scengen.SizeMedium} {
			n, err := scengen.SizeProcesses(size)
			if err != nil {
				t.Fatal(err)
			}
			sc, err := scengen.Generate(scengen.Config{Family: fam, Processes: n, Seed: 1998})
			if err != nil {
				t.Fatal(err)
			}
			systems[fmt.Sprintf("scengen/%s-%s", fam, size)] = sc.System
		}
	}
	return systems
}

// TestH2MatchesInducedReference holds the rank-based H2 and H2-st to the
// induced-subgraph reference on every system of h2Systems: the same parts
// after bisection, bit-equal cut weights, the same parts after repair, and
// after the full reduction the same trace, partition, graph rendering,
// error and condenser and oracle counters.
func TestH2MatchesInducedReference(t *testing.T) {
	defer sched.Observe(nil)
	weights := defaultWeights(t)
	condenser := func(t *testing.T, sys *spec.System) *Condenser {
		t.Helper()
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
	type run struct {
		trace    []Step
		part     [][]string
		graph    string
		err      string
		counters map[string]int64
	}
	reduce := func(t *testing.T, sys *spec.System, f func(*Condenser) error) run {
		t.Helper()
		reg := obs.NewRegistry()
		sched.Observe(reg)
		c := condenser(t, sys)
		c.Observe(nil, reg)
		var r run
		if err := f(c); err != nil {
			r.err = err.Error()
		}
		r.trace, r.part, r.graph = c.Trace, c.Partition(), c.G.String()
		r.counters = map[string]int64{}
		for _, ctr := range reg.Snapshot().Counters {
			r.counters[ctr.Name] = ctr.Value
		}
		return r
	}
	merged, repaired, unrepairable := 0, 0, 0
	for name, sys := range h2Systems(t) {
		for _, v := range []struct {
			rule       string
			w          *attrs.Weights
			importance func(attrs.Set) float64
			reduce     func(c *Condenser, target int) error
		}{
			{"H2", nil, nil, (*Condenser).ReduceByMinCut},
			{"H2-st", &weights, weights.Importance, func(c *Condenser, target int) error { return c.ReduceByMinCutST(target, weights) }},
		} {
			t.Run(name+"/"+v.rule, func(t *testing.T) {
				target := sys.HWNodes
				c := condenser(t, sys)
				b := c.newBisection(v.importance)
				parts, cuts, err := b.split(target)
				if err != nil {
					t.Fatal(err)
				}
				names := func(parts [][]int) [][]string {
					out := make([][]string, len(parts))
					for i, p := range parts {
						for _, r := range p {
							out[i] = append(out[i], c.G.Name(b.slots[r]))
						}
					}
					return out
				}
				gotParts := names(parts)
				var gotRepaired [][]string
				if b.repair(parts) {
					gotRepaired = names(parts)
				}

				ref := condenser(t, sys)
				wantParts, wantCuts, err := refBisect(ref, target, v.w)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(gotParts, wantParts) {
					t.Fatalf("bisection parts\n %v\nreference\n %v", gotParts, wantParts)
				}
				if len(cuts) != len(wantCuts) {
					t.Fatalf("%d cuts, reference %d", len(cuts), len(wantCuts))
				}
				for i := range cuts {
					if math.Float64bits(cuts[i]) != math.Float64bits(wantCuts[i]) {
						t.Fatalf("cut %d weight %v, reference %v", i, cuts[i], wantCuts[i])
					}
				}
				wantRepaired := refRepairPartition(ref, copyParts(wantParts))
				if !reflect.DeepEqual(gotRepaired, wantRepaired) {
					t.Fatalf("repaired parts\n %v\nreference\n %v", gotRepaired, wantRepaired)
				}
				switch {
				case wantRepaired == nil:
					unrepairable++
				case !reflect.DeepEqual(wantRepaired, wantParts):
					repaired++
				}

				got := reduce(t, sys, func(c *Condenser) error { return v.reduce(c, target) })
				want := reduce(t, sys, func(c *Condenser) error { return refReduceByCuts(c, target, v.rule, v.w) })
				if !reflect.DeepEqual(got, want) {
					t.Errorf("reduction diverges from the reference:\n got %+v\nwant %+v", got, want)
				}
				if len(want.trace) > 0 {
					merged++
				}
			})
		}
	}
	t.Logf("%d reductions merged nodes; %d partitions were repaired, %d could not be", merged, repaired, unrepairable)
	if merged == 0 || repaired == 0 || unrepairable == 0 {
		t.Errorf("%d reductions merged nodes, %d partitions were repaired and %d could not be; want some of each", merged, repaired, unrepairable)
	}
}

func copyParts(parts [][]string) [][]string {
	out := make([][]string, len(parts))
	for i, p := range parts {
		out[i] = append([]string(nil), p...)
	}
	return out
}
