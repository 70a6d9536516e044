package cluster

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/attrs"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/scengen"
	"repro/internal/sched"
	"repro/internal/spec"
)

// refBestFeasiblePair is H1's selection as it ran before rows could be
// skipped: every pair of live slots in id order, checking each pair that
// beats the best so far. Each pair's mutual influence is read from the
// graph afresh. It is the reference TestH1BoundedScanMatchesFullScan holds
// the bounded scan to.
func refBestFeasiblePair(t *pairTable, c *Condenser) (int, int, bool) {
	bestA, bestB := -1, -1
	bestMutual := -1.0
	bestSize := 0
	for i, sa := range t.order {
		for _, sb := range t.order[i+1:] {
			m := c.G.MutualSlots(sa, sb)
			size := t.size[sa] + t.size[sb]
			better := false
			switch {
			case m > bestMutual:
				better = true
			case m == bestMutual && bestMutual > 0:
				better = false
			case m == bestMutual && bestMutual == 0 && size < bestSize:
				better = true
			}
			if !better {
				continue
			}
			if ok, _ := c.combinableSlots(sa, sb); !ok {
				continue
			}
			bestA, bestB, bestMutual, bestSize = sa, sb, m, size
		}
	}
	return bestA, bestB, bestA >= 0
}

// h1Systems returns the systems TestH1BoundedScanMatchesFullScan runs:
// those of h2Systems plus a 60-process scengen system of every family.
func h1Systems(t *testing.T) map[string]*spec.System {
	t.Helper()
	systems := h2Systems(t)
	for _, fam := range scengen.Families() {
		sc, err := scengen.Generate(scengen.Config{Family: fam, Processes: 60, Seed: 1998})
		if err != nil {
			t.Fatal(err)
		}
		systems[fmt.Sprintf("scengen/%s-60", fam)] = sc.System
	}
	return systems
}

// requireBoundsCover fails unless every live slot's bound is at least its
// mutual influence with every other live slot, as g reads it.
func requireBoundsCover(t *testing.T, g *graph.Graph, pt *pairTable, merge int) {
	t.Helper()
	for _, s := range pt.order {
		for _, x := range pt.order {
			if m := g.MutualSlots(s, x); x != s && !(pt.bound[s] >= m) {
				t.Fatalf("after merge %d: bound[%d] = %v below its mutual influence %v with slot %d", merge, s, pt.bound[s], m, x)
			}
		}
	}
}

// TestH1BoundedScanMatchesFullScan runs H1 with the bounded scan and with
// the full reference scan in lockstep on two copies of each system of
// h1Systems, reduced to its HW node count, and of sparse random graphs
// reduced to one node, where zero-influence merges (the size tie-break)
// and replica rejections dominate. At every merge both must pick the same
// pair and leave the same counters (see requireCountersMatch); after every
// merge each bound must still cover its row and each remembered verdict
// must match a fresh check.
func TestH1BoundedScanMatchesFullScan(t *testing.T) {
	merges := 0
	for name, sys := range h1Systems(t) {
		t.Run(name, func(t *testing.T) {
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
			merges += h1Lockstep(t, condenser(), condenser(), sys.HWNodes).merges
		})
	}
	for seed := uint64(0); seed < 40; seed++ {
		t.Run(fmt.Sprintf("sparse-%d", seed), func(t *testing.T) {
			build := func() *Condenser {
				pr := rand.New(rand.NewPCG(seed, 0x51))
				g := graph.New()
				n := 4 + pr.IntN(20)
				for i := 0; i < n; i++ {
					if err := g.AddNode(fmt.Sprintf("n%02d", i), attrs.Set{}); err != nil {
						t.Fatal(err)
					}
				}
				for i := 0; i < n; i++ {
					for j := 0; j < n; j++ {
						from, to := fmt.Sprintf("n%02d", i), fmt.Sprintf("n%02d", j)
						switch k := pr.IntN(40); {
						case i == j || k > 2:
						case k == 0:
							if err := g.AddReplicaEdge(from, to); err != nil {
								t.Fatal(err)
							}
						default:
							if err := g.SetEdge(from, to, float64(1+pr.IntN(4))/8); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
				return NewCondenser(g, nil)
			}
			merges += h1Lockstep(t, build(), build(), 1).merges
		})
	}
	t.Logf("%d merges matched", merges)
	if merges == 0 {
		t.Error("no system merged anything")
	}
}

// lockstepStats counts what h1Lockstep compared: merges, and the
// remembered verdicts checked afresh, in all and timing-rejected.
type lockstepStats struct {
	merges, verdicts, timing int
}

// h1Lockstep reduces c as ReduceByInfluence does and ref, a copy of c,
// with the full scan and checked merges toward target, failing at the
// first merge where they differ, a bound falls below its row or a
// remembered verdict differs from a fresh check.
func h1Lockstep(t *testing.T, c, ref *Condenser, target int) lockstepStats {
	t.Helper()
	// The oracle's counters are process-global: each side installs its
	// registry before it runs.
	defer sched.Observe(nil)
	reg, refReg := obs.NewRegistry(), obs.NewRegistry()
	c.Observe(nil, reg)
	ref.Observe(nil, refReg)
	pt, refPT := newPairTable(c.G), newPairTable(ref.G)
	requireBoundsCover(t, c.G, pt, 0)
	var st lockstepStats
	for c.G.NumNodes() > target {
		sched.Observe(reg)
		a, b, ok := pt.bestFeasiblePair(c)
		sched.Observe(refReg)
		ra, rb, rok := refBestFeasiblePair(refPT, ref)
		if ok != rok || (ok && (c.G.Name(a) != ref.G.Name(ra) || c.G.Name(b) != ref.G.Name(rb))) {
			t.Fatalf("merge %d: bounded scan picks %v (%s, %s), full scan %v (%s, %s)", st.merges+1,
				ok, slotName(c, a, ok), slotName(c, b, ok), rok, slotName(ref, ra, rok), slotName(ref, rb, rok))
		}
		requireCountersMatch(t, fmt.Sprintf("merge %d", st.merges+1), counters(reg), counters(refReg))
		if !ok {
			break
		}
		sched.Observe(reg)
		if err := pt.combine(c, a, b); err != nil {
			t.Fatal(err)
		}
		sched.Observe(refReg)
		rs, err := ref.combineSlots(ra, rb, "H1")
		if err != nil {
			t.Fatal(err)
		}
		refPT.merge(ref.G, ra, rb, rs)
		sched.Observe(nil)
		st.merges++
		requireBoundsCover(t, c.G, pt, st.merges)
		requireVerdictsFresh(t, c, pt, st.merges, &st)
	}
	requireCountersMatch(t, "at the end", counters(reg), counters(refReg))
	return st
}

// counters reads reg's counters by name.
func counters(reg *obs.Registry) map[string]int64 {
	m := map[string]int64{}
	for _, ctr := range reg.Snapshot().Counters {
		m[ctr.Name] = ctr.Value
	}
	return m
}

// requireCountersMatch fails unless H1's counters equal those of its
// reference, which asks the oracle on every check: every counter the
// same, except that each verdict taken from the memo is one oracle call
// fewer (calls + reuses equal the reference's calls, and neither verdict
// count exceeds the reference's).
func requireCountersMatch(t *testing.T, label string, got, want map[string]int64) {
	t.Helper()
	reuses := got["cluster_verdict_reuses_total"]
	for name, w := range want {
		g, ok := got[name]
		switch name {
		case "cluster_verdict_reuses_total":
			ok = ok && w == 0
		case "sched_feasible_calls_total":
			ok = ok && g+reuses == w
		case "sched_feasible_verdicts_total", "sched_infeasible_verdicts_total":
			ok = ok && g <= w
		default:
			ok = ok && g == w
		}
		if !ok {
			t.Fatalf("%s: %s = %d (%d verdicts reused), reference %d\ncounters %v\nreference %v",
				label, name, g, reuses, w, got, want)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: counters %v, reference %v", label, got, want)
	}
}

// requireVerdictsFresh fails unless every verdict pt remembers equals a
// fresh oracle check of that pair's job union, and adds the verdicts
// checked to st.
func requireVerdictsFresh(t *testing.T, c *Condenser, pt *pairTable, merge int, st *lockstepStats) {
	t.Helper()
	for i, x := range pt.order {
		for _, y := range pt.order[i+1:] {
			v := pt.verdict[pairIndex(x, y)]
			if v == unchecked {
				continue
			}
			if fresh, _ := c.schedule(x, y); v != fresh {
				t.Fatalf("after merge %d: verdict for (%s, %s) is %d, a fresh check says %d",
					merge, c.G.Name(x), c.G.Name(y), v, fresh)
			}
			st.verdicts++
			if v == timingRejected {
				st.timing++
			}
		}
	}
}

// slotName returns the node id in slot s of c's graph, or "-" when there is
// no pair.
func slotName(c *Condenser, s int, ok bool) string {
	if !ok {
		return "-"
	}
	return c.G.Name(s)
}

// TestH1BoundNaNNeverSkips plants a NaN in a row's bound and checks the
// scan still reads that row: a NaN bound must fail every skip test.
func TestH1BoundNaNNeverSkips(t *testing.T) {
	sys := spec.PaperExample()
	g, err := sys.Graph()
	if err != nil {
		t.Fatal(err)
	}
	exp, err := Expand(g, sys.Jobs())
	if err != nil {
		t.Fatal(err)
	}
	c := exp.Condenser()
	pt := newPairTable(c.G)
	for _, s := range pt.order {
		pt.bound[s] = math.NaN()
	}
	pt.bestFeasiblePair(c)
	for _, s := range pt.order {
		if math.IsNaN(pt.bound[s]) {
			t.Errorf("row of %s was skipped under a NaN bound", c.G.Name(s))
		}
	}
}
