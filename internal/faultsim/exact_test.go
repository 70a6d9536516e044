package faultsim

import (
	"math"
	"math/bits"
	"math/rand/v2"
	"testing"
	"time"

	"repro/internal/attrs"
	"repro/internal/graph"
)

// An exact oracle for campaign estimates. Each BFS layer of a trial is
// one step of a Markov chain on (seen, frontier) bitmasks: every unseen
// node v joins the next layer independently, with probability
// 1 − ∏_{u∈F}(1 − w_uv) — Eq. 4's cluster influence of the frontier F on
// v — and under Transient(p) each admitted node then stays in the
// frontier with probability p. MaxHops bounds the number of steps.
//
// A trial escapes exactly when its comm fault itself crossed a HW
// boundary or when some affected node sits on another host than the
// origins: the first node off that host was reached over a crossing
// edge. That event does not depend on the order of admissions within a
// layer, so the chain gives the exact escape and per-node affected rates.
// An edge's EdgeTrials and Transmissions are 0/1 per trial, so their
// expectations are exact too. Burst(k), whose origins are drawn without
// replacement, and chains too large to walk are ineligible, never
// approximated.

// exactRates holds the exact per-trial expectations of a campaign's 0/1
// indicators.
type exactRates struct {
	affected   []float64 // by node id
	escape     float64
	edgeTrials []float64 // by live-edge id
	transmit   []float64 // by live-edge id
}

// chainState is one state of the propagation chain: the affected set,
// the layer about to propagate (persistent faults only), and what the
// escape test needs — the origins' host and whether the injected comm
// fault itself crossed.
type chainState struct {
	seen, frontier uint32
	host           int32
	crossed        bool
}

const (
	maxExactNodes = 12
	maxExactWork  = 1 << 23 // chain outcomes enumerated before giving up
)

// exactChain walks the chain of one campaign environment.
type exactChain struct {
	env     *campaignEnv
	w       []float64 // transmission probability by live-edge id
	q       []float64 // arrival probability by node, for the state being stepped
	persist float64
	work    int
}

// exactCampaign computes the exact rates of env, or reports it
// ineligible.
func exactCampaign(env *campaignEnv) (exactRates, bool) {
	switch env.model.(type) {
	case singleModel, correlatedModel, transientModel:
	default:
		return exactRates{}, false
	}
	n := len(env.nodes)
	if n > maxExactNodes {
		return exactRates{}, false
	}
	mc := &exactChain{env: env, w: make([]float64, len(env.edges)), q: make([]float64, n), persist: env.persist}
	for i, e := range env.edges {
		mc.w[i] = float64(e.thr) / (1 << 53) // exactly P(draw < thr)
	}
	ones := make([]float64, n)
	for i := range ones {
		ones[i] = 1
	}

	// The injection distribution: each outcome's origins are admitted
	// with certainty, and each stays in the frontier with probability
	// persist.
	cur := map[chainState]float64{}
	inject := func(pr float64, origins []int, seed int, crossed bool) {
		mc.q = ones
		mc.spread(chainState{host: mc.host(seed), crossed: crossed}, origins, pr, cur)
	}
	if _, ok := env.model.(correlatedModel); ok {
		for seed := range env.nodes {
			origins := []int{seed}
			if env.hasHW {
				origins = origins[:0]
				for v := range env.nodes {
					if env.hw[v] == env.hw[seed] {
						origins = append(origins, v)
					}
				}
			}
			inject(env.weights[seed]/env.weightTotal, origins, seed, false)
		}
	} else {
		comm := 0.0
		if env.commFrac > 0 && len(env.edges) > 0 {
			comm = env.commFrac
		}
		for _, e := range env.edges {
			inject(comm/float64(len(env.edges)), []int{e.to}, e.to, env.hasHW && env.hw[e.from] != env.hw[e.to])
		}
		for v := range env.nodes {
			inject((1-comm)*env.weights[v]/env.weightTotal, []int{v}, v, false)
		}
	}

	r := exactRates{
		affected:   make([]float64, n),
		edgeTrials: make([]float64, len(env.edges)),
		transmit:   make([]float64, len(env.edges)),
	}
	mc.q = make([]float64, n)
	var cand []int
	for hop := 0; len(cur) > 0; hop++ {
		next := map[chainState]float64{}
		for s, pr := range cur {
			if s.frontier == 0 || (env.maxHops > 0 && hop >= env.maxHops) {
				r.absorb(mc, s, pr)
				continue
			}
			// Every edge out of the layer is drawn once; an unseen target
			// is missed only when all of its edges from the layer miss.
			cand = cand[:0]
			for f := s.frontier; f != 0; f &= f - 1 {
				for _, e := range env.out[bits.TrailingZeros32(f)] {
					r.edgeTrials[e.id] += pr
					if s.seen&(1<<e.to) != 0 {
						continue
					}
					if mc.q[e.to] == 0 {
						cand = append(cand, e.to)
					}
					mc.q[e.to] = 1 - (1-mc.q[e.to])*(1-mc.w[e.id])
				}
			}
			mc.spread(chainState{seen: s.seen, host: s.host, crossed: s.crossed}, cand, pr, next)
			for _, v := range cand {
				mc.q[v] = 0
			}
			if mc.work > maxExactWork {
				return exactRates{}, false
			}
		}
		cur = next
	}
	for i := range r.transmit {
		r.transmit[i] = r.edgeTrials[i] * mc.w[i]
	}
	return r, true
}

// host returns the HW class of node v (0 for every node without HW).
func (mc *exactChain) host(v int) int32 {
	if mc.env.hasHW {
		return mc.env.hw[v]
	}
	return 0
}

// spread adds to into, with probability pr in all, every outcome of the
// candidates cand arriving (probability q[v] each, independently) and, if
// they arrive, persisting into the next layer.
func (mc *exactChain) spread(s chainState, cand []int, pr float64, into map[chainState]float64) {
	if pr == 0 {
		return
	}
	if len(cand) == 0 {
		mc.work++
		into[s] += pr
		return
	}
	v, rest := cand[0], cand[1:]
	bit := uint32(1) << v
	mc.spread(s, rest, pr*(1-mc.q[v]), into)
	s.seen |= bit
	mc.spread(s, rest, pr*mc.q[v]*(1-mc.persist), into)
	s.frontier |= bit
	mc.spread(s, rest, pr*mc.q[v]*mc.persist, into)
}

// absorb adds a trial that ended in state s with probability pr.
func (r *exactRates) absorb(mc *exactChain, s chainState, pr float64) {
	escaped := s.crossed
	for m := s.seen; m != 0; m &= m - 1 {
		v := bits.TrailingZeros32(m)
		r.affected[v] += pr
		escaped = escaped || mc.host(v) != s.host
	}
	if escaped {
		r.escape += pr
	}
}

// deviation scores how far count strays from its expectation n·p. It is
// a z-score corrected for rare events: by Bernstein's inequality for a
// sum of n independent 0/1 indicators, a deviation scores above z with
// probability at most 2·exp(−z²/2), whatever p is, where the plain
// z-score's normal tail is only an approximation. An event of
// probability 0 that happened scores +Inf.
func deviation(count, n int, p float64) float64 {
	dev := math.Abs(float64(count) - float64(n)*p)
	switch {
	case dev == 0:
		return 0
	case p == 0:
		return math.Inf(1)
	}
	return dev / math.Sqrt(float64(n)*p*(1-p)+dev/3)
}

// checkExact runs c and scores every affected, escape, EdgeTrials and
// Transmissions rate against the exact chain, failing t on a score above
// bound. It returns the worst score, or ok false for an ineligible
// campaign.
func checkExact(t testing.TB, c Campaign, bound float64) (worst float64, ok bool) {
	t.Helper()
	runner, err := NewChunkRunner(c)
	if err != nil {
		t.Fatal(err)
	}
	env := runner.env
	want, ok := exactCampaign(env)
	if !ok {
		return 0, false
	}
	res, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	check := func(what string, count int, p float64) {
		z := deviation(count, res.Trials, p)
		worst = max(worst, z)
		if z > bound {
			t.Errorf("%s: %d of %d trials, exact rate %.6f: deviation %.2f > %g", what, count, res.Trials, p, z, bound)
		}
	}
	for v, name := range env.nodes {
		check("affected "+name, res.AffectedCount[name], want.affected[v])
	}
	check("escape", res.TrialsWithEscape, want.escape)
	// Edges whose from+">"+to keys collide share a count that is no
	// longer 0/1 per trial; they are left out.
	keys := make(map[string]int, len(env.edges))
	for _, e := range env.edges {
		keys[env.nodes[e.from]+">"+env.nodes[e.to]]++
	}
	for i, e := range env.edges {
		key := env.nodes[e.from] + ">" + env.nodes[e.to]
		if keys[key] > 1 {
			continue
		}
		check("edge trials "+key, res.EdgeTrials[key], want.edgeTrials[i])
		check("transmissions "+key, res.TransmissionCount[key], want.transmit[i])
	}
	return worst, true
}

// exactGraph builds a random 9-node campaign graph on 3 hosts.
func exactGraph(t *testing.T, seed uint64) (*graph.Graph, map[string]string) {
	t.Helper()
	pr := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	g := graph.New()
	hw := map[string]string{}
	names := []string{"n0", "n1", "n2", "n3", "n4", "n5", "n6", "n7", "n8"}
	for i, n := range names {
		if err := g.AddNode(n, attrs.New(map[attrs.Kind]float64{attrs.Criticality: float64(pr.IntN(16))})); err != nil {
			t.Fatal(err)
		}
		hw[n] = []string{"h0", "h1", "h2"}[(i+pr.IntN(2))%3]
	}
	for _, from := range names {
		for _, to := range names {
			if from != to && pr.IntN(4) == 0 {
				if err := g.SetEdge(from, to, 0.05+0.9*pr.Float64()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return g, hw
}

// TestCampaignMatchesExact holds fixed-seed campaigns on random graphs,
// under every eligible fault model and MaxHops 0–2, to the exact chain.
func TestCampaignMatchesExact(t *testing.T) {
	cases := []struct {
		model   FaultModel
		maxHops int
		comm    float64
		occ     bool
	}{
		{SingleFault(), 0, 0.3, false},
		{SingleFault(), 1, 0, true},
		{SingleFault(), 2, 0.3, true},
		{Transient(0.7), 0, 0, false},
		{Transient(0.7), 1, 0.3, false},
		{Transient(0.7), 2, 0.3, true},
		{Correlated(), 0, 0, false},
		{Correlated(), 1, 0, true},
		{Correlated(), 2, 0, false},
	}
	start := time.Now()
	worst := 0.0
	for i, tc := range cases {
		seed := uint64(i + 1)
		g, hw := exactGraph(t, seed)
		c := Campaign{
			Graph: g, HWOf: hw, Trials: 100_000, Seed: 1998 + seed, Workers: 2,
			MaxHops: tc.maxHops, CommFaultFraction: tc.comm, Model: tc.model,
		}
		if tc.occ {
			c.OccurrenceWeights = map[string]float64{}
			for j, n := range g.Nodes() {
				c.OccurrenceWeights[n] = float64(1 + j%3)
			}
		}
		z, ok := checkExact(t, c, 5)
		if !ok {
			t.Fatalf("case %d (%s, MaxHops %d) is ineligible for the exact chain", i, tc.model.Name(), tc.maxHops)
		}
		worst = max(worst, z)
	}
	t.Logf("%d campaigns: worst deviation %.2f in %v", len(cases), worst, time.Since(start).Round(time.Millisecond))
}

// FuzzCampaignMatchesExact holds campaigns on small fuzzed graphs —
// replica and zero-weight edges, partial or no HW mapping, occurrence
// weights, comm faults — to the exact chain. Burst(k) is skipped as
// ineligible. The bound is wider than the fixed-seed test's: over a
// fuzzing session's many scores, 6.5 keeps a false alarm below about
// 1.4·10⁻⁹ per score.
func FuzzCampaignMatchesExact(f *testing.F) {
	f.Add(uint64(1), uint8(8), uint8(0), uint8(2), uint8(0), uint8(0), uint8(77))
	f.Add(uint64(2), uint8(5), uint8(1), uint8(2), uint8(2), uint8(2), uint8(0))
	f.Add(uint64(3), uint8(6), uint8(3), uint8(1), uint8(1), uint8(1), uint8(200))
	f.Add(uint64(4), uint8(7), uint8(7), uint8(0), uint8(3), uint8(2), uint8(100))
	f.Fuzz(func(t *testing.T, seed uint64, shape, model, hwMode, hops, occMode, comm uint8) {
		c := fuzzCampaign(t, seed, shape, model, hwMode, hops, occMode, comm, 0)
		c.Trials = 4096
		if _, ok := checkExact(t, c, 6.5); !ok {
			t.Skip("ineligible for the exact chain")
		}
	})
}
