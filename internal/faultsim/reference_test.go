package faultsim

import (
	"math"
	"math/rand/v2"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/attrs"
	"repro/internal/graph"
	"repro/internal/rng"
)

// This file keeps the string-keyed trial loop the int-indexed one
// replaced — name-keyed adjacency, per-trial faulty/viaCross maps, edge
// keys built as from+">"+to on every transmission draw and a map merge —
// as a differential oracle. FuzzTrialLoopMatchesReference requires Run to
// agree with it exactly.

// refEnv is the string-keyed campaign environment.
type refEnv struct {
	nodes         []string
	out           map[string][]graph.Edge
	commEdges     []graph.Edge
	weights       []float64
	weightTotal   float64
	crit          map[string]float64
	hwOf          map[string]string
	seedBase      uint64
	maxHops       int
	commFrac      float64
	critThreshold float64
	model         FaultModel
}

func newRefEnv(c *Campaign) *refEnv {
	env := &refEnv{
		nodes:         c.Graph.Nodes(),
		out:           map[string][]graph.Edge{},
		crit:          map[string]float64{},
		hwOf:          hostsOrNil(c),
		seedBase:      rng.Mix(c.Seed),
		maxHops:       c.MaxHops,
		commFrac:      c.CommFaultFraction,
		critThreshold: c.CriticalThreshold,
		model:         c.model(),
	}
	for _, n := range env.nodes {
		env.crit[n] = c.Graph.Attrs(n).Value(attrs.Criticality)
		var live []graph.Edge
		for _, e := range c.Graph.OutEdges(n) {
			if e.Replica || e.Weight <= 0 {
				continue
			}
			live = append(live, e)
		}
		env.out[n] = live
	}
	if c.CommFaultFraction > 0 {
		for _, e := range c.Graph.Edges() {
			if !e.Replica && e.Weight > 0 {
				env.commEdges = append(env.commEdges, e)
			}
		}
	}
	env.weights = make([]float64, len(env.nodes))
	for i, n := range env.nodes {
		w := 1.0
		if c.OccurrenceWeights != nil {
			w = c.OccurrenceWeights[n]
		}
		if w < 0 {
			w = 0
		}
		env.weights[i] = w
		env.weightTotal += w
	}
	if env.weightTotal == 0 {
		for i := range env.weights {
			env.weights[i] = 1
		}
		env.weightTotal = float64(len(env.weights))
	}
	return env
}

// hostsOrNil returns c.HWOf, or nil when no node of the graph has a
// non-empty host: such a campaign has no HW boundary (see Campaign.HWOf).
func hostsOrNil(c *Campaign) map[string]string {
	for _, n := range c.Graph.Nodes() {
		if c.HWOf[n] != "" {
			return c.HWOf
		}
	}
	return nil
}

func (env *refEnv) pick(rng *rand.Rand) string {
	x := rng.Float64() * env.weightTotal
	for i, w := range env.weights {
		x -= w
		if x < 0 {
			return env.nodes[i]
		}
	}
	return env.nodes[len(env.nodes)-1]
}

type refOrigin struct {
	node     string
	viaCross bool
}

// inject is every fault model's injector over names.
func (env *refEnv) inject(rng *rand.Rand) (origins []refOrigin, commFault, commCrossed bool) {
	switch m := env.model.(type) {
	case singleModel, transientModel:
		if len(env.commEdges) > 0 && rng.Float64() < env.commFrac {
			e := env.commEdges[rng.IntN(len(env.commEdges))]
			crossed := env.hwOf != nil && env.hwOf[e.From] != env.hwOf[e.To]
			return []refOrigin{{node: e.To, viaCross: crossed}}, true, crossed
		}
		return []refOrigin{{node: env.pick(rng)}}, false, false
	case correlatedModel:
		seed := env.pick(rng)
		if env.hwOf == nil {
			return []refOrigin{{node: seed}}, false, false
		}
		host := env.hwOf[seed]
		for _, n := range env.nodes {
			if env.hwOf[n] == host {
				origins = append(origins, refOrigin{node: n})
			}
		}
		return origins, false, false
	case burstModel:
		k := min(m.k, len(env.nodes))
		weights := append([]float64(nil), env.weights...)
		total := env.weightTotal
		taken := make(map[int]bool, k)
		for drawn := 0; drawn < k; drawn++ {
			idx := -1
			if total > 0 {
				x := rng.Float64() * total
				for i, w := range weights {
					x -= w
					if x < 0 {
						idx = i
						break
					}
				}
				if idx < 0 {
					for i := len(weights) - 1; i >= 0; i-- {
						if weights[i] > 0 {
							idx = i
							break
						}
					}
				}
			}
			if idx < 0 {
				nth := rng.IntN(len(env.nodes) - drawn)
				for i := range env.nodes {
					if taken[i] {
						continue
					}
					if nth == 0 {
						idx = i
						break
					}
					nth--
				}
			}
			taken[idx] = true
			total -= weights[idx]
			if total < 0 {
				total = 0
			}
			weights[idx] = 0
			origins = append(origins, refOrigin{node: env.nodes[idx]})
		}
		return origins, false, false
	}
	panic("reference: unknown fault model")
}

// refChunk is the string-keyed chunk accumulator.
type refChunk struct {
	totalAffected, cross, escapes, commFaults, critical, initial, transient int
	critPerTrial, escPerTrial                                               []float64
	affected, transmissions, edgeTrials                                     map[string]int
}

func (env *refEnv) runTrial(rng *rand.Rand, ch *refChunk) {
	origins, commFault, commCrossed := env.inject(rng)
	persist := env.model.persist()
	if commFault {
		ch.commFaults++
	}
	escaped := false
	if commCrossed {
		ch.cross++
		escaped = true
	}
	ch.initial += len(origins)

	faulty := make(map[string]bool, len(origins))
	var order, frontier []string
	viaCross := map[string]bool{}
	admit := func(n string, crossed bool) {
		faulty[n] = true
		order = append(order, n)
		if crossed {
			viaCross[n] = true
		}
		if persist < 1 && rng.Float64() >= persist {
			ch.transient++
			return
		}
		frontier = append(frontier, n)
	}
	for _, o := range origins {
		if faulty[o.node] {
			continue
		}
		admit(o.node, o.viaCross)
	}
	hops := 0
	for len(frontier) > 0 && (env.maxHops == 0 || hops < env.maxHops) {
		hops++
		boundary := len(frontier)
		for _, u := range frontier[:boundary] {
			for _, e := range env.out[u] {
				key := u + ">" + e.To
				ch.edgeTrials[key]++
				if rng.Float64() >= e.Weight {
					continue
				}
				ch.transmissions[key]++
				if faulty[e.To] {
					continue
				}
				crossed := env.hwOf != nil && env.hwOf[u] != env.hwOf[e.To]
				if crossed {
					ch.cross++
					escaped = true
				}
				admit(e.To, crossed || viaCross[u])
			}
		}
		frontier = frontier[boundary:]
	}
	ch.totalAffected += len(order)
	if escaped {
		ch.escapes++
	}
	loss, escLoss := 0.0, 0.0
	for _, n := range order {
		ch.affected[n]++
		cv := env.crit[n]
		loss += cv
		if viaCross[n] {
			escLoss += cv
		}
		if env.critThreshold > 0 && cv >= env.critThreshold {
			ch.critical++
		}
	}
	ch.critPerTrial = append(ch.critPerTrial, loss)
	ch.escPerTrial = append(ch.escPerTrial, escLoss)
}

// refRun runs c serially on the reference loop, chunk by chunk on the
// trial grid, merging each chunk's maps into the Result. It honours no
// early stopping or checkpointing.
func refRun(t testing.TB, c Campaign) Result {
	t.Helper()
	if _, err := NewChunkRunner(c); err != nil {
		t.Fatalf("reference: %v", err)
	}
	env := newRefEnv(&c)
	res := Result{Trials: c.Trials, AffectedCount: map[string]int{},
		TransmissionCount: map[string]int{}, EdgeTrials: map[string]int{}}
	pcg := rand.NewPCG(0, 0)
	r := rand.New(pcg)
	for b := 0; b < c.Trials; b = chunkEnd(b, c.Trials) {
		ch := &refChunk{affected: map[string]int{}, transmissions: map[string]int{}, edgeTrials: map[string]int{}}
		for trial := b; trial < chunkEnd(b, c.Trials); trial++ {
			pcg.Seed(rng.Seeds(env.seedBase + uint64(trial)))
			env.runTrial(r, ch)
		}
		res.TotalAffected += ch.totalAffected
		res.CrossNodeTransmissions += ch.cross
		res.TrialsWithEscape += ch.escapes
		res.CommFaultTrials += ch.commFaults
		res.CriticalAffected += ch.critical
		res.InitialFaults += ch.initial
		res.TransientFaults += ch.transient
		for _, loss := range ch.critPerTrial {
			res.CriticalityLoss += loss
		}
		for _, loss := range ch.escPerTrial {
			res.EscapedCriticalityLoss += loss
		}
		for k, v := range ch.affected {
			res.AffectedCount[k] += v
		}
		for k, v := range ch.transmissions {
			res.TransmissionCount[k] += v
		}
		for k, v := range ch.edgeTrials {
			res.EdgeTrials[k] += v
		}
	}
	return res
}

// transmitBoundaryWeights are the edge weights at which the trial loop's
// integer draw (x < ⌈w·2⁵³⌉) is most likely to part from the reference's
// Float64() < w: zero and one, the smallest weights a 53-bit draw can
// resolve, and the neighbours of exact binary fractions.
var transmitBoundaryWeights = []float64{
	0, math.SmallestNonzeroFloat64, 0x1p-53, math.Nextafter(0x1p-53, 1),
	0.1, 0.25, math.Nextafter(0.5, 0), 0.5, math.Nextafter(0.5, 1), 0.9,
	math.Nextafter(1, 0), 1,
}

// refNames is the node-name pool of the fuzzed graphs. Names containing
// '>' make edge keys collide: a>"b>c" and "a>b">c both key "a>b>c".
var refNames = []string{"a", "b", "c", "a>b", "b>c", "c>a", ">", "a>", "h"}

// fuzzCampaign derives a small campaign from the fuzz inputs: a random
// graph over refNames with live, zero-weight and replica edges, HWOf nil,
// partial or full, and every fault model.
func fuzzCampaign(t testing.TB, seed uint64, shape, model, hwMode, hops, occMode, comm uint8, trials uint16) Campaign {
	t.Helper()
	pr := rand.New(rand.NewPCG(seed, seed^0x5bd1e995))
	g := graph.New()
	names := append([]string(nil), refNames...)
	pr.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	names = names[:1+int(shape)%len(names)]
	for _, n := range names {
		crit := float64(pr.IntN(16))
		if err := g.AddNode(n, attrs.New(map[attrs.Kind]float64{attrs.Criticality: crit})); err != nil {
			t.Fatal(err)
		}
	}
	weights := transmitBoundaryWeights
	for _, from := range names {
		for _, to := range names {
			if from == to || pr.IntN(3) == 0 {
				continue
			}
			if pr.IntN(8) == 0 {
				if err := g.AddReplicaEdge(from, to); err != nil {
					t.Fatal(err)
				}
				continue
			}
			w := weights[pr.IntN(len(weights))]
			if pr.IntN(2) == 0 {
				w = pr.Float64()
			}
			if err := g.SetEdge(from, to, w); err != nil {
				t.Fatal(err)
			}
		}
	}
	c := Campaign{
		Graph:             g,
		Trials:            1 + int(trials)%300,
		Seed:              seed,
		Workers:           1 + int(shape/16)%3,
		MaxHops:           int(hops) % 4,
		CriticalThreshold: float64(int(hops/4) % 2 * 8),
	}
	if comm%3 != 0 {
		c.CommFaultFraction = float64(comm) / 255
	}
	switch hwMode % 3 {
	case 1: // partial: some nodes unmapped, some on an explicit "" host
		c.HWOf = map[string]string{}
		for i, n := range names {
			switch pr.IntN(4) {
			case 0:
			case 1:
				c.HWOf[n] = ""
			default:
				c.HWOf[n] = []string{"h1", "h2"}[i%2]
			}
		}
	case 2:
		c.HWOf = map[string]string{}
		for _, n := range names {
			c.HWOf[n] = []string{"h1", "h2", "h3"}[pr.IntN(3)]
		}
	}
	switch occMode % 3 {
	case 1:
		c.OccurrenceWeights = map[string]float64{}
		for _, n := range names {
			c.OccurrenceWeights[n] = 0
		}
	case 2:
		c.OccurrenceWeights = map[string]float64{}
		for _, n := range names {
			if pr.IntN(3) != 0 {
				c.OccurrenceWeights[n] = pr.Float64() * 3
			}
		}
	}
	switch model % 4 {
	case 1:
		c.Model = Correlated()
	case 2:
		c.Model = Burst(1 + int(model/4)%4)
	case 3:
		c.Model = Transient([]float64{0, 0.5, 1, 0.8}[int(model/4)%4])
	}
	return c
}

// FuzzTrialLoopMatchesReference pins the int-indexed trial loop and dense
// merge to the string-keyed reference: over random graphs (colliding
// edge keys included), every fault model, HWOf nil or partial, MaxHops,
// occurrence weights and comm faults, Run's Result must be DeepEqual to
// the reference's.
func FuzzTrialLoopMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint8(8), uint8(0), uint8(2), uint8(0), uint8(0), uint8(77), uint16(200))
	f.Add(uint64(2), uint8(5), uint8(1), uint8(1), uint8(2), uint8(2), uint8(0), uint16(150))
	f.Add(uint64(3), uint8(24), uint8(6), uint8(0), uint8(1), uint8(1), uint8(200), uint16(130))
	f.Add(uint64(4), uint8(40), uint8(7), uint8(1), uint8(7), uint8(2), uint8(100), uint16(299))
	f.Add(uint64(5), uint8(0), uint8(2), uint8(2), uint8(0), uint8(0), uint8(0), uint16(0))
	f.Add(uint64(6), uint8(7), uint8(11), uint8(2), uint8(3), uint8(1), uint8(31), uint16(64))
	// Nine nodes whose edges carry every transmitBoundaryWeights value.
	f.Add(uint64(38), uint8(8), uint8(0), uint8(2), uint8(0), uint8(0), uint8(0), uint16(299))
	f.Fuzz(func(t *testing.T, seed uint64, shape, model, hwMode, hops, occMode, comm uint8, trials uint16) {
		c := fuzzCampaign(t, seed, shape, model, hwMode, hops, occMode, comm, trials)
		got, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		if want := refRun(t, c); !reflect.DeepEqual(got, want) {
			t.Fatalf("Run differs from the string-keyed reference\ngot  %+v\nwant %+v", got, want)
		}
	})
}

// TestCollidingEdgeKeysResume runs a campaign whose graph has two edges
// keyed "a>b>c", interrupted by a checkpoint and resumed: the shared key
// must hold the summed count through the checkpoint round trip, and the
// result must match both an uninterrupted run and the reference.
func TestCollidingEdgeKeysResume(t *testing.T) {
	g := graph.New()
	for _, n := range []string{"a", "b>c", "a>b", "c"} {
		if err := g.AddNode(n, attrs.New(map[attrs.Kind]float64{attrs.Criticality: 5})); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range [][2]string{{"a", "b>c"}, {"a>b", "c"}, {"b>c", "a>b"}, {"c", "a"}} {
		if err := g.SetEdge(e[0], e[1], 0.6); err != nil {
			t.Fatal(err)
		}
	}
	c := Campaign{Graph: g, HWOf: map[string]string{"a": "h1", "b>c": "h2"},
		Trials: 640, Seed: 9, Workers: 1, CommFaultFraction: 0.2}
	want := refRun(t, c)
	if got, err := Run(c); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("uninterrupted run differs from the reference (err %v)", err)
	}
	if want.EdgeTrials["a>b>c"] == 0 || len(want.EdgeTrials) != 3 {
		t.Fatalf("edge keys do not collide as intended: %v", want.EdgeTrials)
	}

	path := filepath.Join(t.TempDir(), "ckpt.json")
	half := c
	half.Trials = 320
	half.CheckpointPath = path
	if _, err := Run(half); err != nil {
		t.Fatal(err)
	}
	resumed := c
	resumed.CheckpointPath = path
	resumed.Resume = true
	got, err := Run(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed run differs\ngot  %+v\nwant %+v", got, want)
	}
}
