package faultsim

import (
	"context"
	"errors"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/attrs"
	"repro/internal/graph"
)

// FuzzFaultModel throws random model selectors, boundary and non-finite
// probabilities at the campaign entry point. Whatever the inputs, Run
// must either reject them with a classified validation error or return a
// finite, internally consistent, deterministic Result — never panic, and
// never let a NaN leak into the estimators.
func FuzzFaultModel(f *testing.F) {
	f.Add("single", 1, 1.0, 0.0, 1.0, uint64(7))
	f.Add("correlated", 0, 0.5, 0.3, 0.6, uint64(1))
	f.Add("burst", 3, 1.0, 0.0, 0.9, uint64(42))
	f.Add("transient", 2, 0.25, 1.0, 0.0, uint64(99))
	f.Add("burst", -1, math.NaN(), math.Inf(1), math.NaN(), uint64(0))
	f.Add("transient", 0, math.Inf(-1), -0.5, 2.0, uint64(3))
	f.Fuzz(func(t *testing.T, name string, k int, persist, comm, weight float64, seed uint64) {
		model, err := ModelByName(name, k, persist)
		if err != nil {
			if !errors.Is(err, ErrBadModel) {
				t.Fatalf("ModelByName(%q,%d,%g): unclassified error %v", name, k, persist, err)
			}
			return
		}
		g := graph.New()
		crits := map[string]float64{"a": 12, "b": 3, "c": 7, "d": 1}
		for _, n := range []string{"a", "b", "c", "d"} {
			if err := g.AddNode(n, attrs.New(map[attrs.Kind]float64{attrs.Criticality: crits[n]})); err != nil {
				t.Fatal(err)
			}
		}
		for _, e := range []struct {
			from, to string
			w        float64
		}{{"a", "b", 0.6}, {"b", "c", weight}, {"c", "d", 0.5}, {"d", "a", 0.3}} {
			if err := g.SetEdge(e.from, e.to, e.w); err != nil {
				// Out-of-range weights the graph already rejects are fine;
				// what must not happen is a weight both layers accept that
				// then poisons the campaign (NaN slips through SetEdge).
				continue
			}
		}
		c := Campaign{
			Graph:             g,
			HWOf:              map[string]string{"a": "h1", "b": "h1", "c": "h2", "d": "h2"},
			Trials:            64,
			Seed:              seed,
			CommFaultFraction: comm,
			CriticalThreshold: 10,
			Model:             model,
		}
		res, err := Run(c)
		if err != nil {
			if !errors.Is(err, ErrBadProbability) && !errors.Is(err, ErrBadModel) {
				t.Fatalf("unclassified campaign error: %v", err)
			}
			return
		}
		if res.Trials != c.Trials {
			t.Fatalf("Trials = %d, want %d", res.Trials, c.Trials)
		}
		if res.InitialFaults < res.Trials {
			t.Fatalf("InitialFaults = %d < Trials %d", res.InitialFaults, res.Trials)
		}
		if r := res.EscapeRate(); r < 0 || r > 1 || math.IsNaN(r) {
			t.Fatalf("EscapeRate = %g out of range", r)
		}
		for _, v := range []float64{res.CriticalityLoss, res.EscapedCriticalityLoss, res.CriticalityWeightedEscapeRate()} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Fatalf("non-finite or negative estimator in %+v", res)
			}
		}
		if res.EscapedCriticalityLoss > res.CriticalityLoss {
			t.Fatalf("escaped loss %g exceeds total loss %g",
				res.EscapedCriticalityLoss, res.CriticalityLoss)
		}
		again, err := Run(c)
		if err != nil {
			t.Fatalf("second run errored: %v", err)
		}
		if !reflect.DeepEqual(res, again) {
			t.Fatal("same campaign, different Result — determinism broken")
		}
	})
}

// FuzzMergerOrder feeds a small campaign's grid chunks to a Merger in a
// fuzzer-chosen order, skipping repeats through Has, then completes it in
// grid order. Whatever the arrival order, with or without early stopping,
// the merged Result must equal Run at Workers=1 exactly.
func FuzzMergerOrder(f *testing.F) {
	g, hw := web(f)
	type fixture struct {
		c      Campaign
		want   Result
		chunks []*ChunkOutput
	}
	var fx [2]fixture
	for i, halfWidth := range []float64{0, 0.06} {
		c := Campaign{Graph: g, HWOf: hw, Trials: 1000, Seed: 42,
			CriticalThreshold: 10, CommFaultFraction: 0.3, StopHalfWidth: halfWidth}
		ref := c
		ref.Workers = 1
		want, err := Run(ref)
		if err != nil {
			f.Fatal(err)
		}
		if want.EarlyStopped != (halfWidth > 0) {
			f.Fatalf("StopHalfWidth %g: EarlyStopped = %v", halfWidth, want.EarlyStopped)
		}
		runner, err := NewChunkRunner(c)
		if err != nil {
			f.Fatal(err)
		}
		fx[i] = fixture{c: c, want: want}
		for seq := 0; seq < NumChunks(c.Trials); seq++ {
			begin, end := ChunkBounds(seq, c.Trials)
			out, err := runner.Run(context.Background(), begin, end)
			if err != nil {
				f.Fatal(err)
			}
			fx[i].chunks = append(fx[i].chunks, out)
		}
	}
	f.Add([]byte{}, false)
	f.Add([]byte{15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0}, false)
	f.Add([]byte{15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0}, true)
	f.Add([]byte{1, 0, 3, 2, 3, 5, 4, 9, 7, 6, 8}, true)
	f.Fuzz(func(t *testing.T, order []byte, stop bool) {
		x := fx[0]
		if stop {
			x = fx[1]
		}
		m, err := NewMerger(x.c, 1)
		if err != nil {
			t.Fatal(err)
		}
		feed := func(seq int) {
			if m.Done() || m.Has(seq) {
				return
			}
			if _, err := m.Absorb(x.chunks[seq]); err != nil {
				t.Fatalf("chunk %d: %v", seq, err)
			}
		}
		for _, b := range order {
			feed(int(b) % len(x.chunks))
		}
		for seq := range x.chunks {
			feed(seq)
		}
		if !m.Done() {
			t.Fatal("every chunk absorbed but the merger is not done")
		}
		for seq, ch := range x.chunks {
			if ch.End > m.Frontier() && m.Has(seq) {
				t.Fatalf("chunk %d beyond the final frontier %d still held", seq, m.Frontier())
			}
		}
		if got := m.Finish(); !reflect.DeepEqual(got, x.want) {
			t.Fatalf("order %v: merged Result differs from Run", order)
		}
	})
}

// sameChunk reports whether two chunks are bit-identical: every counter
// equal and every per-trial loss the same float64 bits.
func sameChunk(a, b *ChunkOutput) bool {
	bits := func(fs []float64) []uint64 {
		out := make([]uint64, len(fs))
		for i, f := range fs {
			out[i] = math.Float64bits(f)
		}
		return out
	}
	x, y := *a, *b
	if !slices.Equal(bits(x.CritPerTrial), bits(y.CritPerTrial)) || !slices.Equal(bits(x.EscPerTrial), bits(y.EscPerTrial)) {
		return false
	}
	x.CritPerTrial, x.EscPerTrial, y.CritPerTrial, y.EscPerTrial = nil, nil, nil, nil
	return reflect.DeepEqual(x, y)
}

// specPool is the name pool of fuzzed specs: "" and names that sort
// around each other, so the bytes can put nodes and edges out of order.
var specPool = []string{"", "a", "b", "c", "a>b", "b>c", "h", "hx"}

// fuzzSpec builds an arbitrary flat campaign from data: nodes and edges in
// the order the bytes give them, every endpoint from specPool (known or
// not), weights in range or not, replica markers with or without their
// reverse, hosts, occurrence weights and any model selector.
func fuzzSpec(data []byte) *WireCampaign {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	name := func() string { return specPool[int(next())%len(specPool)] }
	weights := []float64{0, 0.25, 0.5, 1, 0.9, math.Copysign(0, -1), -0.5, 1.5, math.NaN()}
	w := &WireCampaign{Trials: 1 + int(next())%200, Seed: uint64(next()), MaxHops: int(next()) % 3,
		CommFaultFraction: []float64{0, 0.3, 1, -1}[next()%4]}
	w.Model = []string{"", "single", "correlated", "burst", "transient", "bogus"}[next()%6]
	w.Burst = int(next()%5) - 1
	w.Persist = []float64{0, 0.5, 1, 2}[next()%4]
	for i, n := 0, int(next()%6); i < n; i++ {
		w.Nodes = append(w.Nodes, WireNode{Name: name(), Criticality: float64(next() % 16), HW: []string{"", "h1", "h2"}[next()%3]})
	}
	for i, n := 0, int(next()%12); i < n; i++ {
		b := next()
		e := WireEdge{From: name(), To: name(), Weight: weights[int(b)%len(weights)], Replica: b&0x80 != 0}
		if e.Replica && b&0x40 == 0 {
			e.Weight = 0
		}
		w.Edges = append(w.Edges, e)
	}
	if b := next(); b%3 != 0 {
		w.OccurrenceWeights = map[string]float64{}
		for _, nd := range w.Nodes {
			w.OccurrenceWeights[nd.Name] = []float64{0, 1, 2.5, -1}[int(next())%4]
		}
	}
	return w
}

// FuzzSpecRunnerMatchesCampaign pins the spec path a flagless worker
// takes — WireCampaign.Runner, with no graph — to the graph-rebuild
// reference (WireCampaign.Campaign, then NewChunkRunner). On an
// arbitrary spec the spec path must either reject it or give the
// reference's fingerprint and bit-identical chunks; on the flat form of a
// fuzzed campaign it must accept, with the campaign's own chunks and the
// fingerprint the graph-walking reference (refFingerprint) gives.
func FuzzSpecRunnerMatchesCampaign(f *testing.F) {
	f.Add([]byte{}, uint64(1), uint8(8), uint8(1), uint8(2), uint8(0))
	f.Add([]byte{50, 3, 1, 2, 3, 2, 0, 4, 1, 0, 1, 2, 1, 5, 1, 2, 6, 2, 0, 3, 1, 2, 2, 0x81, 1, 2, 0x83, 2, 1, 0x83, 3, 1, 1}, uint64(2), uint8(5), uint8(6), uint8(1), uint8(1))
	f.Add([]byte{100, 7, 2, 0, 3, 2, 1, 3, 2, 3, 1, 1, 6, 1, 4, 2, 7, 2, 4, 2, 1, 3, 1, 2, 2, 3, 0, 1, 3}, uint64(3), uint8(24), uint8(3), uint8(0), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, seed uint64, shape, model, hwMode, occMode uint8) {
		// Arbitrary specs: reject, or match the reference.
		w := fuzzSpec(data)
		if r, err := w.Runner(); err == nil {
			c, err := w.Campaign()
			if err != nil {
				t.Fatalf("spec path accepted a spec the rebuild rejects: %v\n%+v", err, w)
			}
			ref, err := NewChunkRunner(c)
			if err != nil {
				t.Fatalf("spec path accepted a campaign NewChunkRunner rejects: %v\n%+v", err, w)
			}
			matchRunners(t, r, ref)
		}
		// Flattened campaigns: always accepted, and the campaign's own.
		c := fuzzCampaign(t, seed, shape, model, hwMode, model>>2, occMode, shape, uint16(seed))
		r, err := flatten(&c).Runner()
		if err != nil {
			t.Fatalf("spec path rejected a flattened campaign: %v", err)
		}
		if got, want := r.Fingerprint(), refFingerprint(c); got != want || c.Fingerprint() != want {
			t.Fatalf("spec fingerprint %s, campaign %s, reference %s", got, c.Fingerprint(), want)
		}
		rc, err := flatten(&c).Campaign()
		if err != nil {
			t.Fatalf("reference rejected a flattened campaign: %v", err)
		}
		ref, err := NewChunkRunner(rc)
		if err != nil {
			t.Fatal(err)
		}
		matchRunners(t, r, ref)
	})
}

// matchRunners fails unless r and ref fingerprint equally and compute
// bit-identical first and last chunks.
func matchRunners(t *testing.T, r, ref *ChunkRunner) {
	t.Helper()
	if got, want := r.Fingerprint(), ref.Fingerprint(); got != want {
		t.Fatalf("spec fingerprint %s, reference %s", got, want)
	}
	trials := r.Trials()
	for _, seq := range []int{0, NumChunks(trials) - 1} {
		begin, end := ChunkBounds(seq, trials)
		got, err := r.Run(context.Background(), begin, end)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Run(context.Background(), begin, end)
		if err != nil {
			t.Fatal(err)
		}
		if !sameChunk(got, want) {
			t.Fatalf("chunk %d differs from the reference\ngot  %+v\nwant %+v", seq, got, want)
		}
	}
}
