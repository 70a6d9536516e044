package faultsim

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"repro/internal/attrs"
	"repro/internal/graph"
)

// Campaign rebuilds the campaign a WireCampaign describes through a
// graph: the path flagless workers took before they built their runner
// straight from the spec (WireCampaign.Runner). It is the reference that
// FuzzSpecRunnerMatchesCampaign holds the spec path to. Replica markers
// go in first and weighted edges after, so a weighted edge that replaced
// one half of a replica pair survives the rebuild whichever half sorts
// first. Validation of the probability fields happens where it always
// does — NewChunkRunner / NewMerger — not here.
func (w *WireCampaign) Campaign() (Campaign, error) {
	g := graph.New()
	hwOf := map[string]string{}
	for _, n := range w.Nodes {
		if err := g.AddNode(n.Name, attrs.New(map[attrs.Kind]float64{attrs.Criticality: n.Criticality})); err != nil {
			return Campaign{}, fmt.Errorf("faultsim: wire campaign node %q: %w", n.Name, err)
		}
		if n.HW != "" {
			hwOf[n.Name] = n.HW
		}
	}
	for _, replica := range []bool{true, false} {
		for _, e := range w.Edges {
			switch {
			case e.Replica != replica:
			case replica:
				// AddReplicaEdge installs both directions; the wire carries
				// both, so the reverse insert is an idempotent re-add.
				if err := g.AddReplicaEdge(e.From, e.To); err != nil {
					return Campaign{}, fmt.Errorf("faultsim: wire campaign replica edge %s->%s: %w", e.From, e.To, err)
				}
			default:
				if err := g.SetEdge(e.From, e.To, e.Weight); err != nil {
					return Campaign{}, fmt.Errorf("faultsim: wire campaign edge %s->%s: %w", e.From, e.To, err)
				}
			}
		}
	}
	model, err := ModelByName(w.Model, w.Burst, w.Persist)
	if err != nil {
		return Campaign{}, err
	}
	if len(hwOf) == 0 {
		hwOf = nil
	}
	var occ map[string]float64
	if len(w.OccurrenceWeights) > 0 {
		occ = make(map[string]float64, len(w.OccurrenceWeights))
		for k, v := range w.OccurrenceWeights {
			occ[k] = v
		}
	}
	return Campaign{
		Graph:             g,
		HWOf:              hwOf,
		Trials:            w.Trials,
		Seed:              w.Seed,
		OccurrenceWeights: occ,
		CriticalThreshold: w.CriticalThreshold,
		MaxHops:           w.MaxHops,
		CommFaultFraction: w.CommFaultFraction,
		Model:             model,
		Label:             w.Label,
	}, nil
}

// refFingerprint is the campaign fingerprint as it was computed before
// the flat form: hash/fnv over strings built from the graph. Every
// campaign without a −0 float must still fingerprint the same, or
// checkpoints and fabric handshakes across versions would stop matching.
func refFingerprint(c Campaign) string {
	h := fnv.New64a()
	ws := func(s string) {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	wf := func(f float64) { ws(strconv.FormatUint(math.Float64bits(f), 16)) }
	ws("faultsim-campaign-v2")
	ws(strconv.FormatUint(c.Seed, 16))
	ws(strconv.Itoa(c.MaxHops))
	wf(c.CriticalThreshold)
	wf(c.CommFaultFraction)
	switch m := c.model().(type) {
	case burstModel:
		ws("burst")
		ws(strconv.Itoa(m.k))
	case transientModel:
		ws("transient")
		wf(m.persistProb)
	default:
		ws(m.Name())
	}
	for _, n := range c.Graph.Nodes() {
		ws(n)
		ws(c.HWOf[n])
		wf(c.OccurrenceWeights[n])
		wf(c.Graph.Attrs(n).Value(attrs.Criticality))
	}
	for _, e := range c.Graph.Edges() {
		ws(e.From)
		ws(e.To)
		wf(e.Weight)
		ws(strconv.FormatBool(e.Replica))
	}
	return strconv.FormatUint(h.Sum64(), 16)
}

func wireTestCampaign(t *testing.T, model FaultModel) Campaign {
	t.Helper()
	g := graph.New()
	for _, n := range []struct {
		name string
		crit float64
	}{{"a", 12}, {"b", 3}, {"c", 7}, {"d", 1}} {
		if err := g.AddNode(n.name, attrs.New(map[attrs.Kind]float64{attrs.Criticality: n.crit})); err != nil {
			t.Fatalf("AddNode(%s): %v", n.name, err)
		}
	}
	for _, e := range []struct {
		from, to string
		w        float64
	}{{"a", "b", 0.9}, {"b", "c", 0.5}, {"c", "d", 0.7}, {"a", "c", 0.2}} {
		if err := g.SetEdge(e.from, e.to, e.w); err != nil {
			t.Fatalf("SetEdge(%s->%s): %v", e.from, e.to, err)
		}
	}
	if err := g.AddReplicaEdge("b", "d"); err != nil {
		t.Fatalf("AddReplicaEdge: %v", err)
	}
	return Campaign{
		Graph:             g,
		HWOf:              map[string]string{"a": "h1", "b": "h1", "c": "h2", "d": "h2"},
		Trials:            192,
		Seed:              1998,
		OccurrenceWeights: map[string]float64{"a": 2, "c": 1},
		CriticalThreshold: 10,
		MaxHops:           3,
		CommFaultFraction: 0.3,
		Model:             model,
		Label:             "wire-test",
	}
}

// mergeRunner runs every chunk of r and merges them through a Merger of
// c, as a coordinator merges the chunks of its workers.
func mergeRunner(t *testing.T, c Campaign, r *ChunkRunner) Result {
	t.Helper()
	m, err := NewMerger(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	for seq := 0; seq < NumChunks(c.Trials); seq++ {
		begin, end := ChunkBounds(seq, c.Trials)
		out, err := r.Run(context.Background(), begin, end)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Absorb(out); err != nil {
			t.Fatal(err)
		}
	}
	return m.Finish()
}

// TestWireCampaignRoundTrip is the self-configuration contract: a campaign
// flattened for the wire, serialised through JSON (as the fabric frames
// do), and built into a runner on the far side must fingerprint
// identically to the original and produce chunks that merge into Run's
// Result bit for bit — that is what lets a flagless worker trust a
// shipped spec after checking only the fingerprint.
func TestWireCampaignRoundTrip(t *testing.T) {
	models := map[string]FaultModel{
		"single":     nil, // default model
		"correlated": Correlated(),
		"burst":      Burst(3),
		"transient":  Transient(0.4),
	}
	for name, model := range models {
		t.Run(name, func(t *testing.T) { checkWireRoundTrip(t, wireTestCampaign(t, model)) })
	}
}

// TestWireCampaignNegativeZero: omitempty drops a −0 float from the
// shipped spec, so the far side reads +0 for each −0 here (an edge
// weight, a criticality, the threshold, the comm-fault fraction and the
// persistence); the round trip must still hold.
func TestWireCampaignNegativeZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	c := wireTestCampaign(t, Transient(negZero))
	c.CriticalThreshold, c.CommFaultFraction = negZero, negZero
	if err := c.Graph.AddNode("e", attrs.New(map[attrs.Kind]float64{attrs.Criticality: negZero})); err != nil {
		t.Fatal(err)
	}
	if err := c.Graph.SetEdge("a", "d", negZero); err != nil {
		t.Fatal(err)
	}
	checkWireRoundTrip(t, c)
}

// checkWireRoundTrip serialises c's flat form through JSON and builds a
// runner from it, as a flagless worker does; the runner must fingerprint
// as c and its chunks must merge into Run's Result.
func checkWireRoundTrip(t *testing.T, c Campaign) {
	t.Helper()
	data, err := json.Marshal(flatten(&c))
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back WireCampaign
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	r, err := back.Runner()
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got, want := r.Fingerprint(), c.Fingerprint(); got != want {
		t.Fatalf("decoded fingerprint %s != original %s", got, want)
	}
	want, err := Run(c)
	if err != nil {
		t.Fatalf("Run(original): %v", err)
	}
	if got := mergeRunner(t, c, r); !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded campaign result diverged:\n got %+v\nwant %+v", got, want)
	}
}

// TestWireCampaignRejectsBadSpec pins the spec path's validation: a spec
// no graph flattens to, a hostile weight or an unknown model fails loudly
// instead of silently running something else.
func TestWireCampaignRejectsBadSpec(t *testing.T) {
	c := wireTestCampaign(t, nil)
	w := flatten(&c)
	if _, err := w.Runner(); err != nil {
		t.Fatalf("flattened campaign rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		edit func(w *WireCampaign)
		want error
	}{
		{"weight above 1", func(w *WireCampaign) { w.Edges[0].Weight = 7 }, ErrBadProbability},
		{"NaN weight", func(w *WireCampaign) { w.Edges[0].Weight = math.NaN() }, ErrBadProbability},
		{"unknown model", func(w *WireCampaign) { w.Model = "definitely-not-a-model" }, ErrBadModel},
		{"no trials", func(w *WireCampaign) { w.Trials = 0 }, ErrNoTrials},
		{"no nodes", func(w *WireCampaign) { w.Nodes, w.Edges = nil, nil }, ErrNoNodes},
		{"empty name", func(w *WireCampaign) { w.Nodes[0].Name = "" }, errSpec},
		{"duplicate node", func(w *WireCampaign) { w.Nodes[1].Name = w.Nodes[0].Name }, errSpec},
		{"nodes out of order", func(w *WireCampaign) { w.Nodes[0], w.Nodes[1] = w.Nodes[1], w.Nodes[0] }, errSpec},
		{"edges out of order", func(w *WireCampaign) { w.Edges[0], w.Edges[1] = w.Edges[1], w.Edges[0] }, errSpec},
		{"duplicate edge", func(w *WireCampaign) { w.Edges[1] = w.Edges[0] }, errSpec},
		{"unknown source", func(w *WireCampaign) { w.Edges[0].From = "0" }, graph.ErrNoSuchNode},
		{"unknown target", func(w *WireCampaign) { w.Edges[0].To = "zz" }, graph.ErrNoSuchNode},
		{"self edge", func(w *WireCampaign) { w.Edges[0].To = w.Edges[0].From }, graph.ErrSelfEdge},
		{"weighted replica", func(w *WireCampaign) { w.Edges[replicaAt(w)].Weight = 0.5 }, errSpec},
		{"one-way replica", func(w *WireCampaign) {
			i := replicaAt(w)
			w.Edges = append(w.Edges[:i], w.Edges[i+1:]...)
		}, errSpec},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := *w
			bad.Nodes = slices.Clone(w.Nodes)
			bad.Edges = slices.Clone(w.Edges)
			tc.edit(&bad)
			if _, err := bad.Runner(); !errors.Is(err, tc.want) {
				t.Fatalf("Runner() = %v, want %v", err, tc.want)
			}
		})
	}
}

// replicaAt returns the index of w's first replica edge.
func replicaAt(w *WireCampaign) int {
	return slices.IndexFunc(w.Edges, func(e WireEdge) bool { return e.Replica })
}

// TestEmptyHWOfMatchesShippedSpec pins the HW boundary of a campaign whose
// HWOf is empty but not nil. The shipped spec carries only each node's
// host, so a worker sees a campaign without HWOf; both sides must agree
// that it has no HW boundary, or a fabric run merges chunks computed
// under another fault set than the local run. Under Correlated a boundary
// of one unnamed host faulted every node at once.
func TestEmptyHWOfMatchesShippedSpec(t *testing.T) {
	g := graph.New()
	for _, n := range []string{"a", "b", "c"} {
		if err := g.AddNode(n, attrs.New(map[attrs.Kind]float64{attrs.Criticality: 5})); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range [][2]string{{"a", "b"}, {"b", "c"}} {
		if err := g.SetEdge(e[0], e[1], 0.5); err != nil {
			t.Fatal(err)
		}
	}
	c := Campaign{Graph: g, HWOf: map[string]string{}, Trials: 640, Seed: 4, Workers: 1, Model: Correlated()}
	local, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	r, err := flatten(&c).Runner()
	if err != nil {
		t.Fatal(err)
	}
	if shipped := mergeRunner(t, c, r); !reflect.DeepEqual(local, shipped) {
		t.Fatalf("local run affected %d nodes, the shipped spec %d", local.TotalAffected, shipped.TotalAffected)
	}
	noHW := c
	noHW.HWOf = nil
	if want, err := Run(noHW); err != nil || !reflect.DeepEqual(local, want) {
		t.Fatalf("HWOf {} affected %d nodes, HWOf nil %d (err %v)", local.TotalAffected, want.TotalAffected, err)
	}
}

// TestSearchRunnerHook pins the dispatch seam the fabric uses: a Runner
// that delegates to Run must yield a SearchResult bit-identical to the
// local search, and must have been consulted for every evaluation.
func TestSearchRunnerHook(t *testing.T) {
	c := wireTestCampaign(t, nil)
	base := SearchConfig{
		Graph:             c.Graph,
		HWOf:              c.HWOf,
		Trials:            64,
		Seed:              7,
		MaxEvals:          6,
		CriticalThreshold: 10,
	}
	want, err := Search(base)
	if err != nil {
		t.Fatalf("Search(local): %v", err)
	}
	hooked := base
	calls := 0
	hooked.Runner = func(cc Campaign) (Result, error) {
		calls++
		return Run(cc)
	}
	got, err := Search(hooked)
	if err != nil {
		t.Fatalf("Search(runner): %v", err)
	}
	if calls == 0 {
		t.Fatal("Runner was never consulted")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Runner-dispatched search diverged from local search")
	}
}
