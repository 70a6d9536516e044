package faultsim

import (
	"maps"

	"repro/internal/attrs"
)

// This file is the campaign wire codec: a self-contained, JSON-friendly
// encoding of everything that determines a campaign's deterministic trial
// sequence, so a distributed-fabric coordinator can ship the campaign to
// workers instead of requiring every worker to be launched with matching
// flags. The encoding is deliberately minimal — exactly the fields
// Campaign.Fingerprint() hashes, no more — so a decoded campaign
// fingerprints identically to the original and produces bit-identical
// chunks through ChunkRunner. It is also the campaign's one in-memory flat
// form: every trial environment is built from it (see flatten).

// WireNode is one influence-graph node on the wire: its name, criticality
// attribute and HW placement.
type WireNode struct {
	Name        string  `json:"name"`
	Criticality float64 `json:"criticality,omitempty"`
	HW          string  `json:"hw,omitempty"`
}

// WireEdge is one directed influence edge on the wire. Replica edges
// (weight-0 markers) are shipped too: they are excluded from propagation,
// but they participate in the campaign fingerprint.
type WireEdge struct {
	From    string  `json:"from"`
	To      string  `json:"to"`
	Weight  float64 `json:"weight,omitempty"`
	Replica bool    `json:"replica,omitempty"`
}

// WireCampaign is the serialisable identity of a campaign: the influence
// graph, HW mapping, seed, trial budget, fault model and propagation
// parameters. Local-only concerns — worker pools, telemetry, checkpoint
// paths — never cross the wire.
type WireCampaign struct {
	Nodes             []WireNode         `json:"nodes"`
	Edges             []WireEdge         `json:"edges,omitempty"`
	Trials            int                `json:"trials"`
	Seed              uint64             `json:"seed"`
	OccurrenceWeights map[string]float64 `json:"occurrence_weights,omitempty"`
	CriticalThreshold float64            `json:"critical_threshold,omitempty"`
	MaxHops           int                `json:"max_hops,omitempty"`
	CommFaultFraction float64            `json:"comm_fault_fraction,omitempty"`
	// Model identity: name plus the one parameter each model carries.
	Model   string  `json:"model,omitempty"`
	Burst   int     `json:"burst,omitempty"`
	Persist float64 `json:"persist,omitempty"`
	Label   string  `json:"label,omitempty"`
}

// flatten reads c into its flat form in one pass over the graph's nodes
// and one over its edges, both in sorted order: nodes by name, edges by
// (From, To), as Graph.Nodes and Graph.Edges list them. The flat form is
// what every consumer builds a campaign from — Run, NewMerger,
// NewChunkRunner and the fabric worker — so a campaign is read from its
// graph once however it runs, and two equal campaigns flatten (and
// encode) byte-identically. A nil graph flattens to no nodes.
func flatten(c *Campaign) *WireCampaign {
	w := &WireCampaign{
		Trials:            c.Trials,
		Seed:              c.Seed,
		CriticalThreshold: c.CriticalThreshold,
		MaxHops:           c.MaxHops,
		CommFaultFraction: c.CommFaultFraction,
		Label:             c.Label,
	}
	switch m := c.model().(type) {
	case singleModel:
		w.Model = "single"
	case correlatedModel:
		w.Model = "correlated"
	case burstModel:
		w.Model = "burst"
		w.Burst = m.k
	case transientModel:
		w.Model = "transient"
		w.Persist = m.persistProb
	}
	if len(c.OccurrenceWeights) > 0 {
		w.OccurrenceWeights = maps.Clone(c.OccurrenceWeights)
	}
	g := c.Graph
	if g == nil || g.NumNodes() == 0 {
		return w
	}
	slots := g.SlotsByName()
	w.Nodes = make([]WireNode, len(slots))
	for i, s := range slots {
		name := g.Name(s)
		w.Nodes[i] = WireNode{Name: name, Criticality: g.Attrs(name).Value(attrs.Criticality), HW: c.HWOf[name]}
	}
	if g.NumEdges() > 0 {
		w.Edges = make([]WireEdge, 0, g.NumEdges())
		g.EachEdge(func(from, to int, weight float64, replica bool) {
			w.Edges = append(w.Edges, WireEdge{From: g.Name(from), To: g.Name(to), Weight: weight, Replica: replica})
		})
	}
	return w
}

// Runner validates w and builds its ChunkRunner straight from the flat
// form, with no graph: the path of a worker that configures itself from
// a shipped spec. It rejects every spec a graph could not have produced
// (see newCampaignEnv) and an unknown model, so an accepted spec runs
// exactly the campaign it fingerprints as; the caller still compares that
// fingerprint with the one the coordinator claims. The runner keeps w,
// which must not change afterwards.
func (w *WireCampaign) Runner() (*ChunkRunner, error) {
	model, err := ModelByName(w.Model, w.Burst, w.Persist)
	if err != nil {
		return nil, err
	}
	env, err := newCampaignEnv(w, model)
	if err != nil {
		return nil, err
	}
	return &ChunkRunner{env: env}, nil
}
