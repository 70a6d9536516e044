package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/attrs"
	"repro/internal/cluster"
	"repro/internal/estimate"
	"repro/internal/graph"
	"repro/internal/hw"
	"repro/internal/mapping"
	"repro/internal/spec"
)

// E10Row is one estimation-fidelity measurement.
type E10Row struct {
	Trials       int
	MeanAbsError float64
	MaxAbsError  float64
	// Agreement is the Rand index between the H1 partitions computed from
	// the true and the estimated graphs.
	Agreement float64
	// CrossTrue / CrossEst are the containment costs (cross influence on
	// the TRUE graph) of the two partitions.
	CrossTrue, CrossEst float64
}

// E10Result carries the estimation sweep.
type E10Result struct {
	Rows []E10Row
	Text string
}

// E10 is the paper's deferred measurement study: how many fault-injection
// trials are needed before the *estimated* influence graph drives the same
// integration decisions as ground truth? (§4.2.1's estimation paths,
// §7's "focus of our continuing work".)
func E10(trialCounts []int, seed uint64) (E10Result, error) {
	if len(trialCounts) == 0 {
		trialCounts = []int{500, 2000, 10000, 50000}
	}
	sys := spec.PaperExample()
	g, err := sys.Graph()
	if err != nil {
		return E10Result{}, err
	}
	exp, err := cluster.Expand(g, sys.Jobs())
	if err != nil {
		return E10Result{}, err
	}
	truth := exp.Graph

	reduce := func(base *graph.Graph) ([][]string, error) {
		c := cluster.NewCondenser(base.Clone(), exp.Jobs)
		if err := c.ReduceByInfluence(sys.HWNodes); err != nil {
			return nil, err
		}
		return c.Partition(), nil
	}
	truthParts, err := reduce(truth)
	if err != nil {
		return E10Result{}, err
	}
	crossTrue := truth.CrossWeight(truthParts)

	var res E10Result
	var b strings.Builder
	b.WriteString("E10: estimating influence by fault injection (paper's continuing work)\n")
	b.WriteString("  trials  mean|err|  max|err|  partition-agreement  cross(true)  cross(est)\n")
	for _, trials := range trialCounts {
		est, err := estimate.Run(estimate.Config{Truth: truth, Trials: trials, Seed: seed})
		if err != nil {
			return res, err
		}
		estParts, err := reduce(est.Graph)
		if err != nil {
			return res, err
		}
		agree, err := estimate.Agreement(truthParts, estParts)
		if err != nil {
			return res, err
		}
		row := E10Row{
			Trials:       trials,
			MeanAbsError: est.MeanAbsError,
			MaxAbsError:  est.MaxAbsError,
			Agreement:    agree,
			CrossTrue:    crossTrue,
			CrossEst:     truth.CrossWeight(estParts),
		}
		res.Rows = append(res.Rows, row)
		fmt.Fprintf(&b, "  %6d  %9.4f  %8.4f  %19.3f  %11.3f  %10.3f\n",
			row.Trials, row.MeanAbsError, row.MaxAbsError, row.Agreement,
			row.CrossTrue, row.CrossEst)
	}
	res.Text = b.String()
	return res, nil
}

// E11Row is one refinement measurement.
type E11Row struct {
	Topology string
	Before   float64 // dilation before refinement
	After    float64
	Moves    int
}

// E11Result carries the dilation-refinement ablation.
type E11Result struct {
	Rows []E11Row
	Text string
}

// E11 ablates the §6 dilation concern: on a complete platform refinement
// has nothing to do; on sparse topologies (ring, mesh) the local-search
// pass reduces communication cost.
func E11() (E11Result, error) {
	sys := spec.PaperExample()
	g, err := sys.Graph()
	if err != nil {
		return E11Result{}, err
	}
	exp, err := cluster.Expand(g, sys.Jobs())
	if err != nil {
		return E11Result{}, err
	}
	full := exp.Graph.Clone()
	c := cluster.NewCondenser(exp.Graph, exp.Jobs)
	if err := c.ReduceByInfluence(sys.HWNodes); err != nil {
		return E11Result{}, err
	}

	var res E11Result
	var b strings.Builder
	b.WriteString("E11: dilation refinement across platform topologies\n")
	b.WriteString("  topology  dilation-before  dilation-after  moves\n")
	platforms := []struct {
		name  string
		build func() (*hw.Platform, error)
	}{
		{"complete6", func() (*hw.Platform, error) { return hw.Complete(6) }},
		{"ring6", func() (*hw.Platform, error) { return hw.Ring(6) }},
		{"mesh2x3", func() (*hw.Platform, error) { return hw.Mesh(2, 3) }},
	}
	for _, pt := range platforms {
		p, err := pt.build()
		if err != nil {
			return res, err
		}
		asg, _, err := mapping.AssignLexicographicDetailed(c.G, p, []attrs.Kind{attrs.Criticality}, nil)
		if err != nil {
			return res, err
		}
		before := clusterDilation(asg, full, p)
		refined, moves, err := mapping.Refine(context.TODO(), asg, full, p, nil, 0)
		if err != nil {
			return res, err
		}
		after := clusterDilation(refined, full, p)
		row := E11Row{Topology: pt.name, Before: before, After: after, Moves: moves}
		res.Rows = append(res.Rows, row)
		fmt.Fprintf(&b, "  %-9s %16.3f  %14.3f  %5d\n", row.Topology, row.Before, row.After, row.Moves)
	}
	res.Text = b.String()
	return res, nil
}

// clusterDilation measures Σ w(u→v)·distance over base edges whose member
// clusters sit on different HW nodes.
func clusterDilation(asg mapping.Assignment, base *graph.Graph, p *hw.Platform) float64 {
	hwOf := map[string]string{}
	for clusterID, node := range asg {
		for _, m := range graph.Members(clusterID) {
			hwOf[m] = node
		}
	}
	total := 0.0
	for _, e := range base.Edges() {
		if e.Replica {
			continue
		}
		na, nb := hwOf[e.From], hwOf[e.To]
		if na == "" || nb == "" || na == nb {
			continue
		}
		d, ok := p.Distance(na, nb)
		if !ok {
			d = float64(p.NumNodes())
		}
		total += e.Weight * d
	}
	return total
}
