// Package estimate implements the measurement pipeline the paper defers
// to continuing work: "developing techniques to determine and measure
// actual parameters such as 'influence' across FCMs is crucial for the
// techniques to be applied to real systems" (§7), via the estimation paths
// it sketches in §4.2.1:
//
//   - p_i1 (occurrence) "can be measured from previous usage of that FCM.
//     If the FCM has not been used previously, an equivalent probability
//     can be derived by extensive testing";
//   - p_i2 (transmission) "depends on both communication medium and data
//     volume";
//   - p_i3 (manifestation) "can be determined by injecting faults into the
//     target FCM".
//
// The pipeline: run a seeded fault-injection campaign against the true
// system, record per-edge transmission counts, rebuild an *estimated*
// influence graph from those counts, and integrate using the estimate.
// Comparing the resulting mapping against the one computed from ground
// truth quantifies how much estimation error the framework tolerates —
// experiment E10.
package estimate

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/faultsim"
	"repro/internal/graph"
)

// Errors returned by the estimator.
var (
	ErrNoData     = errors.New("estimate: campaign produced no edge observations")
	ErrBadCeiling = errors.New("estimate: minimum trials per edge must be positive")
)

// EdgeEstimate is one measured influence value.
type EdgeEstimate struct {
	From, To string
	// True is the ground-truth edge weight (0 if the edge was absent).
	True float64
	// Estimated is the measured transmission frequency.
	Estimated float64
	// Observations is the number of trials in which the source was faulty
	// (the estimate's denominator).
	Observations int
}

// AbsError returns |Estimated − True|.
func (e EdgeEstimate) AbsError() float64 { return math.Abs(e.Estimated - e.True) }

// Result is a complete estimation run.
type Result struct {
	// Graph is the estimated influence graph: same nodes and attributes
	// as the truth, edge weights replaced by measured frequencies. Edges
	// with fewer than MinObservations observations keep no edge (the
	// estimator cannot distinguish them from zero).
	Graph *graph.Graph
	// Edges lists every (from,to) pair with either a true edge or a
	// non-zero estimate, sorted by (From,To).
	Edges []EdgeEstimate
	// MeanAbsError averages |Estimated − True| over true edges.
	MeanAbsError float64
	// MaxAbsError is the worst per-edge error over true edges.
	MaxAbsError float64
	// Trials echoes the campaign size.
	Trials int
}

// Config parameterises an estimation run.
type Config struct {
	// Truth is the ground-truth influence graph faults propagate over.
	Truth *graph.Graph
	// Trials is the number of injection trials.
	Trials int
	// Seed drives the campaign.
	Seed uint64
	// MinObservations is the minimum number of faulty-source observations
	// before an edge estimate is trusted (default 10).
	MinObservations int
}

// Run executes the campaign and builds the estimated graph.
func Run(cfg Config) (*Result, error) {
	if cfg.MinObservations == 0 {
		cfg.MinObservations = 10
	}
	if cfg.MinObservations < 0 {
		return nil, ErrBadCeiling
	}
	campaign, err := faultsim.Run(faultsim.Campaign{
		Graph:  cfg.Truth,
		Trials: cfg.Trials,
		Seed:   cfg.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("estimate: %w", err)
	}
	if len(campaign.EdgeTrials) == 0 {
		return nil, ErrNoData
	}

	est := graph.New()
	for _, id := range cfg.Truth.Nodes() {
		if err := est.AddNode(id, cfg.Truth.Attrs(id).Clone()); err != nil {
			return nil, fmt.Errorf("estimate: %w", err)
		}
	}
	res := &Result{Graph: est, Trials: cfg.Trials}

	trueEdges := 0
	var sumErr float64
	for _, e := range cfg.Truth.Edges() {
		if e.Replica {
			// Replica structure is design knowledge, not a measurement.
			if _, ok := est.EdgeBetween(e.From, e.To); !ok {
				if err := est.AddReplicaEdge(e.From, e.To); err != nil {
					return nil, fmt.Errorf("estimate: %w", err)
				}
			}
			continue
		}
		p, obs := campaign.EstimatedInfluence(e.From, e.To)
		measured := 0.0
		if obs >= cfg.MinObservations {
			measured = p
		}
		ee := EdgeEstimate{
			From: e.From, To: e.To,
			True: e.Weight, Estimated: measured, Observations: obs,
		}
		res.Edges = append(res.Edges, ee)
		trueEdges++
		sumErr += ee.AbsError()
		if ee.AbsError() > res.MaxAbsError {
			res.MaxAbsError = ee.AbsError()
		}
		if measured > 0 {
			if err := est.SetEdge(e.From, e.To, clamp01(measured), e.Factors...); err != nil {
				return nil, fmt.Errorf("estimate: %w", err)
			}
		}
	}
	if trueEdges > 0 {
		res.MeanAbsError = sumErr / float64(trueEdges)
	}
	return res, nil
}

func clamp01(v float64) float64 {
	switch {
	case v < 0:
		return 0
	case v > 1:
		return 1
	}
	return v
}

// Agreement compares two partitions of the same base nodes (e.g. the
// clustering computed from ground truth vs. from an estimated graph) and
// returns the Rand index: the fraction of node pairs on which the two
// partitions agree (both together or both apart). 1 means identical
// groupings.
func Agreement(a, b [][]string) (float64, error) {
	groupA := groupOf(a)
	groupB := groupOf(b)
	if len(groupA) != len(groupB) {
		return 0, fmt.Errorf("estimate: partitions cover %d vs %d nodes", len(groupA), len(groupB))
	}
	var nodes []string
	for n := range groupA {
		if _, ok := groupB[n]; !ok {
			return 0, fmt.Errorf("estimate: node %q only in one partition", n)
		}
		nodes = append(nodes, n)
	}
	if len(nodes) < 2 {
		return 1, nil
	}
	agree, total := 0, 0
	for i := range nodes {
		for j := i + 1; j < len(nodes); j++ {
			total++
			sameA := groupA[nodes[i]] == groupA[nodes[j]]
			sameB := groupB[nodes[i]] == groupB[nodes[j]]
			if sameA == sameB {
				agree++
			}
		}
	}
	return float64(agree) / float64(total), nil
}

func groupOf(parts [][]string) map[string]int {
	out := map[string]int{}
	for gi, grp := range parts {
		for _, n := range grp {
			out[n] = gi
		}
	}
	return out
}
