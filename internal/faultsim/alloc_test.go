package faultsim

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/attrs"
	"repro/internal/graph"
)

// TestSerialRunAllocsFlatInTrials pins the allocation-free trial loop: a
// serial Run allocates its set-up and its Result, never per trial or per
// chunk, so 100 chunks may cost only a small constant more than 10 (the
// scratch of a model whose largest trial comes late).
func TestSerialRunAllocsFlatInTrials(t *testing.T) {
	g, hw := web(t)
	for _, model := range []FaultModel{SingleFault(), Correlated(), Burst(3), Transient(0.5)} {
		allocs := func(chunks int) float64 {
			c := Campaign{Graph: g, HWOf: hw, Trials: chunks * ChunkSize, Seed: 5, Workers: 1,
				CommFaultFraction: 0.3, CriticalThreshold: 10, Model: model}
			return testing.AllocsPerRun(5, func() {
				if _, err := Run(c); err != nil {
					t.Fatal(err)
				}
			})
		}
		if few, many := allocs(10), allocs(100); many > few+4 {
			t.Errorf("%s: serial Run allocates %.0f at 100 chunks, %.0f at 10: the trial loop allocates",
				model.Name(), many, few)
		}
	}
}

// TestChunkRunnerAllocsFlatInEdges pins the dense chunk: ChunkRunner.Run
// allocates a fixed number of objects per chunk (the chunk, its slices
// and the worker scratch) whatever the graph's size.
func TestChunkRunnerAllocsFlatInEdges(t *testing.T) {
	allocs := func(nodes int) float64 {
		g := graph.New()
		for i := 0; i < nodes; i++ {
			if err := g.AddNode(fmt.Sprintf("n%02d", i), attrs.New(map[attrs.Kind]float64{attrs.Criticality: 3})); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < nodes; i++ {
			for d := 1; d <= 4; d++ {
				from, to := fmt.Sprintf("n%02d", i), fmt.Sprintf("n%02d", (i+d)%nodes)
				if err := g.SetEdge(from, to, 0.3); err != nil {
					t.Fatal(err)
				}
			}
		}
		r, err := NewChunkRunner(Campaign{Graph: g, Trials: 10 * ChunkSize, Seed: 3, CommFaultFraction: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := r.Run(context.Background(), ChunkSize, 2*ChunkSize); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(5), allocs(80); large > small {
		t.Errorf("ChunkRunner.Run allocates %.0f per chunk on 320 edges, %.0f on 20", large, small)
	}
}
