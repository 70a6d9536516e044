package faultsim

import (
	"context"
	"fmt"
	"runtime"
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
// with no output handed back allocates a fixed number of objects per
// chunk (the chunk and its slices) whatever the graph's size.
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

// TestParallelRunBytesNearSerial pins chunk recycling in the worker pool:
// merged chunks go back to the runner the workers share, so a campaign at
// Workers=2 or 4 allocates at most twice the bytes of the same campaign at
// Workers=1 instead of one fresh chunk per 64 trials.
func TestParallelRunBytesNearSerial(t *testing.T) {
	g := graph.New()
	hw := map[string]string{}
	const nodes = 48
	for i := 0; i < nodes; i++ {
		id := fmt.Sprintf("n%02d", i)
		if err := g.AddNode(id, attrs.New(map[attrs.Kind]float64{attrs.Criticality: float64(i % 16)})); err != nil {
			t.Fatal(err)
		}
		hw[id] = fmt.Sprintf("h%d", i%16)
	}
	for i := 0; i < nodes; i++ {
		for d := 1; d <= 3; d++ {
			if err := g.SetEdge(fmt.Sprintf("n%02d", i), fmt.Sprintf("n%02d", (i+d*7)%nodes), 0.1*float64(d)); err != nil {
				t.Fatal(err)
			}
		}
	}
	bytes := func(workers int) float64 {
		c := Campaign{Graph: g, HWOf: hw, Trials: 400 * ChunkSize, Seed: 7, Workers: workers,
			CommFaultFraction: 0.3, CriticalThreshold: 10}
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := Run(c); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	serial := bytes(1)
	for _, workers := range []int{2, 4} {
		parallel := bytes(workers)
		t.Logf("bytes per campaign: %.0f at Workers=1, %.0f at Workers=%d", serial, parallel, workers)
		if parallel > 2*serial {
			t.Errorf("Workers=%d allocates %.0f bytes per campaign, more than twice the %.0f of Workers=1", workers, parallel, serial)
		}
	}
}

// TestSpecRunnerAllocsFlatInEdges pins the spec path of a flagless
// worker: building a ChunkRunner from a shipped spec makes a small fixed
// number of allocations — the environment's arrays, the name index and
// the host classes — and none per edge or edge name; its fingerprint
// allocates only the string it returns. The graphs have 36 nodes on 6
// hosts, as many as the processes of the fabric benchmark's scenarios,
// with 2 or 12 weighted out-edges per node and a replica pair per host.
func TestSpecRunnerAllocsFlatInEdges(t *testing.T) {
	allocs := func(degree int) float64 {
		g := graph.New()
		hw := map[string]string{}
		const nodes = 36
		name := func(i int) string { return fmt.Sprintf("p%02d", i%nodes) }
		for i := 0; i < nodes; i++ {
			if err := g.AddNode(name(i), attrs.New(map[attrs.Kind]float64{attrs.Criticality: float64(i % 16)})); err != nil {
				t.Fatal(err)
			}
			hw[name(i)] = fmt.Sprintf("h%d", i%6)
		}
		for i := 0; i < nodes; i++ {
			for d := 1; d <= degree; d++ {
				if err := g.SetEdge(name(i), name(i+d), 0.05*float64(d)); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := 0; i < 6; i++ {
			if err := g.AddReplicaEdge(name(i), name(i+nodes-6)); err != nil {
				t.Fatal(err)
			}
		}
		c := Campaign{Graph: g, HWOf: hw, Trials: 3200, Seed: 1998, CommFaultFraction: 0.3,
			CriticalThreshold: 10, Model: Correlated()}
		spec := flatten(&c)
		r, err := spec.Runner()
		if err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(20, func() { _ = r.Fingerprint() }); n > 1 {
			t.Errorf("Fingerprint allocates %.0f times at %d edges, want only its result", n, nodes*degree)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := spec.Runner(); err != nil {
				t.Fatal(err)
			}
		})
	}
	const limit = 16
	sparse, dense := allocs(2), allocs(12)
	t.Logf("spec runner allocations: %.0f at 72 edges, %.0f at 432", sparse, dense)
	if dense != sparse || dense > limit {
		t.Errorf("spec runner allocates %.0f at 72 edges and %.0f at 432, want the same, at most %d", sparse, dense, limit)
	}
}

// TestChunkRunnerSteadyStateAllocFree pins the reuse of trial workers and
// outputs: once a runner has run each chunk and had its output handed
// back, Run plus Release allocates nothing, under every fault model.
func TestChunkRunnerSteadyStateAllocFree(t *testing.T) {
	g, hw := web(t)
	for _, model := range []FaultModel{SingleFault(), Correlated(), Burst(3), Transient(0.5)} {
		c := Campaign{Graph: g, HWOf: hw, Trials: 10*ChunkSize + 5, Seed: 5,
			CommFaultFraction: 0.3, CriticalThreshold: 10, Model: model}
		r, err := NewChunkRunner(c)
		if err != nil {
			t.Fatal(err)
		}
		k := 0
		chunk := func() {
			b, e := ChunkBounds(k%NumChunks(c.Trials), c.Trials)
			k++
			out, err := r.Run(context.Background(), b, e)
			if err != nil {
				t.Fatal(err)
			}
			r.Release(out)
		}
		for i := 0; i < NumChunks(c.Trials); i++ {
			chunk() // warm: every chunk's largest trial has sized the scratch
		}
		if n := testing.AllocsPerRun(50, chunk); n != 0 {
			t.Errorf("%s: a warmed runner allocates %.1f per chunk, want 0", model.Name(), n)
		}
	}
}
