package cluster_test

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/spec"
)

// TestH1VerdictMemoMatchesFreshCheck runs H1 in lockstep with the full
// scan that asks the oracle on every check (cluster.H1Lockstep): after
// every merge each verdict H1 remembers must equal a fresh check of that
// pair's job union, both must pick the same pairs and the counters must
// agree. The inputs are the corpus, the built-in systems, scengen systems
// of every family at 12, 36 and 60 processes and experiments.Synthesize
// systems at 24, 48 and 96 processes, where timing rejections are common.
func TestH1VerdictMemoMatchesFreshCheck(t *testing.T) {
	systems := cluster.H1Systems(t)
	for _, n := range []int{24, 48, 96} {
		sys, err := experiments.Synthesize(experiments.SynthConfig{
			Processes: n, EdgesPerNode: 2.5, ReplicatedFraction: 0.25,
			Seed: uint64(n), HWNodes: n / 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		systems[fmt.Sprintf("synthesize/n%d", n)] = sys
	}
	var merges, verdicts, timing int
	for name, sys := range systems {
		t.Run(name, func(t *testing.T) {
			m, v, tm := cluster.H1Lockstep(t, condenser(t, sys), condenser(t, sys), sys.HWNodes)
			merges, verdicts, timing = merges+m, verdicts+v, timing+tm
		})
	}
	t.Logf("%d merges, %d remembered verdicts checked afresh, %d of them timing rejections",
		merges, verdicts, timing)
	if merges == 0 || timing == 0 {
		t.Errorf("%d merges and %d remembered timing rejections, want both above 0", merges, timing)
	}
}

// condenser expands sys into a fresh condenser.
func condenser(t *testing.T, sys *spec.System) *cluster.Condenser {
	t.Helper()
	g, err := sys.Graph()
	if err != nil {
		t.Fatal(err)
	}
	exp, err := cluster.Expand(g, sys.Jobs())
	if err != nil {
		t.Fatal(err)
	}
	return exp.Condenser()
}
