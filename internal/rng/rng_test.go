package rng

import (
	"math/rand/v2"
	"testing"
)

// TestMixKnownAnswers pins Mix to the published SplitMix64 stream: the
// generator's outputs for state 0 are Mix(0), Mix(g), Mix(2g), … with g
// its golden-ratio increment.
func TestMixKnownAnswers(t *testing.T) {
	const g = 0x9e3779b97f4a7c15
	want := []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f}
	for i, w := range want {
		if got := Mix(uint64(i) * g); got != w {
			t.Errorf("Mix(%d*g) = %#016x, want %#016x", i, got, w)
		}
	}
}

// TestSubstreamDistinct guards the seeding scheme itself: neighboring
// trials and neighboring seeds must land on distinct substreams.
func TestSubstreamDistinct(t *testing.T) {
	type pair struct{ s1, s2 uint64 }
	seen := map[pair]string{}
	for trial := 0; trial < 1000; trial++ {
		for _, seed := range []uint64{1, 2} {
			s1, s2 := Seeds(Mix(seed) + uint64(trial))
			p := pair{s1, s2}
			if prev, dup := seen[p]; dup {
				t.Fatalf("substream collision: seed %d trial %d repeats %s", seed, trial, prev)
			}
			seen[p] = "seed/trial combination"
		}
	}
}

// TestReseedAllocatesNothing: repositioning a PCG on a substream is on the
// per-trial hot path of fault campaigns and must not allocate.
func TestReseedAllocatesNothing(t *testing.T) {
	pcg := rand.NewPCG(0, 0)
	base := uint64(0)
	if allocs := testing.AllocsPerRun(100, func() {
		base++
		pcg.Seed(Seeds(base))
	}); allocs != 0 {
		t.Errorf("reseed allocates %v per call, want 0", allocs)
	}
}

// TestNewMatchesSeeds: New is exactly a PCG seeded with Seeds.
func TestNewMatchesSeeds(t *testing.T) {
	a := New(42)
	b := rand.New(rand.NewPCG(Seeds(42)))
	for i := 0; i < 8; i++ {
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("draw %d: New = %d, PCG(Seeds) = %d", i, x, y)
		}
	}
}
