package faultsim

import (
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/stage"
)

// runDistributed replays a campaign through the distributed surface: a
// ChunkRunner computes every grid chunk (optionally after a JSON
// round-trip, as the wire would) and a Merger absorbs them in order.
func runDistributed(t *testing.T, c Campaign, viaJSON bool) Result {
	t.Helper()
	runner, err := NewChunkRunner(c)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMerger(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	for !m.Done() {
		seq := ChunkIndex(m.Frontier())
		begin, end := ChunkBounds(seq, c.Trials)
		out, err := runner.Run(context.Background(), begin, end)
		if err != nil {
			t.Fatal(err)
		}
		if viaJSON {
			raw, err := json.Marshal(out)
			if err != nil {
				t.Fatal(err)
			}
			out = &ChunkOutput{}
			if err := json.Unmarshal(raw, out); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := m.Absorb(out); err != nil {
			t.Fatal(err)
		}
	}
	return m.Finish()
}

func TestDistributedSurfaceMatchesRun(t *testing.T) {
	g, hw := web(t)
	c := Campaign{
		Graph: g, HWOf: hw, Trials: 1000, Seed: 42,
		CriticalThreshold: 10, CommFaultFraction: 0.3,
	}
	ref := c
	ref.Workers = 1
	want, err := Run(ref)
	if err != nil {
		t.Fatal(err)
	}
	// Both the in-memory path and the JSON round-trip must be
	// bit-identical to Run: encoding/json renders float64 in shortest
	// exact form, so per-trial slices survive the wire unchanged.
	if got := runDistributed(t, c, false); !reflect.DeepEqual(got, want) {
		t.Error("in-memory distributed result differs from Run")
	}
	if got := runDistributed(t, c, true); !reflect.DeepEqual(got, want) {
		t.Error("JSON round-tripped distributed result differs from Run")
	}
}

func TestDistributedEarlyStopMatchesRun(t *testing.T) {
	g, hw := web(t)
	c := Campaign{
		Graph: g, HWOf: hw, Trials: 8000, Seed: 42,
		CriticalThreshold: 10, CommFaultFraction: 0.3,
		StopHalfWidth: 0.05,
	}
	ref := c
	ref.Workers = 1
	want, err := Run(ref)
	if err != nil {
		t.Fatal(err)
	}
	if !want.EarlyStopped {
		t.Fatal("reference run did not early-stop; widen the test")
	}
	got := runDistributed(t, c, true)
	if !reflect.DeepEqual(got, want) {
		t.Error("early-stopped distributed result differs from Run")
	}
	if got.Trials >= c.Trials {
		t.Errorf("early stop merged all %d trials", got.Trials)
	}
}

func TestDistributedResumeFromCheckpoint(t *testing.T) {
	g, hw := web(t)
	path := filepath.Join(t.TempDir(), "dist.ckpt")
	c := Campaign{
		Graph: g, HWOf: hw, Trials: 1000, Seed: 42,
		CriticalThreshold: 10, CommFaultFraction: 0.3,
		CheckpointPath: path, CheckpointEvery: 100,
	}
	ref := c
	ref.CheckpointPath = ""
	ref.Workers = 1
	want, err := Run(ref)
	if err != nil {
		t.Fatal(err)
	}

	// Merge half the chunks, abort (persisting the frontier), then build
	// a fresh Merger with Resume: it must pick up where the first left
	// off and finish bit-identically.
	runner, err := NewChunkRunner(c)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := NewMerger(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	half := NumChunks(c.Trials) / 2
	for i := 0; i < half; i++ {
		begin, end := ChunkBounds(i, c.Trials)
		out, err := runner.Run(context.Background(), begin, end)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m1.Absorb(out); err != nil {
			t.Fatal(err)
		}
	}
	if err := m1.Abort(context.Canceled); !errors.Is(err, context.Canceled) {
		t.Fatalf("Abort err = %v, want context.Canceled", err)
	}

	rc := c
	rc.Resume = true
	m2, err := NewMerger(rc, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Frontier() == 0 {
		t.Fatal("resumed merger did not restore the frontier")
	}
	for !m2.Done() {
		begin, end := ChunkBounds(ChunkIndex(m2.Frontier()), c.Trials)
		out, err := runner.Run(context.Background(), begin, end)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m2.Absorb(out); err != nil {
			t.Fatal(err)
		}
	}
	if got := m2.Finish(); !reflect.DeepEqual(got, want) {
		t.Error("resumed distributed result differs from uninterrupted Run")
	}
}

func TestChunkRunnerRejectsOffGridBounds(t *testing.T) {
	g, hw := web(t)
	c := Campaign{Graph: g, HWOf: hw, Trials: 1000, Seed: 42}
	runner, err := NewChunkRunner(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range [][2]int{
		{1, 65},      // misaligned begin
		{0, 63},      // short end
		{0, 100},     // long end
		{960, 1001},  // end past trials
		{1024, 1088}, // begin past trials
		{-64, 0},     // negative
	} {
		if _, err := runner.Run(context.Background(), tc[0], tc[1]); err == nil {
			t.Errorf("chunk [%d,%d) accepted, want grid error", tc[0], tc[1])
		}
	}
	if _, err := runner.Run(context.Background(), 960, 1000); err != nil {
		t.Errorf("final partial chunk rejected: %v", err)
	}
	// The tail of a grid chunk, from a resumed frontier inside it.
	if _, err := runner.Run(context.Background(), 600, 640); err != nil {
		t.Errorf("chunk tail from a frontier inside it rejected: %v", err)
	}
}

// TestChunkRunnerKeepsNoMoreThanItMade pins the bound on released
// outputs: a runner keeps at most as many as it has allocated, however
// many foreign outputs are handed to it.
func TestChunkRunnerKeepsNoMoreThanItMade(t *testing.T) {
	g, hw := web(t)
	runner, err := NewChunkRunner(Campaign{Graph: g, HWOf: hw, Trials: 1000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	out, err := runner.Run(context.Background(), 0, ChunkSize)
	if err != nil {
		t.Fatal(err)
	}
	runner.Release(out)
	for i := 0; i < 10; i++ {
		runner.Release(new(ChunkOutput))
	}
	if n := len(runner.spare); n > 1 {
		t.Errorf("a runner that made 1 output keeps %d released ones", n)
	}
}

// TestMergerHoldsEarlyChunks pins the ordered merge: a chunk ahead of the
// frontier is held without moving it, filling the gap merges every
// contiguous held chunk, and a chunk already merged or held is rejected.
func TestMergerHoldsEarlyChunks(t *testing.T) {
	g, hw := web(t)
	c := Campaign{Graph: g, HWOf: hw, Trials: 1000, Seed: 42}
	ref := c
	ref.Workers = 1
	want, err := Run(ref)
	if err != nil {
		t.Fatal(err)
	}
	runner, err := NewChunkRunner(c)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMerger(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	chunk := func(seq int) *ChunkOutput {
		begin, end := ChunkBounds(seq, c.Trials)
		out, err := runner.Run(context.Background(), begin, end)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	absorb := func(seq int, wantFrontier int) {
		t.Helper()
		if stop, err := m.Absorb(chunk(seq)); err != nil || stop {
			t.Fatalf("absorb chunk %d: stop=%v err=%v", seq, stop, err)
		}
		if m.Frontier() != wantFrontier {
			t.Fatalf("after chunk %d frontier = %d, want %d", seq, m.Frontier(), wantFrontier)
		}
	}
	reject := func(co *ChunkOutput, why string) {
		t.Helper()
		before := m.Frontier()
		if _, err := m.Absorb(co); err == nil {
			t.Fatalf("absorbed %s chunk [%d,%d)", why, co.Begin, co.End)
		}
		if m.Frontier() != before {
			t.Fatalf("rejected %s chunk moved the frontier to %d", why, m.Frontier())
		}
	}

	absorb(1, 0) // held: the gap at chunk 0 keeps the frontier
	if !m.Has(1) || m.Has(0) || m.Has(2) {
		t.Fatalf("Has after holding chunk 1: 0=%v 1=%v 2=%v", m.Has(0), m.Has(1), m.Has(2))
	}
	reject(chunk(1), "held")
	absorb(3, 0)
	absorb(0, 128) // fills the gap: 0 and the held 1 merge
	if !m.Has(0) || !m.Has(1) || m.Has(2) || !m.Has(3) {
		t.Fatalf("Has after the gap filled: 0=%v 1=%v 2=%v 3=%v", m.Has(0), m.Has(1), m.Has(2), m.Has(3))
	}
	reject(chunk(0), "merged")
	reject(&ChunkOutput{Begin: 130, End: 192}, "off-grid")
	short := *chunk(2)
	short.EdgeTrials = short.EdgeTrials[:len(short.EdgeTrials)-1]
	reject(&short, "misshapen")
	var se *stage.Error
	if err := m.CheckShape(&short); !errors.As(err, &se) || se.Stage != "inject" {
		t.Errorf("CheckShape(misshapen) = %v, want an inject-stage error", err)
	}
	if err := m.CheckShape(chunk(2)); err != nil {
		t.Errorf("CheckShape(well-formed) = %v", err)
	}
	absorb(2, 256) // 2 and the held 3
	for !m.Done() {
		absorb(ChunkIndex(m.Frontier()), min(m.Frontier()+ChunkSize, c.Trials))
	}
	reject(chunk(NumChunks(c.Trials)-1), "post-completion")
	if got := m.Finish(); !reflect.DeepEqual(got, want) {
		t.Error("out-of-order merge differs from Run")
	}
}

func TestFingerprintSeparatesCampaigns(t *testing.T) {
	g, hw := web(t)
	a := Campaign{Graph: g, HWOf: hw, Trials: 1000, Seed: 42}
	b := a
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("identical campaigns fingerprint differently")
	}
	b.Seed = 43
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("different seeds share a fingerprint")
	}
	c := a
	c.CommFaultFraction = 0.5
	if a.Fingerprint() == c.Fingerprint() {
		t.Error("different comm-fault fractions share a fingerprint")
	}
}

func TestChunkRunnerHonoursContext(t *testing.T) {
	g, hw := web(t)
	c := Campaign{Graph: g, HWOf: hw, Trials: 1000, Seed: 42}
	runner, err := NewChunkRunner(c)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := runner.Run(ctx, 0, 64); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled chunk err = %v, want context.Canceled", err)
	}
}

// scribble overwrites every field of ch and reshapes its slices, as a
// caller reusing a chunk's storage for something else would.
func scribble(ch *ChunkOutput, k int) {
	*ch = ChunkOutput{
		Begin: -k, End: -k, TotalAffected: -1, CrossTransmissions: -1, TrialsWithEscape: -1,
		CommFaultTrials: -1, CriticalAffected: -1, InitialFaults: -1, TransientFaults: -1,
		CritPerTrial:  append(ch.CritPerTrial[:0], -1, -2, -3),
		EscPerTrial:   ch.EscPerTrial[:0],
		Affected:      append(ch.Affected, 99),
		EdgeTrials:    nil,
		Transmissions: ch.Transmissions[:min(k, len(ch.Transmissions))],
	}
	for i := range ch.Affected {
		ch.Affected[i] = 99
	}
}

// TestChunkRunnerReleasedOutputsMatchFresh runs every chunk of a campaign
// under each fault model from four goroutines sharing one runner. Each
// goroutine compares its output with a fresh runner's, then scribbles
// over it and hands it back, and also hands back foreign chunks whose
// slices are nil, too short or too long. Outputs filled from released
// storage must equal fresh ones; under -race the test also probes the
// runner's idle lists.
func TestChunkRunnerReleasedOutputsMatchFresh(t *testing.T) {
	g, hw := web(t)
	for _, model := range []FaultModel{SingleFault(), Correlated(), Burst(3), Transient(0.5)} {
		c := Campaign{Graph: g, HWOf: hw, Trials: 24*ChunkSize + 17, Seed: 11,
			CriticalThreshold: 10, CommFaultFraction: 0.3, Model: model}
		want := make([]*ChunkOutput, NumChunks(c.Trials))
		for k := range want {
			fresh, err := NewChunkRunner(c)
			if err != nil {
				t.Fatal(err)
			}
			b, e := ChunkBounds(k, c.Trials)
			if want[k], err = fresh.Run(context.Background(), b, e); err != nil {
				t.Fatal(err)
			}
		}
		runner, err := NewChunkRunner(c)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for gr := 0; gr < 4; gr++ {
			wg.Add(1)
			go func(gr int) {
				defer wg.Done()
				for round := 0; round < 3; round++ {
					for k := gr; k < len(want); k += 4 {
						b, e := ChunkBounds(k, c.Trials)
						out, err := runner.Run(context.Background(), b, e)
						if err != nil {
							t.Error(err)
							return
						}
						if !reflect.DeepEqual(out, want[k]) {
							t.Errorf("%s: chunk %d from released storage differs from a fresh runner's", model.Name(), k)
						}
						scribble(out, k)
						runner.Release(out)
						runner.Release(&ChunkOutput{Affected: make([]int, 1, 200), CritPerTrial: make([]float64, 3)})
					}
				}
			}(gr)
		}
		wg.Wait()
	}
}

// TestMergerReleasesEachChunkOnce absorbs a campaign's chunks in a
// scrambled order with a release hook that scribbles over each chunk it
// is handed: the merged Result must still equal Run's, so the merger
// keeps nothing of a released chunk, and every absorbed chunk comes back
// exactly once, merged or dropped by the early stop.
func TestMergerReleasesEachChunkOnce(t *testing.T) {
	g, hw := web(t)
	for _, stopHalfWidth := range []float64{0, 0.05} {
		c := Campaign{Graph: g, HWOf: hw, Trials: 8000, Seed: 42,
			CriticalThreshold: 10, CommFaultFraction: 0.3, StopHalfWidth: stopHalfWidth}
		ref := c
		ref.Workers = 1
		want, err := Run(ref)
		if err != nil {
			t.Fatal(err)
		}
		runner, err := NewChunkRunner(c)
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewMerger(c, 1)
		if err != nil {
			t.Fatal(err)
		}
		released := map[*ChunkOutput]int{}
		m.OnRelease(func(ch *ChunkOutput) {
			released[ch]++
			scribble(ch, 3)
		})
		absorbed := 0
		// Chunks arrive in pairs swapped: 1, 0, 3, 2, …
		for k := 0; !m.Done(); k++ {
			seq := k ^ 1
			if seq >= NumChunks(c.Trials) {
				seq = k
			}
			b, e := ChunkBounds(seq, c.Trials)
			out, err := runner.Run(context.Background(), b, e)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.Absorb(out); err != nil {
				t.Fatal(err)
			}
			absorbed++
		}
		if got := m.Finish(); !reflect.DeepEqual(got, want) {
			t.Errorf("StopHalfWidth %g: merge with scribbling release differs from Run", stopHalfWidth)
		}
		if len(released) != absorbed {
			t.Errorf("StopHalfWidth %g: %d chunks absorbed, %d released", stopHalfWidth, absorbed, len(released))
		}
		for _, n := range released {
			if n != 1 {
				t.Fatalf("StopHalfWidth %g: a chunk was released %d times", stopHalfWidth, n)
			}
		}
	}
}
