package fabric

import (
	"context"
	"encoding/json"
	"math/rand/v2"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultsim"
	"repro/internal/obs"
	"repro/internal/testutil"
)

// scribbleConn overwrites every result chunk the worker sends once Send
// has returned, as the worker's runner does when it fills the chunk with
// a later one, here at once and with garbage that keeps the chunk's
// bounds and shape. A transport that kept a reference to the chunk past
// Send would have the coordinator merge the garbage, or race with it
// under -race.
type scribbleConn struct {
	Conn
	sent *atomic.Int64
}

func (c scribbleConn) Send(f *Frame) error {
	err := c.Conn.Send(f)
	if f.Type == TypeResult && f.Chunk != nil {
		c.sent.Add(1)
		ch := f.Chunk
		ch.TotalAffected, ch.CrossTransmissions = -1, -1
		ch.TrialsWithEscape, ch.CommFaultTrials, ch.CriticalAffected = -1, -1, -1
		ch.InitialFaults, ch.TransientFaults = -1, -1
		for _, s := range [][]float64{ch.CritPerTrial, ch.EscPerTrial} {
			for i := range s {
				s[i] = -1
			}
		}
		for _, s := range [][]int{ch.Affected, ch.EdgeTrials, ch.Transmissions} {
			for i := range s {
				s[i] = -1
			}
		}
	}
	return err
}

func scribbleDialer(d Dialer, sent *atomic.Int64) Dialer {
	return func(ctx context.Context) (Conn, error) {
		c, err := d(ctx)
		if err != nil {
			return nil, err
		}
		return scribbleConn{Conn: c, sent: sent}, nil
	}
}

// TestFabricSendKeepsNoChunk runs a campaign whose workers overwrite each
// result chunk right after sending it (scribbleConn), over the pipe, over
// the pipe with delayed and duplicated frames both ways, and over TCP
// with delayed and duplicated results, whose duplicates the coordinator
// recycles into its decoder. Every merged Result must equal a local run:
// no transport keeps a chunk past Send, and the worker may hand each one
// back to its runner as soon as Send returns.
func TestFabricSendKeepsNoChunk(t *testing.T) {
	testutil.CheckGoroutines(t)
	c := testCampaign(t, 1280)
	want := localReference(t, c)
	chaos := ChaosConfig{Seed: 5, Dup: 0.3, Delay: 0.3, MaxDelay: 5 * time.Millisecond}
	transports := map[string]func(t *testing.T) (Listener, Dialer){
		"pipe": func(*testing.T) (Listener, Dialer) {
			pl := NewPipeListener()
			return pl, pl.Dial()
		},
		"pipe+chaos": func(*testing.T) (Listener, Dialer) {
			pl := NewPipeListener()
			return ChaosListener(pl, chaos), ChaosDialer(pl.Dial(), chaos)
		},
		"tcp+chaos": func(t *testing.T) (Listener, Dialer) {
			ln, err := ListenTCP("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			return ln, ChaosDialer(DialTCP(ln.Addr()), chaos)
		},
	}
	for name, transport := range transports {
		t.Run(name, func(t *testing.T) {
			var sent atomic.Int64
			ln, dial := transport(t)
			h := &fabricHarness{ln: ln, dial: scribbleDialer(dial, &sent), workers: 3,
				cfg: Config{LeaseTTL: 500 * time.Millisecond}}
			got, stats := h.run(t, c)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("result with chunks overwritten after Send differs from Workers=1 (stats %+v)", stats)
			}
			if sent.Load() == 0 {
				t.Error("no worker sent a result")
			}
		})
	}
}

// dirtyChunk builds a chunk of garbage from fuzz input: scalars set,
// slices nil, empty or filled, some with room to spare.
func dirtyChunk(s *fuzzSource) *faultsim.ChunkOutput {
	room := func() int { return int(s.byte() % 8) }
	ch := &faultsim.ChunkOutput{
		Begin: int(s.int()), End: int(s.int()), TotalAffected: int(s.int()),
		TrialsWithEscape: int(s.int()), TransientFaults: int(s.int()),
		CritPerTrial: s.floats(), EscPerTrial: s.floats(),
		Affected: s.ints(), EdgeTrials: s.ints(), Transmissions: s.ints(),
	}
	ch.CritPerTrial = slices.Grow(ch.CritPerTrial, room())
	ch.Affected = slices.Grow(ch.Affected, room())
	ch.Transmissions = slices.Grow(ch.Transmissions, room())
	return ch
}

// FuzzRecycledChunkDecode holds a result decoded into a released chunk to
// the same result decoded into a fresh one: whatever the released chunk
// held, and whatever its slices' lengths and capacities, the decoded
// frame is DeepEqual, nil and empty slices included, and so is the error.
func FuzzRecycledChunkDecode(f *testing.F) {
	dirt := []byte("\x05\x03\x09\x07\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c\x0d\x0e\x0f\x10\x11")
	for _, fr := range codecFrames(f, benchCampaign(640)) {
		if fr.Type != TypeResult {
			continue
		}
		b, err := json.Marshal(fr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b, dirt)
		f.Add(b, []byte{})
	}
	for _, s := range []string{
		`{"type":"result","chunk":{}}`,
		`{"type":"result","chunk":{"crit_per_trial":null,"esc_per_trial":[],"affected":[]}}`,
		`{"type":"result","chunk":{"begin":64,"end":128,"edge_trials":[1,2,3]}}`,
		`{"type":"result","chunk":{"affected":[1,2],"affected":[3]}}`,
		`{"type":"result","chunk":{"crit_per_trial":[0.5,-0,1e-300]}}`,
		`{"type":"result","chunk":null}`,
		`{"type":"result","chunk":{"transmissions":[1,"x"]}}`,
	} {
		f.Add([]byte(s), dirt)
	}
	f.Fuzz(func(t *testing.T, data, dirt []byte) {
		var fresh, recycled Frame
		ferr := decodeFrame(data, &fresh, nil)
		spare := make(chan *faultsim.ChunkOutput, 1)
		spare <- dirtyChunk(&fuzzSource{b: dirt})
		rerr := decodeFrame(data, &recycled, spare)
		if (ferr == nil) != (rerr == nil) || (ferr == nil && !reflect.DeepEqual(recycled, fresh)) {
			t.Fatalf("into a released chunk: %+v (%v); into a fresh one: %+v (%v)", recycled.Chunk, rerr, fresh.Chunk, ferr)
		}
	})
}

// TestDecodeResultIntoReleasedChunk pins what recycling saves on the
// coordinator: a relay-off result frame decoded into a released chunk
// fills that chunk's storage, and the decode allocates only the frame's
// lease list.
func TestDecodeResultIntoReleasedChunk(t *testing.T) {
	c := scenarioCampaign(t, 3200)
	runner, err := faultsim.NewChunkRunner(c)
	if err != nil {
		t.Fatal(err)
	}
	chunk, err := runner.Run(context.Background(), 128, 192)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := appendFrame(nil, &Frame{Type: TypeResult, Epoch: 1, Lease: 7, Begin: 128, End: 192,
		Chunk: chunk, Leases: []uint64{8}})
	if err != nil {
		t.Fatal(err)
	}
	var want Frame
	if err := decodeFrame(payload, &want, nil); err != nil {
		t.Fatal(err)
	}
	released := cloneChunk(chunk)
	crit := &released.CritPerTrial[0]
	spare := make(chan *faultsim.ChunkOutput, 1)
	var got Frame
	allocs := testing.AllocsPerRun(20, func() {
		spare <- released
		got = Frame{}
		if err := decodeFrame(payload, &got, spare); err != nil {
			t.Fatal(err)
		}
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatal("result decoded into a released chunk differs from a fresh decode")
	}
	if got.Chunk != released || &got.Chunk.CritPerTrial[0] != crit {
		t.Error("the decoder did not fill the released chunk's storage")
	}
	if allocs > 1 {
		t.Errorf("decoding a result into a released chunk allocates %.0f times, want only its lease list", allocs)
	}
}

// TestCachedP95MatchesPercentile feeds random latency sequences, with
// ties and ring evictions, to observeLatency: after every sample the
// worker's cached p95 equals obs.Percentile of its ring, and its sorted
// copy holds the ring's samples in order.
func TestCachedP95MatchesPercentile(t *testing.T) {
	rng := rand.New(rand.NewPCG(1998, 2026))
	for seq := 0; seq < 20; seq++ {
		w := &workerConn{helloed: true}
		co := &Coordinator{workers: map[*workerConn]struct{}{w: {}}}
		n := 1 + rng.IntN(3*latRingCap)
		for i := 0; i < n; i++ {
			var ms float64
			switch rng.IntN(3) {
			case 0:
				ms = float64(rng.IntN(4)) // ties
			case 1:
				ms = rng.Float64() * 100
			default:
				ms = rng.ExpFloat64() * 20
			}
			co.observeLatency(w, ms)
			if want := obs.Percentile(w.lat, 95); w.p95 != want {
				t.Fatalf("sequence %d, sample %d: cached p95 %g, obs.Percentile %g", seq, i, w.p95, want)
			}
		}
		sorted := slices.Clone(w.lat)
		slices.Sort(sorted)
		if !slices.Equal(w.latSorted, sorted) {
			t.Fatalf("sequence %d: sorted copy %v, want the ring sorted %v", seq, w.latSorted, sorted)
		}
	}
}
