package fabric

import (
	"context"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	depint "repro"
	"repro/internal/faultsim"
	"repro/internal/obs"
	"repro/internal/scengen"
)

// scenarioCampaign builds a campaign over a generated, integrated
// 36-process scenario, the size the fabric benchmark workload runs.
func scenarioCampaign(tb testing.TB, trials int) faultsim.Campaign {
	tb.Helper()
	sc, err := scengen.Generate(scengen.Config{Family: scengen.Layered, Processes: 36, Seed: 1998})
	if err != nil {
		tb.Fatal(err)
	}
	res, err := depint.Integrate(sc.System)
	if err != nil {
		tb.Fatal(err)
	}
	return faultsim.Campaign{
		Graph:             res.Expanded,
		HWOf:              res.HWOf(),
		Trials:            trials,
		Seed:              1998,
		CriticalThreshold: 10,
		CommFaultFraction: 0.3,
		Model:             faultsim.Correlated(),
		Label:             sc.System.Name,
	}
}

// codecFrames returns one frame of every type the protocol sends, with
// the result and heartbeat frames in both relay-off and relay-on form,
// over a real chunk and the campaign spec of c (at least 256 trials).
func codecFrames(tb testing.TB, c faultsim.Campaign) []*Frame {
	tb.Helper()
	runner, err := faultsim.NewChunkRunner(c)
	if err != nil {
		tb.Fatal(err)
	}
	spec := runner.Spec()
	chunk, err := runner.Run(context.Background(), 128, 192)
	if err != nil {
		tb.Fatal(err)
	}
	events := []obs.BusEvent{{Kind: "fabric_worker", Name: "w1", Attrs: map[string]any{
		"state": "connected", "chunks_done": 3, "attempt": 1.5,
	}}}
	meter := map[string]float64{"chunks_done": 3, "events_dropped": 0}
	return []*Frame{
		{Type: TypeHello, Proto: Proto, Fingerprint: c.Fingerprint(), Worker: "w1", Nonce: "00ff"},
		{Type: TypeChallenge, Nonce: "abcd", MAC: "0123"},
		{Type: TypeAuth, MAC: "4567", Fingerprint: c.Fingerprint()},
		{Type: TypeWelcome, Trials: c.Trials, Worker: "w1"},
		{Type: TypeReject, Reason: "campaign fingerprint a, want b"},
		{Type: TypeCampaign, Epoch: 1, Fingerprint: c.Fingerprint(), Trials: c.Trials, Spec: spec},
		{Type: TypeCampaign, Epoch: 2, Fingerprint: c.Fingerprint(), Trials: c.Trials, Spec: spec,
			Trace: "9f3c", TS: 1700000000000001},
		{Type: TypeLease, Epoch: 1, Lease: 7, Begin: 128, End: 192},
		{Type: TypeLease, Epoch: 1, Lease: 8, Begin: 192, End: 256, TS: 1700000000000002},
		{Type: TypeResult, Epoch: 1, Lease: 7, Begin: 128, End: 192, Chunk: chunk, Leases: []uint64{7, 8}},
		{Type: TypeResult, Epoch: 1, Lease: 7, Begin: 128, End: 192, Chunk: chunk, Leases: []uint64{8},
			EchoTS: 1700000000000002, HoldUS: 41, WTS: 1700000000000950,
			RecvUS: 1700000000000100, StartUS: 1700000000000120, EndUS: 1700000000000900, Events: events},
		{Type: TypeHeartbeat, Leases: []uint64{8, 9}},
		{Type: TypeHeartbeat, EchoTS: -3, HoldUS: 12, WTS: 1700000000001000, Events: events, Meter: meter},
		{Type: TypeNeedCampaign},
		{Type: TypeDrain},
		{Type: TypeDone},
	}
}

// TestFrameCodecMatchesJSON pins both codec directions on every frame
// type: the encoder writes json.Marshal's bytes, and the decoder reads
// them back into what json.Unmarshal reads — through the canonical-form
// parser for every frame without the relay's events and meter.
func TestFrameCodecMatchesJSON(t *testing.T) {
	frames := append(codecFrames(t, testCampaign(t, 640)), codecFrames(t, scenarioCampaign(t, 640))...)
	for _, f := range frames {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := appendFrame(nil, f)
		if err != nil {
			t.Fatalf("%s: %v", f.Type, err)
		}
		if string(got) != string(want) {
			t.Fatalf("%s frame:\n got %s\nwant %s", f.Type, got, want)
		}
		var viaJSON, decoded Frame
		if err := json.Unmarshal(want, &viaJSON); err != nil {
			t.Fatal(err)
		}
		if err := decodeFrame(want, &decoded, nil); err != nil || !reflect.DeepEqual(decoded, viaJSON) {
			t.Fatalf("%s frame: decoded %+v (%v), json.Unmarshal %+v", f.Type, decoded, err, viaJSON)
		}
		relayed := len(f.Events) > 0 || len(f.Meter) > 0
		if parseFrame(want, &Frame{}, nil) == relayed {
			t.Fatalf("%s frame with relayed payload %t: canonical parser accepted %t", f.Type, relayed, !relayed)
		}
	}
}

// FuzzFrameDecodeMatchesJSON holds the decoder to json.Unmarshal on
// arbitrary bytes: whatever the canonical parser accepts, json.Unmarshal
// must accept too and decode to a DeepEqual frame; whatever it refuses
// goes to json.Unmarshal itself, so decodeFrame agrees with
// json.Unmarshal on every input, errors included. Neither may panic. The
// seeds come from the small test campaign: a generated scenario's
// campaign frame is too long to minimise within the smoke budget.
func FuzzFrameDecodeMatchesJSON(f *testing.F) {
	for _, fr := range codecFrames(f, benchCampaign(640)) {
		b, err := json.Marshal(fr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	// Canonical edge cases, then valid and invalid JSON the encoder never
	// writes, which the canonical parser must leave to json.Unmarshal.
	for _, s := range []string{
		`{}`, `{"type":"heartbeat","leases":[]}`, `{"type":"result","chunk":{"crit_per_trial":null,"affected":[]}}`,
		` {"type":"lease","lease":7}`, `{"type":"lease", "lease":7}`, "{\"type\":\"lease\"}\n",
		`{"type":"lease","Lease":7}`, `{"type":"lease","lease":7,"lease":8}`, `{"type":"lease","unknown":[1,{"a":2}]}`,
		`{"type":"lease","begin":null}`, `{"type":"lease","spec":null}`, `{"type":"lease","ts":1e3}`,
		`{"type":"lease","epoch":-0}`, `{"type":"result","chunk":{"begin":1.0}}`, `{"type":"result","chunk":{"begin":01}}`,
		`{"type":"campaign","spec":{"nodes":[{"name":"a","name":"b"}]}}`, `null`,
		`{"type":"lease","lease":18446744073709551615,"begin":-9223372036854775808}`,
		`{"type":"lease","lease":18446744073709551616}`, `{"type":"lease","ts":1e400}`,
		`{"type":"campaign","spec":{"nodes":null,"occurrence_weights":{"a":1,"a":2}}}`,
		`{"type":"hello","worker":" <&>"}`, "{\"type\":\"hello\",\"worker\":\"\xff\"}",
		`{"type":"heartbeat","leases":[1,,2]}`, `{"type":"heartbeat","leases":[1,2,]}`,
		`{"type":"heartbeat","events":[{"kind":"k","attrs":{"a":[1,"]"]}}]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var want, got, parsed Frame
		werr := json.Unmarshal(data, &want)
		if parseFrame(data, &parsed, nil) && (werr != nil || !reflect.DeepEqual(parsed, want)) {
			t.Fatalf("canonical parser: %+v; json.Unmarshal: %+v (%v)", parsed, want, werr)
		}
		gerr := decodeFrame(data, &got, nil)
		if (werr == nil) != (gerr == nil) || (werr == nil && !reflect.DeepEqual(got, want)) {
			t.Fatalf("decodeFrame: %+v (%v); json.Unmarshal: %+v (%v)", got, gerr, want, werr)
		}
	})
}

// FuzzFrameEncodeMatchesJSON holds the encoder to json.Marshal on frames
// built from the fuzz input: the same bytes, or the same error on a NaN
// or infinity. Strings draw on HTML-escaped bytes, invalid UTF-8 and
// U+2028; slices are nil, empty or filled; floats include NaN, ±Inf and
// -0. Whatever the encoder writes must decode back to what
// json.Unmarshal reads from it.
func FuzzFrameEncodeMatchesJSON(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff"))
	f.Add([]byte("\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c\x0d\x0e\x0f\x10\x11\x12\x13\x14\x15\x16"))
	f.Add([]byte("<a&b>  \xc3\x28 \x00\x7f\"\\ 0123456789abcdef0123456789abcdef"))
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := fuzzFrame(&fuzzSource{b: data})
		want, werr := json.Marshal(fr)
		got, gerr := appendFrame(nil, fr)
		if werr != nil || gerr != nil {
			if werr == nil || gerr == nil || werr.Error() != gerr.Error() {
				t.Fatalf("errors differ: appendFrame %v, json.Marshal %v", gerr, werr)
			}
			return
		}
		if string(got) != string(want) {
			t.Fatalf("bytes differ:\n got %s\nwant %s", got, want)
		}
		var viaJSON, decoded Frame
		if err := json.Unmarshal(got, &viaJSON); err != nil {
			t.Fatal(err)
		}
		if err := decodeFrame(got, &decoded, nil); err != nil || !reflect.DeepEqual(decoded, viaJSON) {
			t.Fatalf("decodeFrame: %+v (%v); json.Unmarshal: %+v", decoded, err, viaJSON)
		}
	})
}

// fuzzSource hands out fuzz input bytes as frame field values; an
// exhausted source yields zeros.
type fuzzSource struct{ b []byte }

func (s *fuzzSource) byte() byte {
	if len(s.b) == 0 {
		return 0
	}
	c := s.b[0]
	s.b = s.b[1:]
	return c
}

func (s *fuzzSource) uint64() uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(s.byte())
	}
	return v
}

// int is zero, small or anywhere in the int64 range.
func (s *fuzzSource) int() int64 {
	switch s.byte() % 3 {
	case 0:
		return 0
	case 1:
		return int64(int8(s.byte()))
	default:
		return int64(s.uint64())
	}
}

var fuzzFloats = [...]float64{
	math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 1e21, 1e-7, 5e-324, math.MaxFloat64, 0.1, 1.5,
}

func (s *fuzzSource) float() float64 {
	switch s.byte() % 4 {
	case 0:
		return 0
	case 1:
		return float64(int8(s.byte())) / 4
	case 2:
		return math.Float64frombits(s.uint64())
	default:
		return fuzzFloats[int(s.byte())%len(fuzzFloats)]
	}
}

var fuzzStrings = [...]string{"", "w0", "<a&b>", "  ", "\xff\xfe", "é", "\"\\\n\t\x01", "p1a", "\u2028\u2029"}

func (s *fuzzSource) str() string {
	n := int(s.byte())
	if n < 128 {
		return fuzzStrings[n%len(fuzzStrings)]
	}
	n = min(n%12, len(s.b))
	str := string(s.b[:n])
	s.b = s.b[n:]
	return str
}

// n is a slice length; -1 stands for a nil slice.
func (s *fuzzSource) n() int { return int(s.byte()%6) - 1 }

func (s *fuzzSource) floats() []float64 {
	n := s.n()
	if n < 0 {
		return nil
	}
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = s.float()
	}
	return vs
}

func (s *fuzzSource) ints() []int {
	n := s.n()
	if n < 0 {
		return nil
	}
	vs := make([]int, n)
	for i := range vs {
		vs[i] = int(s.int())
	}
	return vs
}

func fuzzFrame(s *fuzzSource) *Frame {
	f := &Frame{
		Type: s.str(), Proto: int(s.int()), Fingerprint: s.str(), Worker: s.str(), Reason: s.str(),
		Trials: int(s.int()), Nonce: s.str(), MAC: s.str(), Epoch: uint64(s.int()),
		Lease: uint64(s.int()), Begin: int(s.int()), End: int(s.int()), Trace: s.str(),
		TS: s.int(), EchoTS: s.int(), HoldUS: s.int(), WTS: s.int(),
		RecvUS: s.int(), StartUS: s.int(), EndUS: s.int(),
	}
	if n := s.n(); n >= 0 {
		f.Leases = make([]uint64, n)
		for i := range f.Leases {
			f.Leases[i] = uint64(s.int())
		}
	}
	if s.byte()%2 == 1 {
		f.Chunk = &faultsim.ChunkOutput{
			Begin: int(s.int()), End: int(s.int()), TotalAffected: int(s.int()),
			CrossTransmissions: int(s.int()), TrialsWithEscape: int(s.int()),
			CommFaultTrials: int(s.int()), CriticalAffected: int(s.int()),
			InitialFaults: int(s.int()), TransientFaults: int(s.int()),
			CritPerTrial: s.floats(), EscPerTrial: s.floats(),
			Affected: s.ints(), EdgeTrials: s.ints(), Transmissions: s.ints(),
		}
	}
	if s.byte()%2 == 1 {
		w := &faultsim.WireCampaign{
			Trials: int(s.int()), Seed: s.uint64(), CriticalThreshold: s.float(), MaxHops: int(s.int()),
			CommFaultFraction: s.float(), Model: s.str(), Burst: int(s.int()), Persist: s.float(), Label: s.str(),
		}
		if n := s.n(); n >= 0 {
			w.Nodes = make([]faultsim.WireNode, n)
			for i := range w.Nodes {
				w.Nodes[i] = faultsim.WireNode{Name: s.str(), Criticality: s.float(), HW: s.str()}
			}
		}
		if n := s.n(); n >= 0 {
			w.Edges = make([]faultsim.WireEdge, n)
			for i := range w.Edges {
				w.Edges[i] = faultsim.WireEdge{From: s.str(), To: s.str(), Weight: s.float(), Replica: s.byte()%2 == 1}
			}
		}
		if n := s.n(); n >= 0 {
			w.OccurrenceWeights = make(map[string]float64, n)
			for i := 0; i < n; i++ {
				w.OccurrenceWeights[s.str()] = s.float()
			}
		}
		f.Spec = w
	}
	if n := s.n(); n >= 0 {
		f.Events = make([]obs.BusEvent, n)
		for i := range f.Events {
			f.Events[i] = obs.BusEvent{Seq: s.uint64(), TMS: s.float(), Kind: s.str(), Name: s.str(), Span: s.str(),
				Attrs: map[string]any{s.str(): s.float(), s.str(): s.str()}}
		}
	}
	if n := s.n(); n >= 0 {
		f.Meter = make(map[string]float64, n)
		for i := 0; i < n; i++ {
			f.Meter[s.str()] = s.float()
		}
	}
	return f
}
