package fabric

import (
	"fmt"
	"testing"
)

// TestRelayOffZeroAlloc pins the telemetry-off contract: a nil *relay
// absorbs every call without allocating and without touching the frame,
// so workers outside a federated fabric run exactly the protocol-v2 hot
// path and their frames wire-elide every telemetry field.
func TestRelayOffZeroAlloc(t *testing.T) {
	var r *relay
	f := &Frame{Type: TypeResult}
	allocs := testing.AllocsPerRun(100, func() {
		r.reset()
		r.noteTS(123)
		r.leaseSeen(7)
		r.phases(f, 1, 2)
		r.event("fabric_worker", "w", nil)
		r.stamp(f, 3, false)
		r.stamp(f, 3, true)
	})
	if allocs != 0 {
		t.Fatalf("nil relay allocated %.1f times per run, want 0", allocs)
	}
	if f.WTS != 0 || f.EchoTS != 0 || f.RecvUS != 0 || f.StartUS != 0 || f.EndUS != 0 || f.Events != nil || f.Meter != nil {
		t.Fatalf("nil relay stamped telemetry onto a frame: %+v", f)
	}
}

// TestRelayStampsPhaseTimes pins what a result frame carries for the
// coordinator to build its chunk's spans from: grant receipt, compute
// start and end, and the send time, in that order on the worker clock.
func TestRelayStampsPhaseTimes(t *testing.T) {
	r := &relay{}
	r.reset()
	r.leaseSeen(5)
	start := nowUS() + 100 // the grant arrived before the compute started
	f := &Frame{Type: TypeResult, Lease: 5}
	r.phases(f, start, start+10)
	r.stamp(f, 1, false)
	if f.RecvUS <= 0 || f.RecvUS > f.StartUS || f.StartUS != start || f.EndUS != start+10 {
		t.Fatalf("phase times %d/%d/%d, want receipt <= start %d, end %d", f.RecvUS, f.StartUS, f.EndUS, start, start+10)
	}
	if f.WTS == 0 {
		t.Fatal("stamp left WTS unset; it closes the encode phase")
	}
	if _, held := r.leaseRecv[5]; held {
		t.Fatal("lease receipt time not cleared after the chunk completed")
	}

	// Grant receipt unseen (a reconnect raced the grant): the decode
	// phase collapses to zero width anchored at the compute start.
	g := &Frame{Type: TypeResult, Lease: 8}
	r.phases(g, 100, 110)
	if g.RecvUS != 100 || g.StartUS != 100 || g.EndUS != 110 {
		t.Fatalf("fallback phase times %d/%d/%d, want 100/100/110", g.RecvUS, g.StartUS, g.EndUS)
	}

	// A chunk computed before the relay switched on has no phase times.
	h := &Frame{Type: TypeResult, Lease: 9}
	r.phases(h, 0, 0)
	if h.RecvUS != 0 || h.StartUS != 0 || h.EndUS != 0 {
		t.Fatalf("untimed chunk stamped with phase times %d/%d/%d", h.RecvUS, h.StartUS, h.EndUS)
	}
}

// TestRelayStampBoundsAndOwnership pins the slice-handoff contract:
// stamp gives the frame at most maxFrameEvents events in a capacity-
// capped slice and keeps the remainder in fresh storage, so later relay
// appends can never scribble into a frame a transport still holds.
func TestRelayStampBoundsAndOwnership(t *testing.T) {
	r := &relay{}
	r.reset()
	for i := 0; i < maxFrameEvents+3; i++ {
		r.event("fabric_worker", fmt.Sprintf("e%d", i), nil)
	}
	var f Frame
	r.stamp(&f, 0, false)
	if len(f.Events) != maxFrameEvents {
		t.Fatalf("frame carries %d events, want the %d cap", len(f.Events), maxFrameEvents)
	}
	if len(r.events) != 3 || r.events[0].Name != fmt.Sprintf("e%d", maxFrameEvents) {
		t.Fatalf("relay kept %d events (first %q), want the 3-event remainder", len(r.events), r.events[0].Name)
	}
	for i := 0; i < maxFrameEvents; i++ {
		r.event("fabric_worker", "later", nil)
	}
	for i, ev := range f.Events {
		if ev.Name != fmt.Sprintf("e%d", i) {
			t.Fatalf("relay append mutated a stamped frame: event %d is %q", i, ev.Name)
		}
	}

	// A fully drained stamp hands over the whole slice and forgets it.
	r2 := &relay{}
	r2.reset()
	r2.event("fabric_worker", "one", nil)
	var f2 Frame
	r2.stamp(&f2, 0, false)
	if len(f2.Events) != 1 || r2.events != nil {
		t.Fatalf("drained stamp: frame %d events, relay kept %v", len(f2.Events), r2.events)
	}
}

func TestRelayEventRingDropsOldest(t *testing.T) {
	r := &relay{}
	for i := 0; i < relayEventBuf+5; i++ {
		r.event("fabric_worker", fmt.Sprintf("e%d", i), nil)
	}
	if len(r.events) != relayEventBuf || r.eventsDropped != 5 {
		t.Fatalf("ring holds %d events with %d dropped, want %d/%d",
			len(r.events), r.eventsDropped, relayEventBuf, 5)
	}
	if r.events[0].Name != "e5" || r.events[len(r.events)-1].Name != fmt.Sprintf("e%d", relayEventBuf+4) {
		t.Fatalf("ring should drop oldest: kept [%s .. %s]",
			r.events[0].Name, r.events[len(r.events)-1].Name)
	}
}

// TestRelayResetKeepsEvents pins the reconnect semantics: grant receipt
// times belong to chunks the coordinator will reassign and are dropped,
// while buffered liveness events (the retry storm itself) survive to be
// delivered on the next session.
func TestRelayResetKeepsEvents(t *testing.T) {
	r := &relay{}
	r.reset()
	r.noteTS(99)
	r.leaseSeen(1)
	r.event("fabric_worker", "retry", nil)
	r.reset()
	if len(r.leaseRecv) != 0 || r.echoTS != 0 {
		t.Fatalf("reset kept chunk-scoped state: %+v", r)
	}
	if len(r.events) != 1 || r.events[0].Name != "retry" {
		t.Fatalf("reset dropped buffered liveness events: %+v", r.events)
	}
}
