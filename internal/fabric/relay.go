package fabric

// Worker-side telemetry relay. When the coordinator's campaign frame
// carries a trace id, the worker stamps every result frame with the
// worker-clock times that bound its chunk's phases — grant receipt,
// compute start, compute end, and the send time (WTS) — from which the
// coordinator derives the decode, evaluate and encode spans of results it
// accepts. Liveness bus events and a small metric snapshot ride the
// frames the worker was sending anyway. A nil *relay is the telemetry-off
// state: every method is a pointer comparison and nothing else, so the
// relay adds no allocation to the relay-disabled hot path (pinned by
// TestRelayOffZeroAlloc), and frames carry only zero-valued — hence
// wire-elided — telemetry fields.

import (
	"time"

	"repro/internal/obs"
)

// relayEventBuf bounds buffered liveness events between sends; overflow
// drops the oldest and is counted.
const relayEventBuf = 32

// relay holds the per-connection telemetry state of one worker session.
type relay struct {
	trace string

	events        []obs.BusEvent
	eventsDropped int

	// leaseRecv records the worker clock (unix µs) at grant receipt per
	// held lease: the decode phase's start.
	leaseRecv map[uint64]int64

	// Clock echo: the most recent coordinator timestamp and the worker
	// clock when it arrived (for the hold-time measurement).
	echoTS int64
	recvAt int64
}

func nowUS() int64 { return time.Now().UnixMicro() }

// reset clears chunk-scoped state (lease receipt times, the clock echo)
// at the start of a new connection. Buffered liveness events survive — a
// retry storm between sessions is exactly what the relay should deliver
// once reconnected.
func (r *relay) reset() {
	if r == nil {
		return
	}
	r.leaseRecv = map[uint64]int64{}
	r.echoTS, r.recvAt = 0, 0
}

// noteTS remembers a coordinator clock stamp for the next echo.
func (r *relay) noteTS(ts int64) {
	if r == nil || ts == 0 {
		return
	}
	r.echoTS, r.recvAt = ts, nowUS()
}

// leaseSeen records grant receipt time (the decode phase start).
func (r *relay) leaseSeen(lease uint64) {
	if r == nil {
		return
	}
	if r.leaseRecv == nil {
		r.leaseRecv = map[uint64]int64{}
	}
	r.leaseRecv[lease] = nowUS()
}

// phases stamps a result frame with its chunk's phase times:
// grant receipt, compute start and compute end (stamp's WTS closes the
// encode phase). A grant whose receipt went unseen (a reconnect raced it)
// gets a zero-width decode phase anchored at the compute start.
func (r *relay) phases(f *Frame, startUS, endUS int64) {
	if r == nil || startUS == 0 {
		return
	}
	recv := r.leaseRecv[f.Lease]
	delete(r.leaseRecv, f.Lease)
	if recv == 0 || recv > startUS {
		recv = startUS
	}
	f.RecvUS, f.StartUS, f.EndUS = recv, startUS, endUS
}

// event buffers a worker liveness event for relay (drop-oldest).
func (r *relay) event(kind, name string, attrs map[string]any) {
	if r == nil {
		return
	}
	if len(r.events) >= relayEventBuf {
		copy(r.events, r.events[1:])
		r.events = r.events[:len(r.events)-1]
		r.eventsDropped++
	}
	r.events = append(r.events, obs.BusEvent{Kind: kind, Name: name, Attrs: attrs})
}

// stamp attaches the relay payload to an outbound worker frame: the
// clock echo, any pending events (handed over as a bounded,
// freshly-owned slice — transports may hold frame pointers past the
// send), and, on heartbeats, the metric snapshot.
func (r *relay) stamp(f *Frame, chunks int, heartbeat bool) {
	if r == nil {
		return
	}
	now := nowUS()
	f.WTS = now
	if r.echoTS != 0 {
		f.EchoTS = r.echoTS
		f.HoldUS = now - r.recvAt
	}
	if n := len(r.events); n > 0 {
		if n <= maxFrameEvents {
			f.Events = r.events
			r.events = nil
		} else {
			f.Events = r.events[:maxFrameEvents:maxFrameEvents]
			r.events = append([]obs.BusEvent(nil), r.events[maxFrameEvents:]...)
		}
	}
	if heartbeat {
		f.Meter = map[string]float64{
			"chunks_done":    float64(chunks),
			"events_dropped": float64(r.eventsDropped),
		}
	}
}
