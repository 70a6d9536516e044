package fabric

// Coordinator-side telemetry federation: clock-offset estimation, phase
// spans of accepted worker results, relayed worker events, chunk-latency
// attribution and straggler detection. Everything here is advisory observability riding
// the existing frame flow — it is called from the coordinator's
// single-goroutine loop, owns no locks, and never touches the merge
// path, so the bit-identical-to-Workers=1 contract cannot be perturbed
// by any of it.

import (
	"slices"
	"sort"
	"time"

	"repro/internal/obs"
)

// maxMeterKeys bounds how many relayed metric entries one heartbeat's
// Meter map contributes to the fabric_clock event (hostile-input bound,
// like maxWorkerName).
const maxMeterKeys = 16

// latRingCap bounds the per-worker chunk-latency window the straggler
// detector looks at: recent behaviour, not campaign-lifetime averages.
const latRingCap = 256

// telemetry reports whether federation is on: any telemetry consumer
// (event bus or observer) makes the coordinator assign a trace id, stamp
// its clock on outbound frames, and absorb what workers relay back.
func (co *Coordinator) telemetry() bool {
	return co.cfg.Bus != nil || co.cfg.Observer != nil
}

// stampTS fills the coordinator clock field on an outbound frame when
// federation is on (the relay-off wire format stays byte-identical).
func (co *Coordinator) stampTS(f *Frame) *Frame {
	if co.telemetry() {
		f.TS = time.Now().UnixMicro()
	}
	return f
}

// telemetryIn absorbs the telemetry payload of one worker frame
// (heartbeat or result): a clock sample and relayed worker events.
// Post-auth only; everything is bounded and best-effort.
func (co *Coordinator) telemetryIn(w *workerConn, f *Frame) {
	if !co.telemetry() || !w.helloed {
		return
	}
	if off, rtt, ok := obs.EstimateOffset(f.EchoTS, f.HoldUS, f.WTS, time.Now().UnixMicro()); ok {
		// Keep the smallest-RTT sample: its midpoint assumption has the
		// least room to be wrong (see obs.EstimateOffset).
		if !w.clockSet || rtt <= w.rttBest {
			w.clockSet, w.rttBest, w.clockOff = true, rtt, off
		}
		// fabric_clock streams at heartbeat cadence (~1/s per worker), not
		// per result; the first sample is published immediately so even a
		// campaign shorter than one heartbeat interval gets a reading.
		if f.Type == TypeHeartbeat || !w.clockSeen {
			w.clockSeen = true
			co.publishClock(w, f.Meter)
		}
	}
	co.relayEvents(w, f.Events)
}

// phaseSpans records the decode, evaluate and encode spans of one
// accepted worker result from the phase times its frame carries (grant
// receipt, compute start, compute end, send), rebased onto the
// coordinator clock. It runs only for a result the coordinator merges, so
// every chunk merged from a worker result is traced exactly once, and a
// duplicate, a stale epoch or an audited lie leaves no trace. Phase times
// out of order are dropped whole. The span ids derive from the lease id,
// the per-chunk span context the grant frame carried; the worker name
// comes from the authenticated connection, never from the payload.
func (co *Coordinator) phaseSpans(w *workerConn, f *Frame, seq int) {
	if !co.telemetry() || f.RecvUS <= 0 || f.RecvUS > f.StartUS || f.StartUS > f.EndUS || f.EndUS > f.WTS {
		return
	}
	t := [4]int64{f.RecvUS, f.StartUS, f.EndUS, f.WTS}
	var spans [3]obs.RemoteSpan
	for k, name := range [3]string{"decode", "evaluate", "encode"} {
		spans[k] = obs.RemoteSpan{
			Worker: w.name, Name: name, ID: f.Lease*4 + uint64(k+1), Parent: f.Lease,
			Epoch: f.Epoch, Chunk: seq, StartUS: t[k] - w.clockOff, DurUS: t[k+1] - t[k],
		}
	}
	co.cfg.Observer.AddRemoteSpans(spans[:]...)
	if co.cfg.Bus != nil {
		for _, rs := range spans {
			co.cfg.Bus.Publish("fabric_span", rs.Name,
				obs.String("campaign", co.label),
				obs.String("worker", rs.Worker),
				obs.Int("chunk", rs.Chunk),
				obs.Int64("span", int64(rs.ID)),
				obs.Int64("parent", int64(rs.Parent)),
				obs.Int64("start_us", rs.StartUS),
				obs.Int64("dur_us", rs.DurUS))
		}
	}
}

// relayEvents republishes worker-side liveness events onto the
// coordinator's bus, tagged with the relaying connection. Only the
// "fabric_worker" kind crosses — a worker cannot inject arbitrary kinds
// into the coordinator's schema-validated stream.
func (co *Coordinator) relayEvents(w *workerConn, evs []obs.BusEvent) {
	if co.cfg.Bus == nil || len(evs) == 0 {
		return
	}
	if len(evs) > maxFrameEvents {
		evs = evs[:maxFrameEvents]
	}
	for _, ev := range evs {
		if ev.Kind != "fabric_worker" {
			continue
		}
		name := ev.Name
		if len(name) > maxWorkerName {
			name = name[:maxWorkerName]
		}
		keys := firstKeys(ev.Attrs)
		attrs := make([]obs.Attr, 0, len(keys)+1)
		for _, k := range keys {
			attrs = append(attrs, obs.Attr{Key: k, Value: ev.Attrs[k]})
		}
		attrs = append(attrs, obs.String("relay", w.name))
		co.cfg.Bus.Publish("fabric_worker", name, attrs...)
	}
}

// publishClock emits the worker's current clock estimate plus the metric
// snapshot its heartbeat carried.
func (co *Coordinator) publishClock(w *workerConn, meter map[string]float64) {
	if co.cfg.Bus == nil {
		return
	}
	attrs := []obs.Attr{
		obs.String("campaign", co.label),
		obs.Int64("offset_us", w.clockOff),
		obs.Int64("rtt_us", w.rttBest),
	}
	for _, k := range firstKeys(meter) {
		attrs = append(attrs, obs.Float(k, meter[k]))
	}
	co.cfg.Bus.Publish("fabric_clock", w.name, attrs...)
}

// firstKeys returns the first maxMeterKeys keys of a relayed map in
// sorted order: which entries of an oversized map cross is then a
// function of the map, not of its iteration order.
func firstKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys[:min(len(keys), maxMeterKeys)]
}

// observeLatency folds one leased→resulted chunk latency (coordinator
// clock, ms) into the worker's ring and its sorted copy, refreshes the
// worker's p95 and re-evaluates the straggler predicate.
func (co *Coordinator) observeLatency(w *workerConn, ms float64) {
	if len(w.lat) < latRingCap {
		w.lat = append(w.lat, ms)
	} else {
		evict := &w.lat[w.latPos%latRingCap]
		i, _ := slices.BinarySearch(w.latSorted, *evict)
		w.latSorted = slices.Delete(w.latSorted, i, i+1)
		*evict = ms
	}
	i, _ := slices.BinarySearch(w.latSorted, ms)
	w.latSorted = slices.Insert(w.latSorted, i, ms)
	w.p95 = obs.SortedPercentile(w.latSorted, 95)
	w.latPos++
	w.latN++
	co.checkStraggler(w)
}

// checkStraggler flags w when its chunk-latency p95 exceeds
// StragglerFactor × the fleet median of per-worker p95s (each worker
// contributing at least StragglerMin samples, at least two workers
// reporting, and a small absolute floor so equal-speed fleets with
// microsecond jitter never trip it). Sticky per connection: one typed
// fabric_straggler event, then the dashboard badge stays on.
func (co *Coordinator) checkStraggler(w *workerConn) {
	if w.straggler {
		return
	}
	factor := co.cfg.StragglerFactor
	if factor <= 0 {
		factor = 3
	}
	minN := co.cfg.StragglerMin
	if minN <= 0 {
		minN = 8
	}
	if w.latN < minN {
		return
	}
	p95s := make([]float64, 0, len(co.workers))
	for peer := range co.workers {
		if peer.helloed && peer.latN >= minN {
			p95s = append(p95s, peer.p95)
		}
	}
	if len(p95s) < 2 {
		return
	}
	sort.Float64s(p95s)
	median := p95s[len(p95s)/2]
	mine := w.p95
	if mine <= factor*median || mine <= median+5 {
		return
	}
	w.straggler = true
	co.stats.Stragglers++
	if co.cfg.Bus != nil {
		co.cfg.Bus.Publish("fabric_straggler", w.name,
			obs.String("campaign", co.label),
			obs.Float("p95_ms", mine),
			obs.Float("fleet_p95_ms", median),
			obs.Int("chunks", w.latN))
	}
}
