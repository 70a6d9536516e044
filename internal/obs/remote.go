package obs

// Cross-process telemetry federation: span records produced in a worker
// process, relayed to the coordinator over the fabric, rebased onto the
// coordinator's clock and merged into one multi-process timeline.
//
// The design constraint is the fabric's merge contract: the campaign
// Result must stay bit-identical to a Workers=1 run with telemetry on,
// off, or half-delivered. A worker's result frame therefore carries only
// optional phase times of its own chunk; the coordinator builds the
// chunk's spans from them once it has accepted the result, and they land
// in a bounded side store on the observer (dropped — never blocked on —
// when full); nothing on this path can stall or reorder the merge.

import "sort"

// RemoteSpan is one completed span of work done in another process (a
// fabric worker), timed on that process's clock and rebased onto the
// local clock with the estimated offset before AddRemoteSpans.
type RemoteSpan struct {
	// Worker names the originating process; the coordinator fills it in
	// from the authenticated connection, never from the payload.
	Worker string `json:"worker,omitempty"`
	// Name is the phase: "decode" (grant receipt to compute start),
	// "evaluate" (chunk computation) or "encode" (result assembly).
	Name string `json:"name"`
	// ID and Parent link the span into the coordinator-assigned trace:
	// Parent is the granting lease id (the per-chunk span context carried
	// by the grant frame), ID a value derived from it per phase.
	ID     uint64 `json:"id,omitempty"`
	Parent uint64 `json:"parent,omitempty"`
	// Epoch scopes the span to one campaign run, exactly like leases.
	Epoch uint64 `json:"epoch,omitempty"`
	// Chunk is the grid chunk index the span worked on.
	Chunk int `json:"chunk"`
	// StartUS is unix microseconds; DurUS the span length.
	StartUS int64 `json:"start_us"`
	DurUS   int64 `json:"dur_us"`
}

// EstimateOffset computes a worker clock offset by the RTT-midpoint
// method. The coordinator stamped sentUS (its clock) on an outbound
// frame; the worker echoed it back alongside holdUS (worker-measured
// microseconds between receiving that stamp and replying) and remoteUS
// (the worker clock at reply); recvUS is the coordinator clock when the
// reply arrived. The round trip excluding the hold is then
//
//	rtt = recvUS - sentUS - holdUS
//
// and, assuming the two legs are symmetric, the reply left the worker at
// coordinator time recvUS - rtt/2, so
//
//	offset = remoteUS - (recvUS - rtt/2)
//
// with worker_time - offset = coordinator_time. Samples with negative
// rtt (clock steps, reordered frames) are rejected; callers should keep
// the offset from the smallest-rtt sample, whose midpoint assumption has
// the least room to be wrong.
func EstimateOffset(sentUS, holdUS, remoteUS, recvUS int64) (offsetUS, rttUS int64, ok bool) {
	rtt := recvUS - sentUS - holdUS
	if sentUS == 0 || remoteUS == 0 || rtt < 0 {
		return 0, 0, false
	}
	return remoteUS - (recvUS - rtt/2), rtt, true
}

// DefaultRemoteSpanCap bounds the observer's remote-span store: one
// entry per relayed span, three per chunk, so the store covers runs in
// the hundreds of thousands of trials before dropping.
const DefaultRemoteSpanCap = 16384

// AddRemoteSpans appends relayed (already clock-rebased) span records to
// the observer's remote store. The store is bounded by
// DefaultRemoteSpanCap; overflow is counted on the registry
// counter obs_remote_spans_dropped and dropped — federation telemetry
// never grows without bound and never blocks. Nil-safe.
func (o *Observer) AddRemoteSpans(spans ...RemoteSpan) {
	if o == nil || len(spans) == 0 {
		return
	}
	dropped := 0
	o.mu.Lock()
	for _, rs := range spans {
		if len(o.remote) >= DefaultRemoteSpanCap {
			dropped++
			continue
		}
		o.remote = append(o.remote, rs)
	}
	o.mu.Unlock()
	if dropped > 0 {
		o.reg.Counter("obs_remote_spans_dropped",
			"Relayed remote spans dropped by the observer's remote-span cap.").Add(int64(dropped))
	}
}

// RemoteSpans returns a copy of the relayed span records collected so far.
func (o *Observer) RemoteSpans() []RemoteSpan {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]RemoteSpan(nil), o.remote...)
}

// remotePhaseTID maps the per-chunk phases onto fixed thread lanes so
// each worker's process track renders decode / evaluate / encode as
// three stacked rows (a worker queues the next chunk's decode while the
// current one evaluates, so the phases of different chunks overlap).
func remotePhaseTID(name string) int {
	switch name {
	case "decode":
		return 1
	case "evaluate":
		return 2
	case "encode":
		return 3
	}
	return 4
}

// remoteChromeEvents renders the relayed spans as Chrome trace events,
// one process lane (pid) per worker. Pid 1 is the local process; workers
// get 2..n in sorted-name order so lane assignment is deterministic.
// Metadata records name the lanes for Perfetto / chrome://tracing.
func (o *Observer) remoteChromeEvents(epochUS int64) []ChromeEvent {
	remote := o.RemoteSpans()
	if len(remote) == 0 {
		return nil
	}
	names := make([]string, 0, 4)
	seen := map[string]bool{}
	for _, rs := range remote {
		if !seen[rs.Worker] {
			seen[rs.Worker] = true
			names = append(names, rs.Worker)
		}
	}
	sort.Strings(names)
	pid := make(map[string]int, len(names))
	out := make([]ChromeEvent, 0, len(remote)+2*len(names)+1)
	out = append(out, ChromeEvent{
		Name: "process_name", Phase: "M", PID: 1,
		Args: map[string]any{"name": "coordinator"},
	})
	for i, n := range names {
		pid[n] = 2 + i
		out = append(out, ChromeEvent{
			Name: "process_name", Phase: "M", PID: pid[n],
			Args: map[string]any{"name": "worker " + n},
		})
	}
	for _, rs := range remote {
		out = append(out, ChromeEvent{
			Name:  rs.Name,
			Phase: "X",
			TS:    float64(rs.StartUS - epochUS),
			Dur:   float64(rs.DurUS),
			PID:   pid[rs.Worker],
			TID:   remotePhaseTID(rs.Name),
			Args: map[string]any{
				"worker": rs.Worker,
				"chunk":  rs.Chunk,
				"lease":  rs.Parent,
				"epoch":  rs.Epoch,
			},
		})
	}
	return out
}
