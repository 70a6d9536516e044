package fabric

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/faultsim"
	"repro/internal/obs"
)

// Config configures a campaign coordinator.
type Config struct {
	// Campaign is the campaign to shard. All merge-side features ride
	// along unchanged: CheckpointPath/Resume give crash-safe coordinator
	// restart on the v2 frontier format, StopHalfWidth gives Wilson-interval
	// early stopping, and Span and Ledger stream and record as in
	// faultsim.Run. Used by Serve; ServeSearch runs one campaign per
	// evaluation instead.
	Campaign faultsim.Campaign
	// Listener accepts worker connections; the coordinator owns it and
	// closes it on exit.
	Listener Listener
	// LeaseTTL is how long a granted chunk may go without a result or
	// heartbeat before it is reassigned (default 5s).
	LeaseTTL time.Duration
	// AuthToken, when non-empty, requires every worker to pass an
	// HMAC-SHA256 challenge-response proving it holds the same token
	// before any campaign material (fingerprint, spec, leases) is sent.
	// The matching worker setting is WorkerConfig.AuthToken.
	AuthToken string
	// SpotCheck is the fraction of returned chunks the coordinator
	// re-evaluates locally and compares byte-for-byte against the
	// worker's answer (0 disables). Selection is a pure function of
	// (campaign seed, epoch, chunk index) — see SpotChecked — and every
	// worker's first chunk is always audited, so a worker that always
	// lies never contributes a byte to the merge. A divergent worker is
	// quarantined: dropped, its leases reassigned, its name barred from
	// rejoining, and the audited chunk's trusted local bytes merged.
	SpotCheck float64
	// Bus receives the fabric's own progress events — "fabric_worker"
	// (join/lost/drain), "fabric_lease" (grant/result/expire/duplicate),
	// "fabric_quarantine" (a worker failed a spot-check) and a final
	// "fabric_done" — alongside the campaign events Campaign.Span
	// publishes. Typically the bus of that span's observer.
	Bus *obs.Bus
	// Label names the fabric in streamed events (default Campaign.Label,
	// then "campaign").
	Label string
	// Observer, when set, collects the span records workers relay back
	// (decode/evaluate/encode per chunk) into its remote-span store, so
	// its Chrome-trace export renders one merged multi-process timeline —
	// one lane per worker, timestamps rebased onto the coordinator clock.
	// Setting Bus or Observer switches telemetry federation on: campaign
	// frames carry a trace id, grants carry the parent span context, and
	// workers relay spans/events/metrics on the frames they already send.
	Observer *obs.Observer
	// StragglerFactor and StragglerMin tune straggler detection: a worker
	// whose chunk-latency p95 exceeds Factor × the fleet median of
	// per-worker p95s — each worker having delivered at least Min chunks,
	// with at least two workers reporting — is flagged once with a typed
	// fabric_straggler event. Defaults 3 and 8; zero values keep them.
	StragglerFactor float64
	StragglerMin    int
}

// Stats counts the fabric's fault-tolerance activity during one Serve —
// the observable evidence that leases expired, chunks were reassigned and
// duplicates were suppressed rather than double-counted.
type Stats struct {
	// WorkersSeen counts accepted handshakes; WorkersLost counts
	// connections that died while holding state.
	WorkersSeen int
	WorkersLost int
	// Rejected counts refused handshakes (protocol, fingerprint or
	// authentication failure, or a quarantined worker redialling).
	Rejected int
	// LeasesGranted counts every lease handed out, including re-grants of
	// reassigned chunks. LeasesExpired counts TTL expiries.
	LeasesGranted int
	LeasesExpired int
	// Reassigned counts chunks returned to the queue by expiry or worker
	// loss. Duplicates counts results for chunks the merger already had,
	// merged or held (a slow worker finishing a reassigned chunk), that
	// were suppressed.
	Reassigned int
	Duplicates int
	// Quarantined counts workers dropped for failing a spot-check.
	Quarantined int
	// LocalChunks counts chunks the coordinator computed itself after the
	// live worker set emptied (graceful degradation to local execution).
	LocalChunks int
	// Stragglers counts workers flagged by the straggler detector
	// (telemetry federation on only; see Config.StragglerFactor).
	Stragglers int
}

// lease is one granted chunk.
type lease struct {
	id       uint64
	seq      int // grid chunk index
	worker   *workerConn
	deadline time.Time
	// granted timestamps the grant for leased→resulted latency
	// attribution (telemetry only).
	granted time.Time
}

// workerConn is the coordinator's view of one connected worker.
type workerConn struct {
	name    string
	conn    Conn
	out     chan *Frame
	joined  time.Time
	helloed bool
	closed  bool
	// fp is the campaign fingerprint the worker announced in its hello or
	// auth frame; "" for a flagless worker.
	fp string
	// Challenge-response state while authentication is in flight.
	authPending bool
	authNonce   string
	leases      map[uint64]*lease // by id; each is also Coordinator.leased[seq]
	chunks      int               // results delivered over this connection

	// Telemetry federation state, loop-owned like everything else here
	// (see telemetry.go). clockOff/rttBest hold the smallest-RTT clock
	// sample; lat is the chunk-latency ring feeding straggler detection,
	// latSorted the same samples in ascending order and p95 their 95th
	// percentile.
	clockSet  bool
	clockSeen bool // first fabric_clock event published
	clockOff  int64
	rttBest   int64
	lat       []float64
	latSorted []float64
	p95       float64
	latPos    int
	latN      int
	straggler bool
}

// inbound is one reader-goroutine message into the coordinator loop.
type inbound struct {
	w   *workerConn
	f   *Frame
	err error
}

// localResult is one chunk the coordinator computed itself (fallback).
type localResult struct {
	seq int
	out *faultsim.ChunkOutput
	err error
}

// maxWorkerName bounds the worker-announced name the coordinator stores
// and republishes, so a hostile hello cannot inflate event payloads.
const maxWorkerName = 64

// leasesPerWorker bounds a worker's outstanding chunks: one computing,
// one queued to hide the round trip.
const leasesPerWorker = 2

// maxRenewIDs bounds how many lease ids one heartbeat may renew; a
// legitimate worker holds leasesPerWorker.
const maxRenewIDs = 1024

// spareChunks bounds the finished chunks kept for decoding. Between a
// result's decode and its merge a chunk waits in the inbox or among the
// merger's held chunks, which a few workers' leasesPerWorker grants keep
// small; 16 covers that, and chunks finished beyond it are left to the
// collector.
const spareChunks = 16

// Coordinator is a long-lived fabric coordinator: it owns the listener
// and the connected worker set, and runs campaigns over them one at a
// time. Serve wraps one campaign in one Coordinator; ServeSearch keeps a
// Coordinator alive across every evaluation of an adversarial search,
// bumping the campaign epoch and re-shipping the spec each time.
//
// Concurrency contract: Run and Close are caller-driven and must not
// overlap; all fabric state is owned by the single goroutine inside Run.
type Coordinator struct {
	cfg   Config
	label string

	// Per-epoch campaign state, rebuilt by each Run.
	merger   *faultsim.Merger
	runner   *faultsim.ChunkRunner
	spec     *faultsim.WireCampaign
	specJSON []byte // spec encoded at most once per epoch (encodeSpec)
	fp       string
	trials   int
	epoch    uint64
	spotSeed uint64 // the campaign seed, which keys spot-check selection
	runCtx   context.Context

	traceID string // run-scoped trace id ("" with telemetry off)

	totalChunks int
	resumed     int // the frontier the epoch started from
	nextSeq     int // next never-granted chunk index
	requeue     []int
	leased      map[int]*lease // the live lease of each leased chunk
	leaseID     uint64

	workers     map[*workerConn]struct{}
	quarantined map[string]bool
	writers     sync.WaitGroup // per-conn writer goroutines; Close waits for their flush
	stats       Stats

	// spare holds the chunks the coordinator has finished with — merged,
	// dropped, duplicate or rejected — for the codec connections to decode
	// later results into.
	spare chan *faultsim.ChunkOutput

	inbox      chan inbound
	accepted   chan Conn
	localCh    chan localResult
	localBusy  bool
	done       chan struct{}
	acceptDone chan struct{}
	closeOnce  sync.Once
	ttl        time.Duration
}

// NewCoordinator builds a coordinator over cfg.Listener and starts
// accepting connections. Callers must eventually Close it; Serve and
// ServeSearch do this bookkeeping for the two standard lifecycles.
func NewCoordinator(cfg Config) *Coordinator {
	label := cfg.Label
	if label == "" {
		label = cfg.Campaign.Label
	}
	if label == "" {
		label = "campaign"
	}
	co := &Coordinator{
		cfg:         cfg,
		label:       label,
		leased:      map[int]*lease{},
		workers:     map[*workerConn]struct{}{},
		quarantined: map[string]bool{},
		spare:       make(chan *faultsim.ChunkOutput, spareChunks),
		inbox:       make(chan inbound, 64),
		accepted:    make(chan Conn),
		done:        make(chan struct{}),
		acceptDone:  make(chan struct{}),
		ttl:         cfg.LeaseTTL,
	}
	if co.ttl <= 0 {
		co.ttl = 5 * time.Second
	}
	go func() {
		defer close(co.acceptDone)
		for {
			c, err := co.cfg.Listener.Accept()
			if err != nil {
				return
			}
			select {
			case co.accepted <- c:
			case <-co.done:
				c.Close()
				return
			}
		}
	}()
	return co
}

// Close shuts the listener and every worker connection and waits for the
// writer goroutines to flush. Call after the final Run returns; it does
// not send any protocol verdict — use broadcast first for a clean
// done/drain.
func (co *Coordinator) Close() error {
	co.closeOnce.Do(func() {
		close(co.done)
		co.cfg.Listener.Close()
		for w := range co.workers {
			co.closeWorker(w)
		}
		// Wait for every writer to flush its queue and close its conn.
		// The caller may exit the process immediately on return; an
		// unflushed writer would strand the final done/drain verdicts in
		// memory, leaving TCP workers redialling a coordinator that no
		// longer exists. Queued frames are small (verdicts, leases), so
		// the flush cannot block on socket buffers in practice.
		co.writers.Wait()
		<-co.acceptDone
	})
	return nil
}

// broadcast sends a terminal verdict frame to every welcomed worker and
// publishes the matching liveness state. Call between Run and Close.
func (co *Coordinator) broadcast(frameType, state string) {
	for w := range co.workers {
		co.send(w, &Frame{Type: frameType})
		co.publishWorker(w, state)
	}
}

// Serve runs the coordinator until the campaign completes, the merge
// fails, or ctx is cancelled (graceful drain: workers get a drain frame,
// the frontier checkpoint is persisted when configured, and the
// cancellation error is returned). The returned Result is DeepEqual-
// identical to faultsim.Run with Workers=1 on the same Campaign, for any
// number of workers, under any transport chaos and with any subset of
// workers lying (given SpotCheck > 0), because chunks merge strictly in
// grid order and a chunk's content is a pure function of
// (campaign, bounds).
func Serve(ctx context.Context, cfg Config) (faultsim.Result, Stats, error) {
	co := NewCoordinator(cfg)
	res, err := co.Run(ctx, cfg.Campaign)
	if err == nil {
		co.broadcast(TypeDone, "done")
	}
	co.Close()
	return res, co.stats, err
}

// Run shards one campaign over the connected worker set and blocks until
// it completes, the merge fails, or ctx is cancelled. Each Run is one
// campaign epoch: the spec is shipped to every connected worker, and
// leases/results from other epochs are ignored. On success the workers
// are left connected and idle, ready for the next Run (ServeSearch's
// loop); the caller broadcasts the final done/drain verdict.
func (co *Coordinator) Run(ctx context.Context, c faultsim.Campaign) (faultsim.Result, error) {
	// The merger flattens the campaign once; the local and spot-check
	// runner shares its trial environment, and the spec shipped to
	// workers is that same flat form.
	merger, err := faultsim.NewMerger(c, 0)
	if err != nil {
		return faultsim.Result{}, err
	}
	merger.OnRelease(co.recycle)
	runner := merger.Runner()
	co.epoch++
	co.merger, co.runner, co.spec = merger, runner, runner.Spec()
	co.specJSON = nil
	co.fp = runner.Fingerprint()
	co.trials = c.Trials
	co.spotSeed = c.Seed
	co.traceID = ""
	if co.telemetry() {
		// Deterministic, run-scoped: campaign fingerprint prefix + epoch.
		fp := co.fp
		if len(fp) > 12 {
			fp = fp[:12]
		}
		co.traceID = fmt.Sprintf("%s-e%d", fp, co.epoch)
	}
	co.totalChunks = faultsim.NumChunks(co.trials)
	co.resumed = merger.Frontier()
	co.nextSeq = faultsim.ChunkIndex(co.resumed)
	co.requeue = nil
	co.leased = map[int]*lease{}
	co.localCh = make(chan localResult, 1)
	co.localBusy = false
	for w := range co.workers {
		w.leases = map[uint64]*lease{}
	}

	// A resumed-complete campaign has nothing to shard.
	if merger.Done() {
		res := co.merger.Finish()
		co.publishDone(res)
		return res, nil
	}

	// Ship the new epoch to everyone already connected.
	for w := range co.workers {
		if w.helloed {
			co.sendCampaign(w, false)
			co.grant(w)
		}
	}
	return co.loop(ctx)
}

// loop is the single-goroutine event loop owning all fabric state for
// one campaign epoch.
func (co *Coordinator) loop(ctx context.Context) (faultsim.Result, error) {
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	co.runCtx = runCtx
	tick := time.NewTicker(co.tickEvery())
	defer tick.Stop()
	for {
		if co.merger.Done() {
			res := co.merger.Finish()
			co.publishDone(res)
			return res, nil
		}
		co.regrant()
		co.maybeLocal()
		select {
		case c := <-co.accepted:
			co.admit(c)
		case in := <-co.inbox:
			if _, live := co.workers[in.w]; !live {
				continue // stale message from an already-dropped worker
			}
			if in.err != nil {
				co.dropWorker(in.w, "lost")
				continue
			}
			if fatal := co.handle(in.w, in.f); fatal != nil {
				return faultsim.Result{}, fatal
			}
		case lr := <-co.localCh:
			co.localBusy = false
			if lr.err != nil {
				if runCtx.Err() != nil {
					continue // cancelled mid-chunk; ctx.Done() exits the loop
				}
				return faultsim.Result{}, lr.err
			}
			co.stats.LocalChunks++
			if fatal := co.acceptChunk(nil, 0, lr.seq, lr.out); fatal != nil {
				return faultsim.Result{}, fatal
			}
		case <-tick.C:
			co.expireLeases()
			co.sweepHandshakes()
		case <-ctx.Done():
			// Graceful drain: notify workers, persist the frontier, exit.
			co.broadcast(TypeDrain, "drain")
			return faultsim.Result{}, co.merger.Abort(ctx.Err())
		}
	}
}

// tickEvery is the lease-expiry scan interval: a quarter TTL, floored so
// tiny test TTLs do not busy-spin.
func (co *Coordinator) tickEvery() time.Duration {
	t := co.ttl / 4
	if t < 5*time.Millisecond {
		t = 5 * time.Millisecond
	}
	return t
}

// handshakeWindow is how long an accepted connection may sit without
// completing its handshake before it is cut off — the read deadline that
// keeps a stalled or hostile dialer from holding coordinator state.
func (co *Coordinator) handshakeWindow() time.Duration {
	if co.ttl > time.Second {
		return co.ttl
	}
	return time.Second
}

// admit starts the reader/writer goroutines of a fresh connection. The
// worker holds no state until its handshake passes, its inbound frames
// are size-capped, and sweepHandshakes cuts it off if the handshake
// stalls.
func (co *Coordinator) admit(c Conn) {
	if rl, ok := c.(recvLimiter); ok {
		rl.SetRecvLimit(preAuthFrameSize)
	}
	if cr, ok := c.(chunkRecycler); ok {
		cr.recycleChunks(co.spare)
	}
	w := &workerConn{conn: c, out: make(chan *Frame, 64), joined: time.Now(), leases: map[uint64]*lease{}}
	co.workers[w] = struct{}{}
	co.writers.Add(1)
	go func() { // writer: drains out, then closes the conn
		defer co.writers.Done()
		for f := range w.out {
			_ = c.Send(f)
		}
		c.Close()
	}()
	go func() { // reader: pumps frames into the loop until the conn dies
		for {
			f, err := c.Recv()
			select {
			case co.inbox <- inbound{w: w, f: f, err: err}:
			case <-co.done:
				return
			}
			if err != nil {
				return
			}
		}
	}()
}

// sweepHandshakes drops connections that have not completed their
// handshake within the window.
func (co *Coordinator) sweepHandshakes() {
	cutoff := time.Now().Add(-co.handshakeWindow())
	for w := range co.workers {
		if !w.helloed && w.joined.Before(cutoff) {
			co.dropWorker(w, "handshake timeout")
		}
	}
}

// send enqueues one frame for w without ever blocking the loop; a worker
// whose writer queue is jammed is treated as lost.
func (co *Coordinator) send(w *workerConn, f *Frame) {
	select {
	case w.out <- f:
	default:
		co.dropWorker(w, "lost")
	}
}

// closeWorker shuts the worker's writer (flushing queued frames, then
// closing the conn). Idempotent.
func (co *Coordinator) closeWorker(w *workerConn) {
	if !w.closed {
		w.closed = true
		close(w.out)
	}
}

// dropWorker removes w and requeues its leases for reassignment.
func (co *Coordinator) dropWorker(w *workerConn, state string) {
	if _, live := co.workers[w]; !live {
		return
	}
	delete(co.workers, w)
	if w.helloed {
		co.stats.WorkersLost++
		co.publishWorker(w, state)
	}
	for _, l := range w.leases {
		co.reassign(l)
	}
	co.closeWorker(w)
}

// reassign revokes lease l and requeues its chunk, unless the merger
// already has it.
func (co *Coordinator) reassign(l *lease) {
	delete(co.leased, l.seq)
	delete(l.worker.leases, l.id)
	if !co.merger.Has(l.seq) {
		co.requeue = append(co.requeue, l.seq)
		co.stats.Reassigned++
		co.publishLease(l, "reassign")
	}
}

// handle processes one frame; a non-nil return is a fatal merge error.
func (co *Coordinator) handle(w *workerConn, f *Frame) error {
	switch f.Type {
	case TypeHello:
		if w.helloed || w.authPending {
			return nil // duplicated hello frame (chaos): already in progress
		}
		if f.Proto != Proto {
			co.reject(w, fmt.Sprintf("protocol version %d, want %d", f.Proto, Proto))
			return nil
		}
		name := f.Worker
		if len(name) > maxWorkerName {
			name = name[:maxWorkerName]
		}
		if name == "" {
			name = fmt.Sprintf("w%d", co.stats.WorkersSeen+1)
		}
		if co.quarantined[name] {
			co.reject(w, "worker quarantined")
			return nil
		}
		if co.cfg.AuthToken != "" {
			// Authenticated handshake: challenge first; the campaign
			// fingerprint is deferred to the worker's auth frame, so a
			// peer that cannot answer learns nothing about the campaign.
			nonce, err := newNonce()
			if err != nil {
				co.reject(w, "authentication unavailable")
				return nil
			}
			w.authPending = true
			w.authNonce = nonce
			w.name = name
			co.send(w, &Frame{Type: TypeChallenge, Nonce: nonce, MAC: signNonce(co.cfg.AuthToken, f.Nonce)})
			return nil
		}
		co.welcome(w, name, f.Fingerprint)
	case TypeAuth:
		if !w.authPending || w.helloed {
			return nil // stray or duplicated auth frame
		}
		if !verifyMAC(co.cfg.AuthToken, w.authNonce, f.MAC) {
			co.reject(w, "authentication failed")
			return nil
		}
		w.authPending = false
		co.welcome(w, w.name, f.Fingerprint)
	case TypeNeedCampaign:
		if w.helloed && co.merger != nil {
			co.sendCampaign(w, true)
		}
	case TypeHeartbeat:
		co.renew(w, f.Leases)
		co.telemetryIn(w, f)
	case TypeResult:
		if !w.helloed {
			co.recycle(f.Chunk)
			return nil
		}
		co.renew(w, f.Leases)
		// The clock sample rides the result frame and is taken first, so
		// the phase spans of an accepted result rebase on the freshest
		// offset (see phaseSpans).
		co.telemetryIn(w, f)
		if f.Epoch != co.epoch {
			co.recycle(f.Chunk)
			return nil // stale epoch: result of a previous Run
		}
		if err := co.result(w, f); err != nil {
			return err
		}
		co.grant(w)
	}
	return nil
}

// welcome completes a handshake unless the worker announced a campaign
// fingerprint other than the current epoch's (an empty announcement is a
// flagless worker: it configures from the shipped spec, nothing to
// compare). The worker becomes eligible for leases and, in the same
// breath, receives the current campaign spec.
func (co *Coordinator) welcome(w *workerConn, name, fp string) {
	if fp != "" && co.merger != nil && fp != co.fp {
		co.reject(w, fmt.Sprintf("campaign fingerprint %s, want %s", fp, co.fp))
		return
	}
	w.fp = fp
	w.helloed = true
	w.name = name
	co.stats.WorkersSeen++
	if rl, ok := w.conn.(recvLimiter); ok {
		rl.SetRecvLimit(maxFrameSize)
	}
	co.send(w, &Frame{Type: TypeWelcome, Trials: co.trials, Worker: w.name})
	co.publishWorker(w, "join")
	if co.merger != nil {
		co.sendCampaign(w, false)
		co.grant(w)
	}
}

// sendCampaign ships the current epoch's campaign frame (plus the trace
// id and a clock stamp when telemetry federation is on). The frame
// carries the encoded campaign spec unless the worker announced this
// campaign's fingerprint: such a worker was configured with the campaign
// and never reads the spec. withSpec ships it anyway, for a worker that
// asked for it. The spec is encoded when a frame first needs it, and
// every later campaign frame of the epoch carries the same bytes.
func (co *Coordinator) sendCampaign(w *workerConn, withSpec bool) {
	f := &Frame{
		Type:        TypeCampaign,
		Epoch:       co.epoch,
		Fingerprint: co.fp,
		Trials:      co.trials,
		Trace:       co.traceID,
	}
	if withSpec || w.fp != co.fp {
		if co.specJSON == nil {
			co.specJSON = encodeSpec(co.spec)
		}
		f.Spec, f.specJSON = co.spec, co.specJSON
	}
	co.send(w, co.stampTS(f))
}

// reject refuses a handshake and discards the connection.
func (co *Coordinator) reject(w *workerConn, reason string) {
	co.stats.Rejected++
	co.send(w, &Frame{Type: TypeReject, Reason: reason})
	delete(co.workers, w)
	co.closeWorker(w)
}

// renew pushes the deadlines of the leases the worker says it holds out
// by one TTL. Leases the worker does not list — its grant frame was lost
// in transit — are left to expire on schedule so they get reassigned;
// renewing blindly on any sign of life would keep a lost grant alive for
// as long as the worker heartbeats. The list is capped: a legitimate
// worker holds leasesPerWorker leases, so anything past maxRenewIDs is a
// hostile payload, not a renewal.
func (co *Coordinator) renew(w *workerConn, ids []uint64) {
	if len(ids) > maxRenewIDs {
		ids = ids[:maxRenewIDs]
	}
	deadline := time.Now().Add(co.ttl)
	for _, id := range ids {
		if l, ok := w.leases[id]; ok {
			l.deadline = deadline
		}
	}
}

// grant hands w chunks until it holds leasesPerWorker, preferring
// reassigned chunks over fresh ones.
func (co *Coordinator) grant(w *workerConn) {
	for !co.merger.Done() && w.helloed && !w.closed && len(w.leases) < leasesPerWorker {
		seq, ok := co.nextChunk()
		if !ok {
			return
		}
		co.leaseID++
		now := time.Now()
		l := &lease{id: co.leaseID, seq: seq, worker: w, deadline: now.Add(co.ttl), granted: now}
		co.leased[seq] = l
		w.leases[l.id] = l
		begin, end := co.bounds(seq)
		co.stats.LeasesGranted++
		co.send(w, co.stampTS(&Frame{Type: TypeLease, Lease: l.id, Epoch: co.epoch, Begin: begin, End: end}))
		co.publishLease(l, "grant")
	}
}

// bounds returns the trial bounds of grid chunk seq in this epoch. The
// chunk a resumed frontier lies inside begins at that frontier, as the
// merger expects: the trials below it are merged already.
func (co *Coordinator) bounds(seq int) (begin, end int) {
	begin, end = faultsim.ChunkBounds(seq, co.trials)
	return max(begin, co.resumed), end
}

// nextChunk picks the next chunk needing an owner: reassignments first
// (skipping any that completed while queued), then the fresh frontier.
func (co *Coordinator) nextChunk() (int, bool) {
	for len(co.requeue) > 0 {
		seq := co.requeue[0]
		co.requeue = co.requeue[1:]
		if !co.merger.Has(seq) && co.leased[seq] == nil {
			return seq, true
		}
	}
	if co.nextSeq < co.totalChunks {
		seq := co.nextSeq
		co.nextSeq++
		return seq, true
	}
	return 0, false
}

// regrant hands requeued chunks to live workers with free lease slots.
// A dropped or quarantined worker's chunks are requeued while the others
// may sit idle — they last asked when every chunk was leased out, and
// grant otherwise runs only on a welcome, a result or an expiry of their
// own lease — so without this the campaign would stall.
func (co *Coordinator) regrant() {
	for w := range co.workers {
		if len(co.requeue) == 0 {
			return
		}
		co.grant(w)
	}
}

// liveWorkers counts welcomed, still-connected workers.
func (co *Coordinator) liveWorkers() int {
	n := 0
	for w := range co.workers {
		if w.helloed {
			n++
		}
	}
	return n
}

// maybeLocal starts one local chunk computation when the fabric has
// degraded to zero live workers (all lost or quarantined) while work
// remains — the graceful-degradation path: the campaign completes as a
// plain local run instead of stalling. One chunk at a time keeps the
// loop responsive to workers rejoining.
func (co *Coordinator) maybeLocal() {
	if co.localBusy || co.merger == nil || co.merger.Done() {
		return
	}
	if co.stats.WorkersSeen == 0 || co.liveWorkers() > 0 {
		return
	}
	seq, ok := co.nextChunk()
	if !ok {
		return
	}
	co.localBusy = true
	begin, end := co.bounds(seq)
	co.publishLease(&lease{seq: seq}, "local")
	runner, ctx, ch := co.runner, co.runCtx, co.localCh
	go func() {
		out, err := runner.Run(ctx, begin, end)
		ch <- localResult{seq: seq, out: out, err: err} // buffered; never blocks
	}()
}

// expireLeases reassigns chunks whose lease outlived its TTL. The slow
// worker stays connected — if its result still arrives first it is
// accepted (the content is deterministic), and if it arrives after the
// reassigned copy it is suppressed as a duplicate.
func (co *Coordinator) expireLeases() {
	now := time.Now()
	for _, l := range co.leased {
		if now.Before(l.deadline) {
			continue
		}
		co.stats.LeasesExpired++
		co.publishLease(l, "expire")
		co.reassign(l)
		co.grant(l.worker)
	}
}

// result accepts one chunk result: validates its bounds and counter
// shape, suppresses duplicates, audits it when spot-check selection says
// so, then hands it to the merger. A chunk it does not merge is recycled.
func (co *Coordinator) result(w *workerConn, f *Frame) error {
	if f.Chunk == nil {
		return nil
	}
	seq := faultsim.ChunkIndex(f.Begin)
	wantB, wantE := co.bounds(seq)
	if f.Begin != wantB || f.End != wantE || f.Chunk.Begin != f.Begin || f.Chunk.End != f.End {
		co.recycle(f.Chunk)
		return nil // malformed bounds: ignore; the lease will expire
	}
	if co.merger.CheckShape(f.Chunk) != nil {
		co.recycle(f.Chunk)
		return nil // malformed counters: ignore likewise
	}
	if co.merger.Has(seq) {
		co.stats.Duplicates++
		co.publishLease(&lease{seq: seq, worker: w}, "duplicate")
		co.recycle(f.Chunk)
		return nil
	}
	if co.cfg.SpotCheck > 0 && (w.chunks == 0 || SpotChecked(co.spotSeed, co.epoch, seq, co.cfg.SpotCheck)) {
		local, err := co.runner.Run(co.runCtx, wantB, wantE)
		if err != nil {
			if co.runCtx.Err() != nil {
				return nil // cancelled mid-audit; ctx.Done() exits the loop
			}
			return err
		}
		if !chunkEqual(local, f.Chunk) {
			// The worker lied. Quarantine it (dropWorker requeues its
			// leases, including this chunk's) and merge the trusted
			// locally-computed bytes instead — the audit already paid for
			// them.
			co.quarantine(w, wantB, wantE)
			co.recycle(f.Chunk)
			return co.acceptChunk(nil, 0, seq, local)
		}
		co.runner.Release(local)
	}
	w.chunks++
	co.phaseSpans(w, f, seq)
	return co.acceptChunk(w, f.Lease, seq, f.Chunk)
}

// acceptChunk releases the lease of one trusted chunk (from a worker, a
// spot-check re-evaluation, or the local fallback) and absorbs it; the
// merger holds it until every chunk before it has arrived.
func (co *Coordinator) acceptChunk(w *workerConn, leaseID uint64, seq int, out *faultsim.ChunkOutput) error {
	// Release the chunk's lease — possibly another worker's, when the
	// chunk was reassigned and the first owner won.
	l := co.leased[seq]
	if l != nil {
		delete(l.worker.leases, l.id)
		delete(co.leased, seq)
	}
	// Leased→resulted latency of the delivering worker's own grant feeds
	// the per-worker histograms and the straggler detector (telemetry
	// only).
	ev := &lease{id: leaseID, seq: seq, worker: w}
	if w != nil && l != nil && l.worker == w && l.id == leaseID && co.telemetry() {
		latMS := float64(time.Since(l.granted)) / float64(time.Millisecond)
		co.publishLease(ev, "result", obs.Float("latency_ms", latMS))
		co.observeLatency(w, latMS)
	} else {
		co.publishLease(ev, "result")
	}
	_, err := co.merger.Absorb(out)
	return err
}

// recycle keeps a chunk nothing references any more for the decoders,
// unless enough are kept already. The merger hands merged and dropped
// chunks here (faultsim.Merger.OnRelease); result hands those it does not
// merge. nil is ignored.
func (co *Coordinator) recycle(ch *faultsim.ChunkOutput) {
	if ch == nil {
		return
	}
	select {
	case co.spare <- ch:
	default:
	}
}

// quarantine drops a worker whose chunk bytes diverged from the local
// re-evaluation and bars its name from rejoining this coordinator.
func (co *Coordinator) quarantine(w *workerConn, begin, end int) {
	co.stats.Quarantined++
	co.quarantined[w.name] = true
	if co.cfg.Bus != nil {
		co.cfg.Bus.Publish("fabric_quarantine", w.name,
			obs.String("campaign", co.label),
			obs.Int("begin", begin),
			obs.Int("end", end),
			obs.Int("chunks_done", w.chunks))
	}
	co.dropWorker(w, "quarantined")
}

// chunkEqual compares two chunk outputs byte-for-byte via their
// canonical JSON encoding — the bytes a result frame carries.
func chunkEqual(a, b *faultsim.ChunkOutput) bool {
	ab, aerr := appendChunk(nil, a)
	bb, berr := appendChunk(nil, b)
	return aerr == nil && berr == nil && bytes.Equal(ab, bb)
}

// publishWorker emits a "fabric_worker" liveness event.
func (co *Coordinator) publishWorker(w *workerConn, state string) {
	if co.cfg.Bus == nil {
		return
	}
	co.cfg.Bus.Publish("fabric_worker", w.name,
		obs.String("state", state),
		obs.String("campaign", co.label),
		obs.Int("leases", len(w.leases)),
		obs.Int("chunks_done", w.chunks))
}

// publishLease emits a "fabric_lease" churn event (extra carries
// state-specific attributes, e.g. latency_ms on results).
func (co *Coordinator) publishLease(l *lease, state string, extra ...obs.Attr) {
	if co.cfg.Bus == nil {
		return
	}
	begin, end := co.bounds(l.seq)
	name := ""
	if l.worker != nil {
		name = l.worker.name
	}
	attrs := append([]obs.Attr{
		obs.String("state", state),
		obs.String("worker", name),
		obs.Int("lease", int(l.id)),
		obs.Int("begin", begin),
		obs.Int("end", end),
	}, extra...)
	co.cfg.Bus.Publish("fabric_lease", co.label, attrs...)
}

// publishDone emits the terminal "fabric_done" event.
func (co *Coordinator) publishDone(res faultsim.Result) {
	if co.cfg.Bus == nil {
		return
	}
	co.cfg.Bus.Publish("fabric_done", co.label,
		obs.Int("trials_done", res.Trials),
		obs.Int("workers_seen", co.stats.WorkersSeen),
		obs.Int("workers_lost", co.stats.WorkersLost),
		obs.Int("leases_granted", co.stats.LeasesGranted),
		obs.Int("leases_expired", co.stats.LeasesExpired),
		obs.Int("reassigned", co.stats.Reassigned),
		obs.Int("duplicates", co.stats.Duplicates),
		obs.Int("quarantined", co.stats.Quarantined),
		obs.Int("local_chunks", co.stats.LocalChunks),
		obs.Int("stragglers", co.stats.Stragglers),
		obs.Bool("early_stopped", res.EarlyStopped))
}
