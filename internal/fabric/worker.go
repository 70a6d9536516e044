package fabric

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"repro/internal/faultsim"
	"repro/internal/obs"
)

// ErrDrained reports that the coordinator shut down gracefully before the
// campaign completed; the worker should not redial.
var ErrDrained = errors.New("fabric: coordinator draining")

// ErrRejected reports that the coordinator refused the handshake —
// protocol, campaign-fingerprint or authentication mismatch, or a
// quarantine — or that the coordinator itself failed the worker's checks
// (mutual authentication, a spec that does not match its claimed
// fingerprint). Permanent: redialling with the same configuration cannot
// succeed.
var ErrRejected = errors.New("fabric: handshake rejected")

// ErrUnreachable reports that the reconnect budget was exhausted without
// reaching a live coordinator.
var ErrUnreachable = errors.New("fabric: coordinator unreachable")

// WorkerConfig configures one campaign worker.
type WorkerConfig struct {
	// Campaign, when set (Graph non-nil), must be built from the same
	// specification as the coordinator's; the handshake compares
	// fingerprints and rejects any divergence before trials move. When
	// zero, the worker is *flagless*: it announces no fingerprint and
	// self-configures from the campaign spec the coordinator ships,
	// verifying the decoded spec against its claimed fingerprint. A
	// flagless worker also follows epoch switches (the fabric-sharded
	// search runs a new campaign per evaluation); a flag-configured
	// worker refuses any campaign but its own.
	Campaign faultsim.Campaign
	// Dial opens a connection to the coordinator; it is called on every
	// (re)connect attempt.
	Dial Dialer
	// Name identifies the worker in coordinator events (optional; the
	// coordinator assigns "wN" otherwise).
	Name string
	// AuthToken, when non-empty, answers the coordinator's HMAC
	// challenge-response and demands the same proof back (mutual
	// authentication). Must match the coordinator's Config.AuthToken.
	AuthToken string
	// HeartbeatEvery is the lease-renewal interval (default 1s). Keep it
	// well under the coordinator's LeaseTTL.
	HeartbeatEvery time.Duration
	// HandshakeTimeout bounds the wait for a welcome (default 5s); a
	// timeout counts as a failed attempt and triggers a reconnect.
	HandshakeTimeout time.Duration
	// BackoffBase and BackoffMax bound the jittered exponential backoff
	// between connect attempts (defaults 50ms and 2s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// MaxReconnects is the budget of consecutive failed attempts before
	// the worker gives up with ErrUnreachable (default 8). The counter
	// resets on every accepted handshake, so a long campaign can survive
	// any number of spaced-out disconnects.
	MaxReconnects int
	// Seed seeds the backoff jitter (a fixed default otherwise); it has no
	// effect on trial outcomes.
	Seed uint64
	// Bus, when set, receives worker-side "fabric_worker" liveness events
	// (connected / retry / done / drained) — useful when the worker runs
	// in its own process with its own dashboard.
	Bus *obs.Bus
}

// RunWorker connects to the coordinator and computes leased chunks until
// the campaign completes (nil), the coordinator drains (ErrDrained), the
// handshake is rejected (ErrRejected), the reconnect budget runs out
// (ErrUnreachable), or ctx is cancelled.
func RunWorker(ctx context.Context, cfg WorkerConfig) error {
	var runner *faultsim.ChunkRunner
	cfgFP := ""
	if cfg.Campaign.Graph != nil {
		var err error
		runner, err = faultsim.NewChunkRunner(cfg.Campaign)
		if err != nil {
			return err
		}
		cfgFP = runner.Fingerprint()
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = time.Second
	}
	if cfg.HandshakeTimeout <= 0 {
		cfg.HandshakeTimeout = 5 * time.Second
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 50 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 2 * time.Second
	}
	if cfg.MaxReconnects <= 0 {
		cfg.MaxReconnects = 8
	}
	w := &worker{
		cfg:    cfg,
		runner: runner,
		fp:     cfgFP,
		cfgFP:  cfgFP,
		rng:    rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0x6a09e667f3bcc909)),
	}
	attempts := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		conn, err := cfg.Dial(ctx)
		if err == nil {
			var handshaked, terminal bool
			handshaked, terminal, err = w.session(ctx, conn)
			conn.Close()
			if terminal {
				return err
			}
			if handshaked {
				attempts = 0 // a live coordinator resets the budget
			}
		}
		attempts++
		if attempts > cfg.MaxReconnects {
			return fmt.Errorf("%w after %d attempts: %v", ErrUnreachable, attempts, err)
		}
		w.publish("retry", obs.Int("attempt", attempts))
		if err := w.backoff(ctx, attempts); err != nil {
			return err
		}
	}
}

// worker is the per-RunWorker state shared across reconnects. runner,
// fp and epoch are dynamic: a flagless worker fills them from the
// shipped campaign spec and replaces them on every epoch switch.
type worker struct {
	cfg    WorkerConfig
	cfgFP  string // flag-configured fingerprint; "" for a flagless worker
	runner *faultsim.ChunkRunner
	fp     string
	epoch  uint64
	rng    *rand.Rand
	chunks int
	// rel is the telemetry relay; nil until a campaign frame announces a
	// trace id (coordinator telemetry on), and nil forever when it never
	// does — the relay-off hot path is a pointer comparison (see relay.go).
	rel *relay
}

// backoff sleeps a jittered exponential delay, honouring ctx: a
// cancellation (SIGINT, -timeout) cuts the wait short immediately
// instead of blocking until the full backoff elapses.
func (w *worker) backoff(ctx context.Context, attempt int) error {
	d := w.cfg.BackoffBase << min(attempt-1, 16)
	if d > w.cfg.BackoffMax {
		d = w.cfg.BackoffMax
	}
	// Full jitter over [d/2, d]: desynchronises a fleet of workers
	// redialling a restarted coordinator.
	d = d/2 + time.Duration(w.rng.Int64N(int64(d/2)+1))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// computeOut is one finished chunk computation by runner, which takes
// out back once it is sent. startUS/endUS bracket the evaluate phase on
// the worker clock (0 when the relay is off).
type computeOut struct {
	lease   uint64
	epoch   uint64
	runner  *faultsim.ChunkRunner
	out     *faultsim.ChunkOutput
	err     error
	startUS int64
	endUS   int64
}

// session is one connection's lifetime: one select loop, one frame
// handler, one terminal rule and one failover, over two phases. Until the
// welcome the handshake timer is armed; from it on, the worker computes
// queued leases one at a time and heartbeats.
type session struct {
	w    *worker
	ctx  context.Context // cancelled when the session ends
	conn Conn
	// The reader's frames, in order, then the error that ended it.
	incoming chan *Frame
	rerr     chan error

	nonce      string // the hello nonce the coordinator MACs back
	challenged bool
	welcomed   bool
	handshake  *time.Timer  // armed until the welcome
	heartbeat  *time.Ticker // started by the welcome

	// leaseQ holds grants not yet computed, possibly of a future epoch;
	// seen suppresses duplicated grants. held, the leases accepted but not
	// yet answered, rides heartbeats and results so the coordinator renews
	// exactly these and lets lost-in-transit grants expire.
	leaseQ     []*Frame
	seen, held map[uint64]bool

	computing bool
	results   chan computeOut
}

// session runs one connection: it sends the hello and serves the
// connection until it ends. handshaked reports whether a welcome was
// received (resets the reconnect budget); terminal reports that RunWorker
// should return err instead of redialling.
func (w *worker) session(ctx context.Context, conn Conn) (handshaked, terminal bool, err error) {
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	w.rel.reset()
	// The goroutines below capture s's channels, not s, so s stays local.
	s := session{
		w: w, ctx: sctx, conn: conn,
		incoming:  make(chan *Frame, 16),
		rerr:      make(chan error, 1),
		handshake: time.NewTimer(w.cfg.HandshakeTimeout),
		seen:      map[uint64]bool{},
		held:      map[uint64]bool{},
		results:   make(chan computeOut, 1),
	}

	// Reader goroutine: pumps frames until the conn dies. sessDone stops
	// it if the session exits while frames are still arriving; closing
	// the conn unblocks a pending Recv.
	incoming, rerr := s.incoming, s.rerr
	sessDone := make(chan struct{})
	var rwg sync.WaitGroup
	defer func() {
		s.handshake.Stop()
		if s.heartbeat != nil {
			s.heartbeat.Stop()
		}
		close(sessDone)
		conn.Close()
		rwg.Wait()
	}()
	rwg.Add(1)
	go func() {
		defer rwg.Done()
		for {
			f, e := conn.Recv()
			if e != nil {
				rerr <- e
				return
			}
			select {
			case incoming <- f:
			case <-sessDone:
				return
			}
		}
	}()

	if s.nonce, err = newNonce(); err != nil {
		return false, false, err
	}
	// With a token, the campaign fingerprint is withheld until the
	// coordinator proves itself.
	helloFP := w.cfgFP
	if w.cfg.AuthToken != "" {
		helloFP = ""
	}
	if err := s.conn.Send(&Frame{Type: TypeHello, Proto: Proto, Fingerprint: helloFP, Worker: w.cfg.Name, Nonce: s.nonce}); err != nil {
		return s.failover(err, false)
	}
	for {
		// The phase arms either the handshake timeout or the heartbeat.
		var timeout, heartbeat <-chan time.Time
		if s.welcomed {
			heartbeat = s.heartbeat.C
		} else {
			timeout = s.handshake.C
		}
		if s.welcomed && !s.computing && w.runner != nil {
			if lf := s.pickLease(); lf != nil {
				s.computing = true
				// rel is captured by value: the compute goroutine only
				// nil-tests it, never mutates it, so there is no race with
				// the session switching the relay on for a later epoch.
				rel, results := w.rel, s.results
				go func(runner *faultsim.ChunkRunner, epoch uint64) {
					var start, end int64
					if rel != nil {
						start = nowUS()
					}
					out, err := runner.Run(sctx, lf.Begin, lf.End)
					if rel != nil {
						end = nowUS()
					}
					results <- computeOut{lease: lf.Lease, epoch: epoch, runner: runner, out: out, err: err, startUS: start, endUS: end}
				}(w.runner, w.epoch)
			}
		}
		var sendErr error
		select {
		case f := <-s.incoming:
			w.rel.noteTS(f.TS)
			var end bool
			if end, sendErr = s.handle(f); end {
				return s.welcomed, true, sendErr
			}
		case r := <-s.results:
			s.computing = false
			if r.err != nil {
				return true, true, cmp.Or(s.ctx.Err(), r.err)
			}
			if r.epoch != w.epoch {
				r.runner.Release(r.out)
				continue // epoch switched mid-compute: the result is stale
			}
			w.chunks++
			delete(s.held, r.lease)
			f := &Frame{
				Type: TypeResult, Lease: r.lease, Epoch: r.epoch,
				Begin: r.out.Begin, End: r.out.End, Chunk: r.out,
				Leases: s.heldIDs(),
			}
			w.rel.phases(f, r.startUS, r.endUS)
			w.rel.stamp(f, w.chunks, false)
			sendErr = s.conn.Send(f)
			// Send keeps no reference to the chunk (see Conn), so the
			// runner may fill it again.
			r.runner.Release(r.out)
		case <-heartbeat:
			f := &Frame{Type: TypeHeartbeat, Leases: s.heldIDs()}
			w.rel.stamp(f, w.chunks, true)
			if sendErr = s.conn.Send(f); sendErr == nil && s.needSpec() {
				sendErr = s.conn.Send(&Frame{Type: TypeNeedCampaign})
			}
		case <-timeout:
			return false, false, fmt.Errorf("fabric: handshake timeout after %s", w.cfg.HandshakeTimeout)
		case e := <-s.rerr:
			return s.failover(e, true)
		case <-s.ctx.Done():
			return s.welcomed, true, s.ctx.Err()
		}
		if sendErr != nil {
			return s.failover(sendErr, false)
		}
	}
}

// handle takes one frame in either phase. end reports that the session
// is over, with err as its result; otherwise a non-nil err is a failed
// send.
func (s *session) handle(f *Frame) (end bool, err error) {
	w := s.w
	if end, err := s.verdict(f); end {
		return true, err
	}
	// A welcome or challenge after the welcome is a duplicate (chaos).
	switch {
	case f.Type == TypeWelcome && !s.welcomed:
		if w.cfg.AuthToken != "" && !s.challenged {
			return true, fmt.Errorf("%w: coordinator did not authenticate", ErrRejected)
		}
		s.welcomed = true
		s.handshake.Stop()
		s.heartbeat = time.NewTicker(w.cfg.HeartbeatEvery)
		w.publish("connected")
	case f.Type == TypeChallenge && !s.welcomed:
		if w.cfg.AuthToken == "" {
			return true, fmt.Errorf("%w: coordinator requires an auth token", ErrRejected)
		}
		if !verifyMAC(w.cfg.AuthToken, s.nonce, f.MAC) {
			return true, fmt.Errorf("%w: coordinator failed mutual authentication", ErrRejected)
		}
		s.challenged = true
		return false, s.conn.Send(&Frame{Type: TypeAuth, MAC: signNonce(w.cfg.AuthToken, f.Nonce), Fingerprint: w.cfgFP})
	case f.Type == TypeCampaign:
		if err := s.applyCampaign(f); err != nil {
			return true, err
		}
	case f.Type == TypeLease:
		s.stashLease(f)
	}
	return false, nil
}

// verdict is the one terminal rule: done ends the campaign (nil), drain
// ends it early (ErrDrained) and reject refuses the worker (ErrRejected).
// The coordinator sends reject only before the welcome, and closes the
// connection after each of them.
func (s *session) verdict(f *Frame) (end bool, err error) {
	switch f.Type {
	case TypeDone:
		s.w.publish("done")
		return true, nil
	case TypeDrain:
		s.w.publish("drained")
		return true, ErrDrained
	case TypeReject:
		return true, fmt.Errorf("%w: %s", ErrRejected, f.Reason)
	}
	return false, nil
}

// failover handles a dead connection, in either phase. A failure is often
// the far side of a clean shutdown — the coordinator queues a verdict,
// flushes and closes, so a failed send, or the select's random pick of
// the read-error arm, can race a verdict that was already delivered.
// Before redialling, wait for the reader to hand over everything the
// coordinator managed to send and honour any verdict in it;
// HandshakeTimeout bounds the wait on a genuinely dead transport.
func (s *session) failover(cause error, readerExited bool) (handshaked, terminal bool, err error) {
	var deadline <-chan time.Time
	if !readerExited {
		t := time.NewTimer(s.w.cfg.HandshakeTimeout)
		defer t.Stop()
		deadline = t.C
	}
	rerr := s.rerr
	for {
		if readerExited {
			// The reader is gone: every frame it delivered is buffered.
			if len(s.incoming) == 0 {
				return s.welcomed, false, cause
			}
			rerr = nil
		}
		select {
		case f := <-s.incoming:
			if end, err := s.verdict(f); end {
				return s.welcomed, true, err
			}
		case <-rerr:
			readerExited = true
		case <-deadline:
			return s.welcomed, false, cause
		case <-s.ctx.Done():
			return s.welcomed, true, s.ctx.Err()
		}
	}
}

// applyCampaign adopts a campaign frame: verify a shipped spec against
// its claimed fingerprint, build the chunk runner straight from it,
// switch to the frame's epoch and drop lease state from other epochs. A
// worker configured with the campaign keeps its own runner and needs no
// spec; any other worker asks again when a frame comes without one. A
// non-nil return is terminal.
func (s *session) applyCampaign(f *Frame) error {
	w := s.w
	if f.Epoch == 0 {
		return nil // malformed campaign frame: ignore
	}
	if f.Trace != "" {
		// The coordinator runs with telemetry on: switch the relay on for
		// this and every later epoch of the connection. The "connected"
		// event published before it was on is relayed now.
		if w.rel == nil {
			w.rel = &relay{}
			w.rel.reset()
			if s.welcomed {
				w.relayEvent(w.liveness("connected"))
			}
		}
		w.rel.trace = f.Trace
		w.rel.noteTS(f.TS)
	}
	if w.cfgFP != "" && f.Fingerprint != w.cfgFP {
		return fmt.Errorf("%w: coordinator runs campaign %s, this worker is configured for %s", ErrRejected, f.Fingerprint, w.cfgFP)
	}
	if f.Spec == nil && w.cfgFP == "" {
		_ = s.conn.Send(&Frame{Type: TypeNeedCampaign}) // best-effort; heartbeat retries
		return nil
	}
	if w.runner != nil && f.Epoch == w.epoch && f.Fingerprint == w.fp {
		return nil // duplicate (chaos or re-request)
	}
	if w.runner == nil || w.fp != f.Fingerprint {
		runner, err := f.Spec.Runner()
		if err != nil {
			return fmt.Errorf("%w: shipped campaign spec: %v", ErrRejected, err)
		}
		if got := runner.Fingerprint(); got != f.Fingerprint {
			return fmt.Errorf("%w: shipped campaign fingerprints %s but claims %s", ErrRejected, got, f.Fingerprint)
		}
		w.runner, w.fp = runner, f.Fingerprint
	}
	w.epoch = f.Epoch
	var kept []*Frame
	held := map[uint64]bool{}
	for _, lf := range s.leaseQ {
		if lf.Epoch == w.epoch {
			kept = append(kept, lf)
			held[lf.Lease] = true
		}
	}
	s.leaseQ, s.held = kept, held
	return nil
}

// stashLease queues a grant, asking for the campaign spec when the
// grant's epoch is ahead of what this worker is configured for (the
// campaign frame was lost in transit; heartbeats retry the request).
func (s *session) stashLease(f *Frame) {
	if s.seen[f.Lease] || f.Epoch < s.w.epoch {
		return
	}
	s.seen[f.Lease] = true
	s.held[f.Lease] = true
	s.w.rel.leaseSeen(f.Lease) // decode-phase start: grant receipt
	s.leaseQ = append(s.leaseQ, f)
	if f.Epoch > s.w.epoch {
		_ = s.conn.Send(&Frame{Type: TypeNeedCampaign}) // best-effort; heartbeat retries
	}
}

// needSpec reports whether a queued lease is waiting on a campaign spec
// this worker does not have yet.
func (s *session) needSpec() bool {
	for _, lf := range s.leaseQ {
		if lf.Epoch > s.w.epoch {
			return true
		}
	}
	return false
}

// pickLease returns the next computable lease: the first queued grant of
// the current epoch. Grants from older epochs are dropped (their campaign
// is gone); grants from future epochs stay queued until the campaign spec
// arrives.
func (s *session) pickLease() *Frame {
	var rest []*Frame
	var pick *Frame
	for _, lf := range s.leaseQ {
		switch {
		case pick == nil && lf.Epoch == s.w.epoch:
			pick = lf
		case lf.Epoch < s.w.epoch:
			delete(s.held, lf.Lease)
		default:
			rest = append(rest, lf)
		}
	}
	s.leaseQ = rest
	return pick
}

// heldIDs lists the leases accepted but not yet answered.
func (s *session) heldIDs() []uint64 {
	ids := make([]uint64, 0, len(s.held))
	for id := range s.held {
		ids = append(ids, id)
	}
	return ids
}

// publish emits a worker-side liveness event when a bus is configured,
// and mirrors it into the telemetry relay (if on) so the coordinator's
// stream sees the worker's own view of connects, retries and drains.
func (w *worker) publish(state string, extra ...obs.Attr) {
	if w.cfg.Bus == nil && w.rel == nil {
		return
	}
	name, attrs := w.liveness(state, extra...)
	if w.cfg.Bus != nil {
		w.cfg.Bus.Publish("fabric_worker", name, attrs...)
	}
	w.relayEvent(name, attrs)
}

// liveness returns the worker's name and the attributes of a liveness
// event in state.
func (w *worker) liveness(state string, extra ...obs.Attr) (string, []obs.Attr) {
	name := w.cfg.Name
	if name == "" {
		name = "worker"
	}
	return name, append([]obs.Attr{
		obs.String("state", state),
		obs.Int("chunks_done", w.chunks),
	}, extra...)
}

// relayEvent buffers a liveness event for the relay, when it is on.
func (w *worker) relayEvent(name string, attrs []obs.Attr) {
	if w.rel == nil {
		return
	}
	m := make(map[string]any, len(attrs))
	for _, a := range attrs {
		m[a.Key] = a.Value
	}
	w.rel.event("fabric_worker", name, m)
}
