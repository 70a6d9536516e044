package fabric

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/attrs"
	"repro/internal/faultsim"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/testutil"
)

// testGraph builds the small two-host web used across the suite.
func testGraph(t *testing.T) (*graph.Graph, map[string]string) {
	t.Helper()
	g := graph.New()
	crits := map[string]float64{"a": 12, "b": 3, "c": 7, "d": 1}
	for _, n := range []string{"a", "b", "c", "d"} {
		if err := g.AddNode(n, attrs.New(map[attrs.Kind]float64{attrs.Criticality: crits[n]})); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range []struct {
		from, to string
		w        float64
	}{
		{"a", "b", 0.6}, {"b", "c", 0.4}, {"c", "d", 0.5}, {"d", "a", 0.3}, {"a", "c", 0.2},
	} {
		if err := g.SetEdge(e.from, e.to, e.w); err != nil {
			t.Fatal(err)
		}
	}
	return g, map[string]string{"a": "h1", "b": "h1", "c": "h2", "d": "h2"}
}

func testCampaign(t *testing.T, trials int) faultsim.Campaign {
	t.Helper()
	g, hw := testGraph(t)
	return faultsim.Campaign{
		Graph:             g,
		HWOf:              hw,
		Trials:            trials,
		Seed:              1998,
		CriticalThreshold: 10,
		CommFaultFraction: 0.3,
	}
}

// localReference runs the campaign in-process with one worker — the
// ground truth every fabric topology must reproduce bit-for-bit.
func localReference(t *testing.T, c faultsim.Campaign) faultsim.Result {
	t.Helper()
	c.Workers = 1
	res, err := faultsim.Run(c)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// fabricHarness runs one coordinator and n workers over an in-process
// pipe, optionally under chaos, and returns the merged result and stats.
type fabricHarness struct {
	ln      Listener
	dial    Dialer
	cfg     Config
	workers int
	wcfg    func(i int) WorkerConfig // optional per-worker overrides
	wctx    func(i int) context.Context
	// allJoin holds every worker's results until all of them have been
	// welcomed, so a small campaign cannot finish before the last
	// handshake and Stats.WorkersSeen is exact. Set it only when every
	// worker is expected to join.
	allJoin bool
}

// joinGate is the allJoin barrier: it closes all once each of n workers
// has received its welcome frame.
type joinGate struct {
	mu     sync.Mutex
	joined map[int]bool
	n      int
	all    chan struct{}
}

func newJoinGate(n int) *joinGate {
	return &joinGate{joined: make(map[int]bool), n: n, all: make(chan struct{})}
}

func (g *joinGate) join(i int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.joined[i] {
		return
	}
	g.joined[i] = true
	if len(g.joined) == g.n {
		close(g.all)
	}
}

// dialer wraps worker i's dialer so its connections report the welcome
// and wait at their first result until every worker has joined (or 10s
// have passed, so a lost worker fails the test instead of hanging it).
func (g *joinGate) dialer(i int, d Dialer) Dialer {
	return func(ctx context.Context) (Conn, error) {
		c, err := d(ctx)
		if err != nil {
			return nil, err
		}
		return &gatedConn{Conn: c, g: g, i: i}, nil
	}
}

type gatedConn struct {
	Conn
	g *joinGate
	i int
}

func (c *gatedConn) Recv() (*Frame, error) {
	f, err := c.Conn.Recv()
	if err == nil && f.Type == TypeWelcome {
		c.g.join(c.i)
	}
	return f, err
}

func (c *gatedConn) Send(f *Frame) error {
	if f.Type == TypeResult {
		timer := time.NewTimer(10 * time.Second)
		select {
		case <-c.g.all:
		case <-timer.C:
		}
		timer.Stop()
	}
	return c.Conn.Send(f)
}

func (h *fabricHarness) run(t *testing.T, c faultsim.Campaign) (faultsim.Result, Stats) {
	t.Helper()
	if h.ln == nil {
		pl := NewPipeListener()
		h.ln = pl
		h.dial = pl.Dial()
	}
	cfg := h.cfg
	cfg.Campaign = c
	cfg.Listener = h.ln
	if cfg.LeaseTTL == 0 {
		cfg.LeaseTTL = 2 * time.Second
	}

	type serveOut struct {
		res   faultsim.Result
		stats Stats
		err   error
	}
	ch := make(chan serveOut, 1)
	sctx, scancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer scancel()
	go func() {
		res, stats, err := Serve(sctx, cfg)
		ch <- serveOut{res, stats, err}
	}()

	var gate *joinGate
	if h.allJoin {
		gate = newJoinGate(h.workers)
	}
	wctx, wcancel := context.WithCancel(context.Background())
	var wwg sync.WaitGroup
	for i := 0; i < h.workers; i++ {
		wc := WorkerConfig{
			Campaign:         c,
			Dial:             h.dial,
			Name:             fmt.Sprintf("w%d", i),
			HeartbeatEvery:   25 * time.Millisecond,
			HandshakeTimeout: 250 * time.Millisecond,
			BackoffBase:      2 * time.Millisecond,
			BackoffMax:       50 * time.Millisecond,
			MaxReconnects:    200,
			Seed:             uint64(i),
		}
		if h.wcfg != nil {
			wc = h.wcfg(i)
		}
		if gate != nil {
			wc.Dial = gate.dialer(i, wc.Dial)
		}
		ctx := wctx
		if h.wctx != nil {
			// A worker on its own context is released with the others
			// once the campaign is over.
			var release context.CancelFunc
			ctx, release = context.WithCancel(h.wctx(i))
			context.AfterFunc(wctx, release)
		}
		wwg.Add(1)
		go func() {
			defer wwg.Done()
			// Worker exit reasons are checked by dedicated tests; the
			// harness only guarantees they all terminate.
			_ = RunWorker(ctx, wc)
		}()
	}

	out := <-ch
	// The campaign is over (or failed): release any worker still
	// redialling a closed listener.
	wcancel()
	wwg.Wait()
	if out.err != nil {
		t.Fatalf("Serve: %v", out.err)
	}
	return out.res, out.stats
}

func TestFabricMatchesLocal(t *testing.T) {
	testutil.CheckGoroutines(t)
	c := testCampaign(t, 1600)
	want := localReference(t, c)
	for _, n := range []int{1, 4} {
		h := &fabricHarness{workers: n, allJoin: true}
		got, stats := h.run(t, c)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%d workers: distributed result differs from Workers=1", n)
		}
		if stats.WorkersSeen != n {
			t.Errorf("%d workers: WorkersSeen = %d", n, stats.WorkersSeen)
		}
		if stats.Duplicates != 0 || stats.LeasesExpired != 0 {
			t.Errorf("%d workers: unexpected churn on a clean transport: %+v", n, stats)
		}
	}
}

func TestFabricKilledWorkerReassigns(t *testing.T) {
	testutil.CheckGoroutines(t)
	c := testCampaign(t, 1600)
	want := localReference(t, c)

	// The victim dies the moment it holds a lease; the chunk must be
	// reassigned and the result must not change. Its connection kills it
	// as the lease frame arrives, before it can compute the chunk: a kill
	// driven by the bus's lease events lands only once the subscriber runs,
	// and by then the victim may have finished the whole campaign alone.
	victimCtx, killVictim := context.WithCancel(context.Background())
	defer killVictim()

	h := &fabricHarness{
		workers: 4,
		cfg:     Config{LeaseTTL: 2 * time.Second},
		wcfg: func(i int) WorkerConfig {
			name := fmt.Sprintf("w%d", i)
			if i == 0 {
				name = "victim"
			}
			return WorkerConfig{
				Campaign: testCampaign(t, 1600), Name: name,
				HeartbeatEvery: 25 * time.Millisecond,
				BackoffBase:    2 * time.Millisecond, BackoffMax: 50 * time.Millisecond,
				MaxReconnects: 200, Seed: uint64(i),
			}
		},
		wctx: func(i int) context.Context {
			if i == 0 {
				return victimCtx
			}
			return context.Background()
		},
	}
	// The harness's wcfg above rebuilds the campaign but the dialer comes
	// from the harness; wire it after construction.
	pl := NewPipeListener()
	h.ln = pl
	h.dial = pl.Dial()
	base := h.wcfg
	h.wcfg = func(i int) WorkerConfig {
		wc := base(i)
		dial := pl.Dial()
		if i == 0 {
			wc.Dial = func(ctx context.Context) (Conn, error) {
				conn, err := dial(ctx)
				return killOnLease{conn, killVictim}, err
			}
			return wc
		}
		// The others dial only once the victim is dead, so they cannot
		// finish the campaign before it holds a lease.
		wc.Dial = func(ctx context.Context) (Conn, error) {
			select {
			case <-victimCtx.Done():
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return dial(ctx)
		}
		return wc
	}

	got, stats := h.run(t, c)
	if !reflect.DeepEqual(got, want) {
		t.Error("result with a killed worker differs from Workers=1")
	}
	if stats.WorkersLost == 0 {
		t.Errorf("expected at least one lost worker: %+v", stats)
	}
	if stats.Reassigned == 0 {
		t.Errorf("expected reassigned chunks after the kill: %+v", stats)
	}
}

// killOnLease is a worker connection that calls kill as the first lease
// frame arrives, before the worker sees the frame.
type killOnLease struct {
	Conn
	kill context.CancelFunc
}

func (c killOnLease) Recv() (*Frame, error) {
	f, err := c.Conn.Recv()
	if err == nil && f.Type == TypeLease {
		c.kill()
	}
	return f, err
}

func TestFabricChaosBitIdentical(t *testing.T) {
	testutil.CheckGoroutines(t)
	c := testCampaign(t, 1280)
	want := localReference(t, c)

	chaos := ChaosConfig{Seed: 7, Drop: 0.05, Dup: 0.08, Delay: 0.15, MaxDelay: 10 * time.Millisecond}
	pl := NewPipeListener()
	h := &fabricHarness{
		ln:      ChaosListener(pl, chaos),
		dial:    ChaosDialer(pl.Dial(), chaos),
		workers: 3,
		cfg:     Config{LeaseTTL: 150 * time.Millisecond},
	}
	got, stats := h.run(t, c)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("result under chaos transport differs from Workers=1 (stats %+v)", stats)
	}
}

// shortChunkConn sends a result with an edge_trials array one entry short
// — a misshapen chunk the coordinator must drop, not merge — unless a
// connection sharing its sent flag already did.
type shortChunkConn struct {
	Conn
	sent *atomic.Bool
}

func (c *shortChunkConn) Send(f *Frame) error {
	if f.Type == TypeResult && f.Chunk != nil && len(f.Chunk.EdgeTrials) > 0 && c.sent.CompareAndSwap(false, true) {
		g, ch := *f, *f.Chunk
		ch.EdgeTrials = ch.EdgeTrials[:len(ch.EdgeTrials)-1]
		g.Chunk = &ch
		return c.Conn.Send(&g)
	}
	return c.Conn.Send(f)
}

// TestFabricMisshapenChunkDropped: the first chunk result of the campaign
// arrives with its edge_trials array one entry short. The coordinator
// drops it like a malformed-bounds result, the lease expires and is
// reassigned, and the campaign still finishes bit-identical to Workers=1.
func TestFabricMisshapenChunkDropped(t *testing.T) {
	testutil.CheckGoroutines(t)
	c := testCampaign(t, 640)
	want := localReference(t, c)

	var sent atomic.Bool
	pl := NewPipeListener()
	dial := pl.Dial()
	h := &fabricHarness{
		ln:      pl,
		dial:    dial,
		workers: 2,
		cfg:     Config{LeaseTTL: 150 * time.Millisecond},
		wcfg: func(i int) WorkerConfig {
			wc := flaglessWorker(dial, i)
			wc.Dial = func(ctx context.Context) (Conn, error) {
				conn, err := dial(ctx)
				if err != nil {
					return nil, err
				}
				return &shortChunkConn{Conn: conn, sent: &sent}, nil
			}
			return wc
		},
	}
	got, stats := h.run(t, c)
	if !sent.Load() {
		t.Fatal("the misshapen chunk was never sent")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("result after a misshapen chunk differs from Workers=1 (stats %+v)", stats)
	}
	if stats.Reassigned == 0 {
		t.Errorf("the dropped chunk's lease was not reassigned (stats %+v)", stats)
	}
}

func TestFabricDuplicateResultsSuppressed(t *testing.T) {
	testutil.CheckGoroutines(t)
	c := testCampaign(t, 640) // 10 chunks
	want := localReference(t, c)

	pl := NewPipeListener()
	type serveOut struct {
		res   faultsim.Result
		stats Stats
		err   error
	}
	ch := make(chan serveOut, 1)
	go func() {
		res, stats, err := Serve(context.Background(), Config{
			Campaign: c, Listener: pl, LeaseTTL: 5 * time.Second,
		})
		ch <- serveOut{res, stats, err}
	}()

	// A hand-rolled worker that speaks the protocol directly and sends
	// every result twice.
	runner, err := faultsim.NewChunkRunner(c)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := pl.Dial()(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(&Frame{Type: TypeHello, Proto: Proto, Fingerprint: c.Fingerprint(), Worker: "dup"}); err != nil {
		t.Fatal(err)
	}
	for done := false; !done; {
		f, err := conn.Recv()
		if err != nil {
			t.Fatalf("recv: %v", err)
		}
		switch f.Type {
		case TypeWelcome:
		case TypeCampaign: // v2 ships the spec; this worker is flag-configured
		case TypeLease:
			out, err := runner.Run(context.Background(), f.Begin, f.End)
			if err != nil {
				t.Fatal(err)
			}
			res := &Frame{Type: TypeResult, Lease: f.Lease, Epoch: f.Epoch, Begin: f.Begin, End: f.End, Chunk: out}
			if err := conn.Send(res); err != nil {
				t.Fatal(err)
			}
			// The first copy of the last chunk completes the campaign; the
			// coordinator may then close before the duplicate goes out.
			if err := conn.Send(res); err != nil && !errors.Is(err, io.ErrClosedPipe) { // the duplicate
				t.Fatal(err)
			}
		case TypeDone:
			done = true
		default:
			t.Fatalf("unexpected frame %q", f.Type)
		}
	}
	out := <-ch
	if out.err != nil {
		t.Fatal(out.err)
	}
	if !reflect.DeepEqual(out.res, want) {
		t.Error("result with duplicated result frames differs from Workers=1")
	}
	// Every chunk was sent twice; the duplicate of the final chunk may
	// arrive after the campaign completed and the coordinator exited.
	if min := faultsim.NumChunks(c.Trials) - 1; out.stats.Duplicates < min {
		t.Errorf("Duplicates = %d, want >= %d (every chunk sent twice)", out.stats.Duplicates, min)
	}
}

func TestFabricRejectsFingerprintMismatch(t *testing.T) {
	testutil.CheckGoroutines(t)
	c := testCampaign(t, 640)

	pl := NewPipeListener()
	type serveOut struct {
		stats Stats
		err   error
	}
	ch := make(chan serveOut, 1)
	go func() {
		_, stats, err := Serve(context.Background(), Config{Campaign: c, Listener: pl})
		ch <- serveOut{stats, err}
	}()

	// A worker whose campaign differs (other seed → other fingerprint)
	// must be refused permanently, not retried.
	bad := testCampaign(t, 640)
	bad.Seed = 999
	err := RunWorker(context.Background(), WorkerConfig{
		Campaign: bad, Dial: pl.Dial(), Name: "bad",
		BackoffBase: time.Millisecond, MaxReconnects: 3,
	})
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("mismatched worker err = %v, want ErrRejected", err)
	}

	// A matching worker then completes the campaign.
	if err := RunWorker(context.Background(), WorkerConfig{
		Campaign: c, Dial: pl.Dial(), Name: "good",
		HeartbeatEvery: 25 * time.Millisecond, BackoffBase: time.Millisecond, MaxReconnects: 50,
	}); err != nil {
		t.Fatalf("good worker: %v", err)
	}
	out := <-ch
	if out.err != nil {
		t.Fatal(out.err)
	}
	if out.stats.Rejected != 1 {
		t.Errorf("Rejected = %d, want 1", out.stats.Rejected)
	}
}

func TestFabricRejectsProtoMismatch(t *testing.T) {
	testutil.CheckGoroutines(t)
	c := testCampaign(t, 640)
	pl := NewPipeListener()
	sctx, scancel := context.WithCancel(context.Background())
	ch := make(chan error, 1)
	go func() {
		_, _, err := Serve(sctx, Config{Campaign: c, Listener: pl})
		ch <- err
	}()
	// v2 sends map-keyed chunk bodies; v3 relays worker-built span
	// records instead of result-frame phase times.
	for _, proto := range []int{2, 3, Proto + 1} {
		conn, err := pl.Dial()(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if err := conn.Send(&Frame{Type: TypeHello, Proto: proto, Fingerprint: c.Fingerprint()}); err != nil {
			t.Fatal(err)
		}
		f, err := conn.Recv()
		conn.Close()
		if err != nil {
			t.Fatalf("proto %d: recv: %v", proto, err)
		}
		if f.Type != TypeReject {
			t.Fatalf("proto %d: frame = %q, want reject", proto, f.Type)
		}
	}
	scancel()
	if err := <-ch; !errors.Is(err, context.Canceled) {
		t.Fatalf("Serve err = %v, want context.Canceled", err)
	}
}

// TestFabricOverTCP runs whole campaigns over loopback TCP, the transport
// whose frames go through the codec, on a generated 36-process scenario:
// with flag-configured and flagless workers (the latter configure from
// the shipped spec), each with the telemetry relay off and on (phase
// times ride every result frame; a 1 ms heartbeat makes meter snapshots
// cross too). Every merged result must equal Workers=1.
func TestFabricOverTCP(t *testing.T) {
	testutil.CheckGoroutines(t)
	c := scenarioCampaign(t, 3200)
	want := localReference(t, c)
	for _, flagless := range []bool{false, true} {
		for _, relay := range []bool{false, true} {
			t.Run(fmt.Sprintf("flagless=%t/relay=%t", flagless, relay), func(t *testing.T) {
				ln, err := ListenTCP("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				dial := DialTCP(ln.Addr())
				h := &fabricHarness{ln: ln, dial: dial, workers: 2, allJoin: true}
				h.wcfg = func(i int) WorkerConfig {
					wc := flaglessWorker(dial, i)
					if !flagless {
						wc.Campaign = c
					}
					if relay {
						wc.HeartbeatEvery = time.Millisecond
					}
					return wc
				}
				var observer *obs.Observer
				var mu sync.Mutex
				connected := map[string]int{} // relayed "connected" events by worker
				if relay {
					bus := obs.NewBus(1 << 12)
					defer bus.Close()
					bus.Attach(func(ev obs.BusEvent) {
						if ev.Kind == "fabric_worker" && ev.Attrs["state"] == "connected" && ev.Attrs["relay"] != nil {
							mu.Lock()
							connected[ev.Name]++
							mu.Unlock()
						}
					})
					observer = obs.New(obs.WithBus(bus))
					h.cfg = Config{Bus: bus, Observer: observer}
				}
				got, stats := h.run(t, c)
				if !reflect.DeepEqual(got, want) {
					t.Error("TCP result differs from Workers=1")
				}
				if stats.WorkersSeen != 2 {
					t.Errorf("WorkersSeen = %d, want 2", stats.WorkersSeen)
				}
				if relay {
					checkPhaseSpans(t, observer.RemoteSpans(), faultsim.NumChunks(c.Trials)-stats.LocalChunks)
					mu.Lock()
					for i := 0; i < h.workers; i++ {
						if name := fmt.Sprintf("w%d", i); connected[name] == 0 {
							t.Errorf("worker %s's connected event never reached the coordinator bus (relayed: %v)", name, connected)
						}
					}
					mu.Unlock()
				}
			})
		}
	}
}

// countingListener is a TCP fabric listener that counts the bytes the
// coordinator writes to its workers.
type countingListener struct {
	net.Listener
	sent *atomic.Int64
}

func (l *countingListener) Accept() (Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, ErrListenerClosed
	}
	return NewCodecConn(&countingConn{Conn: c, sent: l.sent}), nil
}

func (l *countingListener) Addr() string { return l.Listener.Addr().String() }

type countingConn struct {
	net.Conn
	sent *atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.sent.Add(int64(n))
	return n, err
}

// TestFlagConfiguredWorkersGetNoSpec counts what a coordinator writes to
// two flag-configured workers over TCP. They announce the campaign's
// fingerprint and never read a spec, so their campaign frames carry none:
// everything the coordinator sends them over the whole 3,200-trial
// campaign — welcomes, campaign frames, 50 leases, the done verdict —
// takes fewer bytes than the one encoded spec each would otherwise get.
func TestFlagConfiguredWorkersGetNoSpec(t *testing.T) {
	testutil.CheckGoroutines(t)
	c := scenarioCampaign(t, 3200)
	want := localReference(t, c)
	r, err := faultsim.NewChunkRunner(c)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := appendCampaign(nil, r.Spec())
	if err != nil {
		t.Fatal(err)
	}
	nl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var sent atomic.Int64
	h := &fabricHarness{ln: &countingListener{Listener: nl, sent: &sent},
		dial: DialTCP(nl.Addr().String()), workers: 2, allJoin: true}
	got, stats := h.run(t, c)
	if !reflect.DeepEqual(got, want) {
		t.Error("TCP result differs from Workers=1")
	}
	t.Logf("coordinator sent %d bytes to %d flag-configured workers; one spec is %d bytes",
		sent.Load(), stats.WorkersSeen, len(spec))
	if n := sent.Load(); n >= int64(len(spec)) {
		t.Errorf("coordinator sent %d bytes to flag-configured workers, not less than the %d-byte spec", n, len(spec))
	}
}

func TestFabricEarlyStopMatchesLocal(t *testing.T) {
	testutil.CheckGoroutines(t)
	c := testCampaign(t, 6400)
	c.StopHalfWidth = 0.05 // stops well before 6400 trials
	want := localReference(t, c)
	if !want.EarlyStopped {
		t.Fatal("reference run did not early-stop; widen the test")
	}
	h := &fabricHarness{workers: 4}
	got, _ := h.run(t, c)
	if !reflect.DeepEqual(got, want) {
		t.Error("early-stopped distributed result differs from Workers=1")
	}
}

func TestFabricDrainPersistsAndResumes(t *testing.T) {
	testutil.CheckGoroutines(t)
	base := testCampaign(t, 1600)
	want := localReference(t, base)

	path := filepath.Join(t.TempDir(), "fabric.ckpt")
	ck := base
	ck.CheckpointPath = path
	ck.CheckpointEvery = 64

	// Phase 1: two workers, as in the fabric-check gate, and a drain once
	// the merged frontier is on disk (see drainConn).
	sctx, drain := context.WithCancel(context.Background())
	defer drain()
	pl := NewPipeListener()
	type serveOut struct {
		stats Stats
		err   error
	}
	ch := make(chan serveOut, 1)
	go func() {
		_, stats, err := Serve(sctx, Config{Campaign: ck, Listener: pl})
		ch <- serveOut{stats, err}
	}()
	dial := func(ctx context.Context) (Conn, error) {
		conn, err := pl.Dial()(ctx)
		return drainConn{conn, path, ck.Trials, drain}, err
	}
	// Both workers are welcomed before either delivers a result, so both
	// are connected when the drain comes.
	const workers = 2
	gate := newJoinGate(workers)
	werr := make(chan error, workers)
	for i := 0; i < workers; i++ {
		go func(i int) {
			werr <- RunWorker(context.Background(), WorkerConfig{
				Campaign: base, Dial: gate.dialer(i, dial),
				Name: fmt.Sprintf("w%d", i), HeartbeatEvery: 25 * time.Millisecond,
				BackoffBase: time.Millisecond, MaxReconnects: 5,
			})
		}(i)
	}
	out := <-ch
	if !errors.Is(out.err, context.Canceled) {
		t.Fatalf("drained Serve err = %v, want context.Canceled", out.err)
	}
	for i := 0; i < workers; i++ {
		if err := <-werr; !errors.Is(err, ErrDrained) {
			t.Fatalf("worker err = %v, want ErrDrained", err)
		}
	}

	// Phase 2: a restarted coordinator resumes from the checkpoint and
	// finishes; the final result is still bit-identical, and fewer leases
	// were granted than a fresh run needs.
	rs := ck
	rs.Resume = true
	h := &fabricHarness{workers: 2}
	got, stats := h.run(t, rs)
	if !reflect.DeepEqual(got, want) {
		t.Error("resumed fabric result differs from Workers=1")
	}
	if total := faultsim.NumChunks(base.Trials); stats.LeasesGranted >= total {
		t.Errorf("resumed run granted %d leases, want < %d (frontier was persisted)", stats.LeasesGranted, total)
	}
}

// TestFabricResumesExtendedCampaign resumes a 600-trial checkpoint as a
// 1,500-trial campaign. Its frontier, 600, lies inside grid chunk 9, so
// the coordinator must lease, audit and merge that chunk as [600,640), the
// trials not yet merged, and the result must equal a fresh run's.
func TestFabricResumesExtendedCampaign(t *testing.T) {
	testutil.CheckGoroutines(t)
	path := filepath.Join(t.TempDir(), "fabric.ckpt")
	short := testCampaign(t, 600)
	short.CheckpointPath = path
	if _, err := faultsim.Run(short); err != nil {
		t.Fatal(err)
	}

	long := testCampaign(t, 1500)
	want := localReference(t, long)
	long.CheckpointPath = path
	long.Resume = true
	h := &fabricHarness{workers: 2, cfg: Config{SpotCheck: 1}}
	got, stats := h.run(t, long)
	if !reflect.DeepEqual(got, want) {
		t.Error("extended fabric resume differs from a fresh run of the full length")
	}
	if total := faultsim.NumChunks(long.Trials); stats.LeasesGranted >= total {
		t.Errorf("resumed run granted %d leases, want < %d (the frontier was resumed)", stats.LeasesGranted, total)
	}
}

// drainConn is a worker connection of the drain scenario. A result sent
// once the first frontier checkpoint is on disk drains the coordinator
// and is withheld, so the persisted frontier is above 0. The final
// chunk's result waits for that checkpoint, so the campaign cannot
// complete first, even while a slow worker holds chunk 0 (which is also
// why counting result events does not do: the frontier stays at 0).
type drainConn struct {
	Conn
	path   string
	trials int
	drain  func()
}

func (c drainConn) Send(f *Frame) error {
	if f.Type != TypeResult {
		return c.Conn.Send(f)
	}
	for wait := 0; ; wait++ {
		if _, err := os.Stat(c.path); err == nil {
			c.drain()
			return nil
		}
		if f.End != c.trials || wait == 10_000 {
			return c.Conn.Send(f)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestWorkerBackoffGivesUpAndHonoursContext(t *testing.T) {
	testutil.CheckGoroutines(t)
	c := testCampaign(t, 640)
	failDial := func(ctx context.Context) (Conn, error) {
		return nil, errors.New("connection refused")
	}
	err := RunWorker(context.Background(), WorkerConfig{
		Campaign: c, Dial: failDial,
		BackoffBase: time.Millisecond, BackoffMax: 4 * time.Millisecond, MaxReconnects: 3,
	})
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}

	// Cancellation must cut a long backoff short.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- RunWorker(ctx, WorkerConfig{
			Campaign: c, Dial: failDial,
			BackoffBase: time.Minute, BackoffMax: time.Minute, MaxReconnects: 100,
		})
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("worker did not honour context cancellation during backoff")
	}
}

// TestWorkerTerminalFrames scripts a coordinator that sends one verdict
// frame — before or after the welcome — and closes the connection at
// once. The worker's reader hands over the frame and then the read error,
// in either order relative to the session's select, so every round must
// end on the verdict: RunWorker returns it and never redials.
func TestWorkerTerminalFrames(t *testing.T) {
	testutil.CheckGoroutines(t)
	verdicts := []struct {
		frame string
		want  error
	}{
		{TypeDone, nil},
		{TypeDrain, ErrDrained},
		{TypeReject, ErrRejected},
	}
	for _, welcomed := range []bool{false, true} {
		for _, v := range verdicts {
			t.Run(fmt.Sprintf("%s/welcomed=%v", v.frame, welcomed), func(t *testing.T) {
				for round := 0; round < 25; round++ {
					pl := NewPipeListener()
					script := make(chan error, 1)
					go func() {
						c, err := pl.Accept()
						if err != nil {
							script <- err
							return
						}
						defer c.Close()
						if f, err := c.Recv(); err != nil || f.Type != TypeHello {
							script <- fmt.Errorf("first frame %v, %v; want hello", f, err)
							return
						}
						if welcomed {
							_ = c.Send(&Frame{Type: TypeWelcome})
						}
						script <- c.Send(&Frame{Type: v.frame, Reason: "scripted"})
					}()
					err := RunWorker(context.Background(), WorkerConfig{
						Dial: pl.Dial(), HandshakeTimeout: time.Second,
						BackoffBase: time.Millisecond, MaxReconnects: 1,
					})
					if serr := <-script; serr != nil {
						t.Fatalf("round %d: script: %v", round, serr)
					}
					if (v.want == nil && err != nil) || !errors.Is(err, v.want) {
						t.Fatalf("round %d: RunWorker = %v, want %v", round, err, v.want)
					}
					pl.Close()
					if c, err := pl.Accept(); err == nil {
						c.Close()
						t.Fatalf("round %d: worker redialled after %s", round, v.frame)
					}
				}
			})
		}
	}
}

func TestCodecRoundTripAndLimits(t *testing.T) {
	testutil.CheckGoroutines(t)
	// The pipe transport skips the codec; exercise it over TCP loopback.
	ln, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan Conn, 2)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepted <- c
		}
	}()
	conn, err := DialTCP(ln.Addr())(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	srv := <-accepted
	defer srv.Close()

	in := &Frame{Type: TypeLease, Lease: 42, Begin: 128, End: 192}
	if err := conn.Send(in); err != nil {
		t.Fatal(err)
	}
	got, err := srv.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, in) {
		t.Errorf("round-trip mismatch: %+v != %+v", got, in)
	}

	// Frames of every type and size in a row over one connection, whose
	// send and receive buffers are reused from frame to frame: each
	// arrives as json.Unmarshal reads json.Marshal's bytes.
	for _, in := range codecFrames(t, scenarioCampaign(t, 640)) {
		if err := conn.Send(in); err != nil {
			t.Fatal(err)
		}
		got, err := srv.Recv()
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		var want Frame
		if err := json.Unmarshal(b, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, &want) {
			t.Errorf("%s frame round-trip mismatch: %+v != %+v", in.Type, got, &want)
		}
	}

	// A hostile length prefix is refused before any allocation happens.
	raw, err := net.Dial("tcp", ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	srv2 := <-accepted
	defer srv2.Close()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], maxFrameSize+1)
	if _, err := raw.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := srv2.Recv(); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("hostile prefix Recv err = %v, want ErrFrameTooLarge", err)
	}
}
