package fabric

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/attrs"
	"repro/internal/faultsim"
	"repro/internal/obs"
	"repro/internal/testutil"
)

// flaglessWorker is the harness override for a worker with no campaign
// flags: it must self-configure from the shipped spec.
func flaglessWorker(dial Dialer, i int) WorkerConfig {
	return WorkerConfig{
		Dial:             dial,
		Name:             fmt.Sprintf("w%d", i),
		HeartbeatEvery:   25 * time.Millisecond,
		HandshakeTimeout: 250 * time.Millisecond,
		BackoffBase:      2 * time.Millisecond,
		BackoffMax:       50 * time.Millisecond,
		MaxReconnects:    200,
		Seed:             uint64(i),
	}
}

func TestSpotCheckedDeterministicAndDense(t *testing.T) {
	const chunks = 4096
	// Identical inputs always select identically — arrival order, worker
	// identity and wall clock are not inputs.
	for seq := 0; seq < 64; seq++ {
		if SpotChecked(42, 3, seq, 0.25) != SpotChecked(42, 3, seq, 0.25) {
			t.Fatalf("SpotChecked(42, 3, %d, 0.25) is not deterministic", seq)
		}
	}
	// Density tracks the fraction.
	for _, frac := range []float64{0.05, 0.25, 0.75} {
		hits := 0
		for seq := 0; seq < chunks; seq++ {
			if SpotChecked(1998, 1, seq, frac) {
				hits++
			}
		}
		got := float64(hits) / chunks
		if math.Abs(got-frac) > 0.05 {
			t.Errorf("frac %.2f: selected %.3f of %d chunks", frac, got, chunks)
		}
	}
	// Edge fractions.
	if SpotChecked(1, 1, 7, 0) {
		t.Error("frac 0 selected a chunk")
	}
	if !SpotChecked(1, 1, 7, 1) {
		t.Error("frac 1 skipped a chunk")
	}
	// Different seeds and epochs pick different sets.
	same := 0
	for seq := 0; seq < chunks; seq++ {
		if SpotChecked(1, 1, seq, 0.5) == SpotChecked(2, 1, seq, 0.5) {
			same++
		}
	}
	if same == chunks {
		t.Error("seed does not influence spot-check selection")
	}
}

// TestFabricLyingWorkerQuarantined is the satellite coverage for the
// quarantine defence: with 1 of 4 workers corrupting every result, the
// liar is quarantined off its first divergent chunk and the merged
// result stays bit-identical to Workers=1.
func TestFabricLyingWorkerQuarantined(t *testing.T) {
	testutil.CheckGoroutines(t)
	c := testCampaign(t, 1600)
	want := localReference(t, c)

	pl := NewPipeListener()
	h := &fabricHarness{
		ln:      pl,
		dial:    pl.Dial(),
		workers: 4,
		cfg:     Config{SpotCheck: 0.25, LeaseTTL: 2 * time.Second},
		wcfg: func(i int) WorkerConfig {
			wc := flaglessWorker(pl.Dial(), i)
			wc.Campaign = testCampaign(t, 1600)
			if i == 0 {
				wc.Name = "liar"
				wc.Dial = CorruptDialer(pl.Dial(), 7, 1) // corrupts every result
			}
			return wc
		},
		// The joinGate holds results until the liar has been welcomed,
		// so its first chunk is always audited.
		allJoin: true,
	}
	got, stats := h.run(t, c)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("result with a lying worker differs from Workers=1 (stats %+v)", stats)
	}
	if stats.Quarantined != 1 {
		t.Errorf("Quarantined = %d, want 1 (stats %+v)", stats.Quarantined, stats)
	}
}

// TestFabricAllLiarsFallsBackLocal: when the only worker lies, the
// coordinator quarantines it and finishes the campaign itself —
// graceful degradation to local execution, still bit-identical.
func TestFabricAllLiarsFallsBackLocal(t *testing.T) {
	testutil.CheckGoroutines(t)
	c := testCampaign(t, 640)
	want := localReference(t, c)

	bus := obs.NewBus(256)
	defer bus.Close()
	quarantines := make(chan obs.BusEvent, 16)
	sub := bus.Subscribe(0, 256)
	go func() {
		defer sub.Close()
		for {
			ev, ok := sub.Next(nil)
			if !ok {
				return
			}
			if ev.Kind == "fabric_quarantine" {
				select {
				case quarantines <- ev:
				default:
				}
			}
		}
	}()

	pl := NewPipeListener()
	h := &fabricHarness{
		ln:      pl,
		dial:    pl.Dial(),
		workers: 1,
		cfg:     Config{SpotCheck: 0.25, LeaseTTL: 2 * time.Second, Bus: bus},
		wcfg: func(i int) WorkerConfig {
			wc := flaglessWorker(CorruptDialer(pl.Dial(), 11, 1), i)
			wc.Name = "liar"
			return wc
		},
	}
	got, stats := h.run(t, c)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("local-fallback result differs from Workers=1 (stats %+v)", stats)
	}
	if stats.Quarantined != 1 {
		t.Errorf("Quarantined = %d, want 1", stats.Quarantined)
	}
	if stats.LocalChunks == 0 {
		t.Errorf("LocalChunks = 0, want > 0 (fallback never engaged; stats %+v)", stats)
	}
	select {
	case ev := <-quarantines:
		if ev.Name != "liar" {
			t.Errorf("fabric_quarantine names %q, want \"liar\"", ev.Name)
		}
	case <-time.After(5 * time.Second):
		t.Error("no fabric_quarantine event observed")
	}
}

// TestFabricDroppedLeasesReachIdleWorker: chunks requeued when a worker
// drops must go to a live worker that already sits idle. A silent
// hand-rolled worker holds the first two chunks; a real worker finishes
// the rest and goes idle (every chunk leased out); then the silent one
// disconnects. Nothing else ever prompts a grant to the idle worker, so
// the campaign completes only if the drop itself hands the chunks on.
func TestFabricDroppedLeasesReachIdleWorker(t *testing.T) {
	testutil.CheckGoroutines(t)
	c := testCampaign(t, 640)
	want := localReference(t, c)
	rest := faultsim.NumChunks(c.Trials) - leasesPerWorker

	bus := obs.NewBus(1024)
	defer bus.Close()
	sub := bus.Subscribe(0, 1024)
	defer sub.Close()

	pl := NewPipeListener()
	type serveOut struct {
		res   faultsim.Result
		stats Stats
		err   error
	}
	ch := make(chan serveOut, 1)
	sctx, scancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer scancel()
	go func() {
		// The TTL outlasts the test: only the drop can free the chunks.
		res, stats, err := Serve(sctx, Config{
			Campaign: c, Listener: pl, LeaseTTL: time.Minute, Bus: bus,
		})
		ch <- serveOut{res, stats, err}
	}()

	silent, err := pl.Dial()(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	if err := silent.Send(&Frame{Type: TypeHello, Proto: Proto, Fingerprint: c.Fingerprint(), Worker: "silent"}); err != nil {
		t.Fatal(err)
	}
	for leases := 0; leases < leasesPerWorker; {
		f, err := silent.Recv()
		if err != nil {
			t.Fatalf("recv: %v", err)
		}
		if f.Type == TypeLease {
			leases++
		}
	}

	wctx, wcancel := context.WithCancel(context.Background())
	var wwg sync.WaitGroup
	wwg.Add(1)
	go func() {
		defer wwg.Done()
		_ = RunWorker(wctx, flaglessWorker(pl.Dial(), 1))
	}()
	// Each result is published before the grant that follows it, in the
	// same loop step: once the last reachable result is seen, the live
	// worker has been told there is nothing left.
	for results := 0; results < rest; {
		ev, ok := sub.Next(sctx)
		if !ok {
			t.Fatalf("saw %d of %d results before the deadline", results, rest)
		}
		if ev.Kind == "fabric_lease" && ev.Attrs["state"] == "result" {
			results++
		}
	}
	silent.Close()

	out := <-ch
	wcancel()
	wwg.Wait()
	if out.err != nil {
		t.Fatalf("Serve: %v (stats %+v)", out.err, out.stats)
	}
	if !reflect.DeepEqual(out.res, want) {
		t.Error("result after a dropped worker differs from Workers=1")
	}
	if out.stats.WorkersLost != 1 || out.stats.Reassigned != leasesPerWorker {
		t.Errorf("WorkersLost = %d, Reassigned = %d, want 1 and %d", out.stats.WorkersLost, out.stats.Reassigned, leasesPerWorker)
	}
}

// TestFabricExpiryPublishesReassign: every chunk the coordinator requeues
// is announced on the bus as a fabric_lease "reassign" event, whether its
// lease expired or its worker dropped, so the live board's reassignment
// count matches Stats.Reassigned. A silent hand-rolled worker takes
// leases and never answers: they expire and are granted back to it, then
// it disconnects and a real worker finishes the campaign.
func TestFabricExpiryPublishesReassign(t *testing.T) {
	testutil.CheckGoroutines(t)
	c := testCampaign(t, 640)
	want := localReference(t, c)

	bus := obs.NewBus(1 << 12)
	defer bus.Close()
	sub := bus.Subscribe(0, 1<<12)
	defer sub.Close()

	pl := NewPipeListener()
	type serveOut struct {
		res   faultsim.Result
		stats Stats
		err   error
	}
	ch := make(chan serveOut, 1)
	sctx, scancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer scancel()
	go func() {
		res, stats, err := Serve(sctx, Config{
			Campaign: c, Listener: pl, LeaseTTL: 50 * time.Millisecond, Bus: bus,
		})
		ch <- serveOut{res, stats, err}
	}()

	silent, err := pl.Dial()(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	if err := silent.Send(&Frame{Type: TypeHello, Proto: Proto, Fingerprint: c.Fingerprint(), Worker: "silent"}); err != nil {
		t.Fatal(err)
	}
	// The first leasesPerWorker grants expire unanswered and come back as the
	// next leasesPerWorker grants.
	for leases := 0; leases < 2*leasesPerWorker; {
		f, err := silent.Recv()
		if err != nil {
			t.Fatalf("recv: %v", err)
		}
		if f.Type == TypeLease {
			leases++
		}
	}
	silent.Close()

	wctx, wcancel := context.WithCancel(context.Background())
	var wwg sync.WaitGroup
	wwg.Add(1)
	go func() {
		defer wwg.Done()
		_ = RunWorker(wctx, flaglessWorker(pl.Dial(), 1))
	}()
	out := <-ch
	wcancel()
	wwg.Wait()
	if out.err != nil {
		t.Fatalf("Serve: %v (stats %+v)", out.err, out.stats)
	}
	if !reflect.DeepEqual(out.res, want) {
		t.Error("result after expiries differs from Workers=1")
	}
	if out.stats.LeasesExpired < leasesPerWorker {
		t.Fatalf("LeasesExpired = %d, want at least %d (stats %+v)", out.stats.LeasesExpired, leasesPerWorker, out.stats)
	}
	reassigns := 0
	for {
		ev, ok := sub.TryNext()
		if !ok {
			break
		}
		if ev.Kind == "fabric_lease" && ev.Attrs["state"] == "reassign" {
			reassigns++
		}
	}
	if sub.Dropped() != 0 {
		t.Fatalf("subscriber dropped %d events; the count would be short", sub.Dropped())
	}
	if reassigns != out.stats.Reassigned {
		t.Errorf("%d reassign events on the bus, Stats.Reassigned = %d", reassigns, out.stats.Reassigned)
	}
}

// TestFabricFlaglessWorkersSelfConfigure: workers launched with no
// campaign at all adopt the shipped spec (after verifying it against its
// claimed fingerprint) and the result stays bit-identical.
func TestFabricFlaglessWorkersSelfConfigure(t *testing.T) {
	testutil.CheckGoroutines(t)
	c := testCampaign(t, 1600)
	want := localReference(t, c)

	pl := NewPipeListener()
	h := &fabricHarness{
		ln:      pl,
		dial:    pl.Dial(),
		workers: 4,
		wcfg:    func(i int) WorkerConfig { return flaglessWorker(pl.Dial(), i) },
		allJoin: true,
	}
	got, stats := h.run(t, c)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flagless-worker result differs from Workers=1 (stats %+v)", stats)
	}
	if stats.WorkersSeen != 4 {
		t.Errorf("WorkersSeen = %d, want 4", stats.WorkersSeen)
	}
}

// TestFabricFlaglessNegativeZero: the spec's omitempty drops a −0 float,
// so a flagless worker decodes +0 where the campaign holds −0. The spec
// must carry +0 from the start, or the worker fingerprints a different
// campaign than the coordinator and refuses it. Here an edge weight, a
// criticality and the comm-fault fraction are −0, every frame crosses the
// frame codec, and the workers must join and compute the same result as
// faultsim.Run.
func TestFabricFlaglessNegativeZero(t *testing.T) {
	testutil.CheckGoroutines(t)
	negZero := math.Copysign(0, -1)
	c := testCampaign(t, 640)
	c.CommFaultFraction = negZero
	if err := c.Graph.AddNode("e", attrs.New(map[attrs.Kind]float64{attrs.Criticality: negZero})); err != nil {
		t.Fatal(err)
	}
	c.HWOf["e"] = "h2"
	for _, e := range [][2]string{{"a", "d"}, {"e", "b"}} {
		if err := c.Graph.SetEdge(e[0], e[1], negZero); err != nil {
			t.Fatal(err)
		}
	}
	want := localReference(t, c)

	pl := NewPipeListener()
	h := &fabricHarness{
		ln:      pl,
		dial:    pl.Dial(),
		workers: 2,
		wcfg:    func(i int) WorkerConfig { return flaglessWorker(codecDialer(pl.Dial()), i) },
	}
	got, stats := h.run(t, c)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flagless-worker result differs from faultsim.Run (stats %+v)", stats)
	}
	if stats.Rejected != 0 || stats.LocalChunks != 0 {
		t.Errorf("workers refused the campaign: %d rejected handshakes, %d chunks computed locally",
			stats.Rejected, stats.LocalChunks)
	}
}

// codecDialer wraps d so that every frame its connections send or
// receive is encoded and decoded by the frame codec, as on a socket.
func codecDialer(d Dialer) Dialer {
	return func(ctx context.Context) (Conn, error) {
		c, err := d(ctx)
		if err != nil {
			return nil, err
		}
		return codecRoundTrip{c}, nil
	}
}

type codecRoundTrip struct{ Conn }

func (c codecRoundTrip) Send(f *Frame) error {
	g, err := roundTripFrame(f)
	if err != nil {
		return err
	}
	return c.Conn.Send(g)
}

func (c codecRoundTrip) Recv() (*Frame, error) {
	f, err := c.Conn.Recv()
	if err != nil {
		return nil, err
	}
	return roundTripFrame(f)
}

// roundTripFrame returns f as the far end of a socket decodes it.
func roundTripFrame(f *Frame) (*Frame, error) {
	b, err := appendFrame(nil, f)
	if err != nil {
		return nil, err
	}
	var g Frame
	if err := decodeFrame(b, &g, nil); err != nil {
		return nil, err
	}
	return &g, nil
}

// TestFabricFlaglessUnderChaos drops/duplicates/delays frames in both
// directions with flagless workers: the campaign frame itself can be
// lost, so this exercises the need_campaign recovery path.
func TestFabricFlaglessUnderChaos(t *testing.T) {
	testutil.CheckGoroutines(t)
	c := testCampaign(t, 1600)
	want := localReference(t, c)

	pl := NewPipeListener()
	chaos := ChaosConfig{Seed: 13, Drop: 0.15, Dup: 0.15, Delay: 0.2, MaxDelay: 10 * time.Millisecond}
	h := &fabricHarness{
		ln:      ChaosListener(pl, chaos),
		dial:    pl.Dial(),
		workers: 3,
		cfg:     Config{LeaseTTL: 150 * time.Millisecond},
		wcfg: func(i int) WorkerConfig {
			return flaglessWorker(ChaosDialer(pl.Dial(), chaos), i)
		},
	}
	got, stats := h.run(t, c)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flagless chaos result differs from Workers=1 (stats %+v)", stats)
	}
}

// TestFabricAuth covers the shared-token handshake: matching tokens
// complete (bit-identical), a wrong token is terminally rejected on the
// worker side (mutual auth fails before the worker sends anything
// campaign-shaped), and a token-less worker refuses a challenging
// coordinator.
func TestFabricAuth(t *testing.T) {
	testutil.CheckGoroutines(t)
	c := testCampaign(t, 640)
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
			Campaign: c, Listener: pl, LeaseTTL: 2 * time.Second, AuthToken: "sesame",
		})
		ch <- serveOut{res, stats, err}
	}()

	// Wrong token: the coordinator's challenge MAC does not verify under
	// the worker's key — terminal ErrRejected, no redial storm.
	wc := flaglessWorker(pl.Dial(), 0)
	wc.Name = "intruder"
	wc.AuthToken = "wrong"
	if err := RunWorker(context.Background(), wc); !errors.Is(err, ErrRejected) {
		t.Errorf("wrong token: err = %v, want ErrRejected", err)
	}
	// No token at all against an authenticated coordinator.
	wc = flaglessWorker(pl.Dial(), 1)
	wc.Name = "anon"
	if err := RunWorker(context.Background(), wc); !errors.Is(err, ErrRejected) {
		t.Errorf("missing token: err = %v, want ErrRejected", err)
	}
	// Matching token: completes and stays bit-identical.
	wc = flaglessWorker(pl.Dial(), 2)
	wc.Name = "legit"
	wc.AuthToken = "sesame"
	if err := RunWorker(context.Background(), wc); err != nil {
		t.Errorf("matching token: %v", err)
	}
	out := <-ch
	if out.err != nil {
		t.Fatal(out.err)
	}
	if !reflect.DeepEqual(out.res, want) {
		t.Error("authenticated result differs from Workers=1")
	}
	if out.stats.WorkersSeen != 1 {
		t.Errorf("WorkersSeen = %d, want 1 (only the matching token)", out.stats.WorkersSeen)
	}
}

// TestFabricAuthLeaksNothingPreAuth drives the handshake raw: a dialer
// that cannot answer the challenge must see no fingerprint, no spec, no
// trials and no lease before its rejection — only the challenge itself.
func TestFabricAuthLeaksNothingPreAuth(t *testing.T) {
	testutil.CheckGoroutines(t)
	c := testCampaign(t, 640)

	pl := NewPipeListener()
	sctx, scancel := context.WithCancel(context.Background())
	ch := make(chan error, 1)
	go func() {
		_, _, err := Serve(sctx, Config{Campaign: c, Listener: pl, LeaseTTL: time.Second, AuthToken: "sesame"})
		ch <- err
	}()
	defer func() {
		scancel()
		<-ch
	}()

	conn, err := pl.Dial()(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(&Frame{Type: TypeHello, Proto: Proto, Worker: "spy", Nonce: "00"}); err != nil {
		t.Fatal(err)
	}
	var challenge *Frame
	deadline := time.After(5 * time.Second)
	recvOne := func() *Frame {
		type recvOut struct {
			f   *Frame
			err error
		}
		rc := make(chan recvOut, 1)
		go func() {
			f, err := conn.Recv()
			rc <- recvOut{f, err}
		}()
		select {
		case out := <-rc:
			if out.err != nil {
				t.Fatalf("recv: %v", out.err)
			}
			return out.f
		case <-deadline:
			t.Fatal("no frame from coordinator")
			return nil
		}
	}
	challenge = recvOne()
	if challenge.Type != TypeChallenge {
		t.Fatalf("first frame is %q, want challenge", challenge.Type)
	}
	if challenge.Fingerprint != "" || challenge.Spec != nil || challenge.Trials != 0 || challenge.Lease != 0 {
		t.Fatalf("challenge leaks campaign material: %+v", challenge)
	}
	// Answer with garbage; the rejection must also carry nothing.
	if err := conn.Send(&Frame{Type: TypeAuth, MAC: "deadbeef"}); err != nil {
		t.Fatal(err)
	}
	verdict := recvOne()
	if verdict.Type != TypeReject {
		t.Fatalf("frame after bad auth is %q, want reject", verdict.Type)
	}
	if verdict.Fingerprint != "" || verdict.Spec != nil {
		t.Fatalf("reject leaks campaign material: %+v", verdict)
	}
	if !strings.Contains(verdict.Reason, "authentication") {
		t.Errorf("reject reason %q does not mention authentication", verdict.Reason)
	}
}

// TestFabricOverTLS runs a full campaign over mutual TLS plus the token
// handshake — the trust-domain-crossing configuration end to end.
func TestFabricOverTLS(t *testing.T) {
	testutil.CheckGoroutines(t)
	certs, err := WriteEphemeralCerts(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := testCampaign(t, 640)
	want := localReference(t, c)

	ln, err := ListenTLS("127.0.0.1:0", certs.ServerCertFile, certs.ServerKeyFile, certs.CAFile)
	if err != nil {
		t.Fatal(err)
	}
	dial, err := DialTLS(ln.Addr(), certs.ClientCertFile, certs.ClientKeyFile, certs.CAFile)
	if err != nil {
		t.Fatal(err)
	}
	h := &fabricHarness{
		ln:      ln,
		dial:    dial,
		workers: 2,
		allJoin: true,
		cfg:     Config{LeaseTTL: 2 * time.Second, AuthToken: "sesame"},
		wcfg: func(i int) WorkerConfig {
			wc := flaglessWorker(dial, i)
			wc.AuthToken = "sesame"
			return wc
		},
	}
	got, stats := h.run(t, c)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("TLS result differs from Workers=1 (stats %+v)", stats)
	}
	if stats.WorkersSeen != 2 {
		t.Errorf("WorkersSeen = %d, want 2", stats.WorkersSeen)
	}
}

// TestFabricServeSearchMatchesLocal is the fabric-sharded adversarial
// search contract: ServeSearch over 1 and 4 flagless workers returns a
// SearchResult reflect.DeepEqual-identical to the local Search.
func TestFabricServeSearchMatchesLocal(t *testing.T) {
	testutil.CheckGoroutines(t)
	g, hw := testGraph(t)
	scfg := faultsim.SearchConfig{
		Graph:             g,
		HWOf:              hw,
		Trials:            320,
		Seed:              1998,
		MaxEvals:          6,
		CriticalThreshold: 10,
	}
	want, err := faultsim.Search(scfg)
	if err != nil {
		t.Fatal(err)
	}

	for _, n := range []int{1, 4} {
		pl := NewPipeListener()
		type searchOut struct {
			res   faultsim.SearchResult
			stats Stats
			err   error
		}
		ch := make(chan searchOut, 1)
		go func() {
			res, stats, err := ServeSearch(context.Background(), Config{
				Listener: pl, LeaseTTL: 2 * time.Second, SpotCheck: 0.2, Label: "search",
			}, scfg)
			ch <- searchOut{res, stats, err}
		}()
		// Every worker must join before the first result lands, or one
		// fast worker can finish the search alone.
		gate := newJoinGate(n)
		wctx, wcancel := context.WithCancel(context.Background())
		var wwg sync.WaitGroup
		for i := 0; i < n; i++ {
			wwg.Add(1)
			go func(i int) {
				defer wwg.Done()
				_ = RunWorker(wctx, flaglessWorker(gate.dialer(i, pl.Dial()), i))
			}(i)
		}
		out := <-ch
		wcancel()
		wwg.Wait()
		if out.err != nil {
			t.Fatalf("%d workers: ServeSearch: %v", n, out.err)
		}
		if !reflect.DeepEqual(out.res, want) {
			t.Errorf("%d workers: fabric-sharded search differs from local Search", n)
		}
		if out.stats.WorkersSeen != n {
			t.Errorf("%d workers: WorkersSeen = %d", n, out.stats.WorkersSeen)
		}
	}
}

// TestFabricRelayDeterminism certifies the federation contract: turning
// the telemetry relay on (bus + observer, including a subscriber that
// never drains) must not perturb the merged result by a single bit at
// any worker count, while actually relaying every chunk's phase spans.
func TestFabricRelayDeterminism(t *testing.T) {
	testutil.CheckGoroutines(t)
	c := testCampaign(t, 1600)
	want := localReference(t, c)
	for _, n := range []int{1, 4} {
		bus := obs.NewBus(64)
		observer := obs.New(obs.WithBus(bus))
		// A jammed subscriber: tiny ring, never drained. Backpressure must
		// land on the subscriber's drop counter, never on the protocol.
		stuck := bus.Subscribe(0, 4)
		h := &fabricHarness{workers: n, cfg: Config{Bus: bus, Observer: observer}}
		got, stats := h.run(t, c)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%d workers: relay-on result differs from Workers=1", n)
		}
		if stats.Duplicates != 0 || stats.LeasesExpired != 0 {
			t.Errorf("%d workers: unexpected churn with relay on: %+v", n, stats)
		}
		spans := observer.RemoteSpans()
		if wantSpans := 3 * faultsim.NumChunks(c.Trials); len(spans) != wantSpans {
			t.Errorf("%d workers: %d remote spans relayed, want %d (3 per chunk)", n, len(spans), wantSpans)
		}
		for _, rs := range spans {
			if rs.Worker == "" || rs.Parent == 0 || rs.ID == 0 || rs.DurUS < 0 {
				t.Fatalf("%d workers: malformed remote span %+v", n, rs)
			}
		}
		stuck.Close()
		bus.Close()
	}
}

// TestFabricRelayUnderChaos runs the relay over a dropping, duplicating,
// delaying transport with real lease expiries: the merge must stay
// bit-identical, and every chunk merged from a worker result must carry
// exactly one set of phase spans — a lost result frame takes its phase
// times with it, and a duplicate is suppressed before any span is built.
func TestFabricRelayUnderChaos(t *testing.T) {
	testutil.CheckGoroutines(t)
	c := testCampaign(t, 1600)
	want := localReference(t, c)
	chaos := ChaosConfig{Seed: 7, Drop: 0.05, Dup: 0.08, Delay: 0.15, MaxDelay: 10 * time.Millisecond}
	pl := NewPipeListener()
	bus := obs.NewBus(1 << 12)
	defer bus.Close()
	observer := obs.New(obs.WithBus(bus))
	h := &fabricHarness{
		ln:      ChaosListener(pl, chaos),
		dial:    ChaosDialer(pl.Dial(), chaos),
		workers: 3,
		cfg:     Config{Bus: bus, Observer: observer, LeaseTTL: 150 * time.Millisecond},
	}
	got, stats := h.run(t, c)
	if !reflect.DeepEqual(got, want) {
		t.Error("chaos + relay: merged result differs from Workers=1")
	}
	checkPhaseSpans(t, observer.RemoteSpans(), faultsim.NumChunks(c.Trials)-stats.LocalChunks)
}

// checkPhaseSpans asserts that spans trace exactly wantChunks chunks, each
// with one decode, one evaluate and one encode span under the same lease,
// with the lease-derived span ids.
func checkPhaseSpans(t *testing.T, spans []obs.RemoteSpan, wantChunks int) {
	t.Helper()
	phase := map[string]uint64{"decode": 1, "evaluate": 2, "encode": 3}
	type key struct {
		chunk int
		name  string
	}
	seen := map[key]obs.RemoteSpan{}
	parent := map[int]uint64{}
	for _, rs := range spans {
		k := key{rs.Chunk, rs.Name}
		if _, dup := seen[k]; dup {
			t.Fatalf("chunk %d has two %s spans", rs.Chunk, rs.Name)
		}
		seen[k] = rs
		if p, ok := parent[rs.Chunk]; ok && p != rs.Parent {
			t.Fatalf("chunk %d spans name parents %d and %d", rs.Chunk, p, rs.Parent)
		}
		parent[rs.Chunk] = rs.Parent
		if rs.Worker == "" || rs.Parent == 0 || rs.ID != rs.Parent*4+phase[rs.Name] || rs.DurUS < 0 {
			t.Fatalf("malformed remote span %+v", rs)
		}
	}
	for chunk := range parent {
		for name := range phase {
			if _, ok := seen[key{chunk, name}]; !ok {
				t.Fatalf("chunk %d has no %s span", chunk, name)
			}
		}
	}
	if len(parent) != wantChunks {
		t.Fatalf("%d chunks traced, want %d (one per chunk merged from a worker result)", len(parent), wantChunks)
	}
}

// TestPhaseSpansFromResultFrame pins the coordinator's span derivation
// for a fixed clock: a result's phase times become the same decode,
// evaluate and encode records workers used to build themselves (ids
// lease*4+k under the lease, start rebased by the worker's clock offset),
// and phase times out of order yield nothing.
func TestPhaseSpansFromResultFrame(t *testing.T) {
	observer := obs.New()
	co := &Coordinator{cfg: Config{Observer: observer}, label: "c"}
	w := &workerConn{name: "w1", clockSet: true, clockOff: 7}
	f := &Frame{Type: TypeResult, Lease: 5, Epoch: 2, RecvUS: 1000, StartUS: 1010, EndUS: 1040, WTS: 1045}
	co.phaseSpans(w, f, 3)
	want := []obs.RemoteSpan{
		{Worker: "w1", Name: "decode", ID: 21, Parent: 5, Epoch: 2, Chunk: 3, StartUS: 993, DurUS: 10},
		{Worker: "w1", Name: "evaluate", ID: 22, Parent: 5, Epoch: 2, Chunk: 3, StartUS: 1003, DurUS: 30},
		{Worker: "w1", Name: "encode", ID: 23, Parent: 5, Epoch: 2, Chunk: 3, StartUS: 1033, DurUS: 5},
	}
	if got := observer.RemoteSpans(); !reflect.DeepEqual(got, want) {
		t.Fatalf("phase spans:\n got %+v\nwant %+v", got, want)
	}

	for _, bad := range []Frame{
		{RecvUS: 0, StartUS: 1010, EndUS: 1040, WTS: 1045},    // no grant receipt
		{RecvUS: -5, StartUS: 1010, EndUS: 1040, WTS: 1045},   // negative receipt
		{RecvUS: 1020, StartUS: 1010, EndUS: 1040, WTS: 1045}, // receipt after start
		{RecvUS: 1000, StartUS: 1050, EndUS: 1040, WTS: 1045}, // start after end
		{RecvUS: 1000, StartUS: 1010, EndUS: 1050, WTS: 1045}, // end after send
		{RecvUS: 1000, StartUS: 1010, EndUS: 1040},            // no send time
	} {
		bad.Type, bad.Lease, bad.Epoch = TypeResult, 6, 2
		co.phaseSpans(w, &bad, 4)
	}
	if n := len(observer.RemoteSpans()); n != len(want) {
		t.Fatalf("out-of-order phase times produced %d extra spans", n-len(want))
	}
}

// TestRelayEventsKeepSortedFirstKeys: a relayed event with more than
// maxMeterKeys attributes crosses with the sorted first maxMeterKeys of
// them, every time — not with whichever subset map iteration visits
// first.
func TestRelayEventsKeepSortedFirstKeys(t *testing.T) {
	bus := obs.NewBus(64)
	defer bus.Close()
	var got [][]string
	bus.Attach(func(ev obs.BusEvent) {
		keys := make([]string, 0, len(ev.Attrs))
		for k := range ev.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		got = append(got, keys)
	})
	attrs := map[string]any{}
	var want []string
	for i := 0; i < 20; i++ {
		k := fmt.Sprintf("k%02d", i)
		attrs[k] = i
		if i < maxMeterKeys {
			want = append(want, k)
		}
	}
	want = append(want, "relay")
	co := &Coordinator{cfg: Config{Bus: bus}, label: "c"}
	w := &workerConn{name: "w1"}
	const reps = 64
	for i := 0; i < reps; i++ {
		co.relayEvents(w, []obs.BusEvent{{Kind: "fabric_worker", Name: "w1", Attrs: attrs}})
	}
	if len(got) != reps {
		t.Fatalf("%d events published, want %d", len(got), reps)
	}
	for i, keys := range got {
		if !reflect.DeepEqual(keys, want) {
			t.Fatalf("event %d relayed attributes %v, want %v", i, keys, want)
		}
	}
}

// scrambleConn rewrites the phase times of a worker's result frames so
// they are out of order, cycling through every way the order can break.
type scrambleConn struct {
	Conn
	n atomic.Int64
}

func (c *scrambleConn) Send(f *Frame) error {
	if f.Type != TypeResult || f.StartUS == 0 {
		return c.Conn.Send(f)
	}
	g := *f // copy: the in-process pipe hands the coordinator this memory
	switch c.n.Add(1) % 4 {
	case 0:
		g.RecvUS = g.StartUS + 1
	case 1:
		g.StartUS = g.EndUS + 1
	case 2:
		g.EndUS = g.WTS + 1
	default:
		g.RecvUS = -1
	}
	return c.Conn.Send(&g)
}

// TestFabricOutOfOrderPhaseTimesIgnored: a worker whose result frames
// carry phase times out of order gets no spans built from them, and its
// results still merge bit-identically — phase times never touch the
// merge.
func TestFabricOutOfOrderPhaseTimesIgnored(t *testing.T) {
	testutil.CheckGoroutines(t)
	c := testCampaign(t, 640)
	want := localReference(t, c)
	bus := obs.NewBus(1 << 12)
	defer bus.Close()
	sub := bus.Subscribe(0, 1<<12)
	defer sub.Close()
	observer := obs.New(obs.WithBus(bus))
	pl := NewPipeListener()
	inner := pl.Dial()
	h := &fabricHarness{
		ln: pl,
		dial: func(ctx context.Context) (Conn, error) {
			conn, err := inner(ctx)
			if err != nil {
				return nil, err
			}
			return &scrambleConn{Conn: conn}, nil
		},
		workers: 2,
		cfg:     Config{Bus: bus, Observer: observer},
	}
	got, stats := h.run(t, c)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("scrambled phase times changed the merged result (stats %+v)", stats)
	}
	if stats.LocalChunks != 0 {
		t.Fatalf("LocalChunks = %d, want every chunk from a worker result", stats.LocalChunks)
	}
	if n := len(observer.RemoteSpans()); n != 0 {
		t.Errorf("%d remote spans built from out-of-order phase times, want 0", n)
	}
	for {
		ev, ok := sub.TryNext()
		if !ok {
			break
		}
		if ev.Kind == "fabric_span" {
			t.Fatalf("fabric_span event published from out-of-order phase times: %+v", ev)
		}
	}
}

// TestFabricLiarChunkUntraced: the chunk a lying worker delivered is
// audited, found wrong and replaced by the coordinator's own bytes, so it
// carries no remote spans; every chunk merged from an honest result
// carries exactly one set.
func TestFabricLiarChunkUntraced(t *testing.T) {
	testutil.CheckGoroutines(t)
	c := testCampaign(t, 1600)
	want := localReference(t, c)
	observer := obs.New()
	pl := NewPipeListener()
	h := &fabricHarness{
		ln:      pl,
		dial:    pl.Dial(),
		workers: 4,
		cfg:     Config{SpotCheck: 0.25, Observer: observer},
		wcfg: func(i int) WorkerConfig {
			wc := flaglessWorker(pl.Dial(), i)
			if i == 0 {
				wc.Name = "liar"
				wc.Dial = CorruptDialer(pl.Dial(), 7, 1) // corrupts every result
			}
			return wc
		},
		// The joinGate holds results until the liar has been welcomed,
		// so its first chunk is always audited.
		allJoin: true,
	}
	got, stats := h.run(t, c)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("result with a lying worker differs from Workers=1 (stats %+v)", stats)
	}
	if stats.Quarantined != 1 {
		t.Fatalf("Quarantined = %d, want 1 (stats %+v)", stats.Quarantined, stats)
	}
	spans := observer.RemoteSpans()
	for _, rs := range spans {
		if rs.Worker == "liar" {
			t.Fatalf("quarantined liar's chunk was traced: %+v", rs)
		}
	}
	// The audited chunk merged the coordinator's substitute bytes.
	checkPhaseSpans(t, spans, faultsim.NumChunks(c.Trials)-stats.LocalChunks-stats.Quarantined)
}

// TestFabricServeSearchRelay certifies that the fabric-sharded search
// stays bit-identical to the local Search with the relay on, across the
// per-evaluation epoch rollovers, and that spans are relayed throughout.
func TestFabricServeSearchRelay(t *testing.T) {
	testutil.CheckGoroutines(t)
	g, hw := testGraph(t)
	scfg := faultsim.SearchConfig{
		Graph:             g,
		HWOf:              hw,
		Trials:            320,
		Seed:              1998,
		MaxEvals:          6,
		CriticalThreshold: 10,
	}
	want, err := faultsim.Search(scfg)
	if err != nil {
		t.Fatal(err)
	}

	bus := obs.NewBus(1 << 12)
	defer bus.Close()
	observer := obs.New(obs.WithBus(bus))
	pl := NewPipeListener()
	type searchOut struct {
		res faultsim.SearchResult
		err error
	}
	ch := make(chan searchOut, 1)
	go func() {
		res, _, err := ServeSearch(context.Background(), Config{
			Listener: pl, LeaseTTL: 2 * time.Second, Label: "search",
			Bus: bus, Observer: observer,
		}, scfg)
		ch <- searchOut{res, err}
	}()
	wctx, wcancel := context.WithCancel(context.Background())
	var wwg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wwg.Add(1)
		go func(i int) {
			defer wwg.Done()
			_ = RunWorker(wctx, flaglessWorker(pl.Dial(), i))
		}(i)
	}
	out := <-ch
	wcancel()
	wwg.Wait()
	if out.err != nil {
		t.Fatalf("ServeSearch: %v", out.err)
	}
	if !reflect.DeepEqual(out.res, want) {
		t.Error("relay-on fabric search differs from local Search")
	}
	if len(observer.RemoteSpans()) == 0 {
		t.Error("search relayed no remote spans")
	}
}
