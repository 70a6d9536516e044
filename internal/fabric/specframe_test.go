package fabric

import (
	"bytes"
	"context"
	"math"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/faultsim"
	"repro/internal/testutil"
)

// writeRecorder is a net.Conn that keeps a copy of its last write: one
// whole length-prefixed frame, as codecConn.Send writes each frame.
type writeRecorder struct {
	net.Conn
	last []byte
}

func (c *writeRecorder) Write(p []byte) (int, error) {
	c.last = append(c.last[:0], p...)
	return c.Conn.Write(p)
}

// specFrameLog records, for every campaign frame a coordinator writes
// that carries a spec, the bytes that went out, the bytes that frame
// encodes to without its cached spec, and the cached spec itself.
type specFrameLog struct {
	mu     sync.Mutex
	frames []specFrame
}

type specFrame struct {
	wire, want, cached []byte
}

type specLogListener struct {
	net.Listener
	log *specFrameLog
}

func (l *specLogListener) Accept() (Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, ErrListenerClosed
	}
	rec := &writeRecorder{Conn: c}
	return &specLogConn{Conn: NewCodecConn(rec), rec: rec, log: l.log}, nil
}

func (l *specLogListener) Addr() string { return l.Listener.Addr().String() }

type specLogConn struct {
	Conn
	rec *writeRecorder
	log *specFrameLog

	mu sync.Mutex // serialises Send with the read of rec.last
}

func (c *specLogConn) Send(f *Frame) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	err := c.Conn.Send(f)
	if err != nil || f.Type != TypeCampaign || f.Spec == nil {
		return err
	}
	plain := *f
	plain.specJSON = nil
	want, werr := appendFrame(nil, &plain)
	if werr != nil {
		return werr
	}
	c.log.mu.Lock()
	c.log.frames = append(c.log.frames, specFrame{
		wire: bytes.Clone(c.rec.last[4:]), want: want, cached: f.specJSON,
	})
	c.log.mu.Unlock()
	return nil
}

// dropFirstCampaign loses the first campaign frame a worker's connection
// receives, so the worker meets a lease for an epoch it has no spec for
// and asks for the campaign again (need_campaign).
type dropFirstCampaign struct {
	Conn
	dropped *atomic.Bool
}

func (c *dropFirstCampaign) Recv() (*Frame, error) {
	for {
		f, err := c.Conn.Recv()
		if err != nil || f.Type != TypeCampaign || !c.dropped.CompareAndSwap(false, true) {
			return f, err
		}
	}
}

// TestCampaignSpecEncodedOnce runs a 3-worker campaign over TCP in which
// one worker loses its campaign frame and asks again. Every campaign
// frame the coordinator writes carries the one spec encoding of the run
// and is byte for byte what the frame encodes to without it.
func TestCampaignSpecEncodedOnce(t *testing.T) {
	testutil.CheckGoroutines(t)
	const workers = 3
	c := scenarioCampaign(t, 3200)
	want := localReference(t, c)
	nl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	log := &specFrameLog{}
	dial := DialTCP(nl.Addr().String())
	var dropped atomic.Bool
	h := &fabricHarness{ln: &specLogListener{Listener: nl, log: log}, dial: dial, workers: workers, allJoin: true}
	h.wcfg = func(i int) WorkerConfig {
		wc := flaglessWorker(dial, i)
		if i == 0 {
			wc.Dial = func(ctx context.Context) (Conn, error) {
				conn, err := dial(ctx)
				if err != nil {
					return nil, err
				}
				return &dropFirstCampaign{Conn: conn, dropped: &dropped}, nil
			}
		}
		return wc
	}
	got, _ := h.run(t, c)
	if !reflect.DeepEqual(got, want) {
		t.Error("TCP result differs from Workers=1")
	}

	log.mu.Lock()
	defer log.mu.Unlock()
	if len(log.frames) < workers+1 {
		t.Fatalf("coordinator wrote %d campaign frames with a spec, want at least %d (one per worker and a re-send)", len(log.frames), workers+1)
	}
	first := log.frames[0].cached
	for i, f := range log.frames {
		if !bytes.Equal(f.wire, f.want) {
			t.Errorf("campaign frame %d on the wire differs from its encoding without a cached spec:\n got %.200s\nwant %.200s", i, f.wire, f.want)
		}
		if len(f.cached) == 0 || &f.cached[0] != &first[0] {
			t.Errorf("campaign frame %d does not carry the run's one spec encoding", i)
		}
	}
}

// TestEncodeSpec checks the once-per-epoch encoding: it is appendCampaign's
// output in a single presized allocation, and a spec that cannot be
// encoded leaves nothing cached, so each send fails as it would encoding
// the spec itself.
func TestEncodeSpec(t *testing.T) {
	r, err := faultsim.NewChunkRunner(scenarioCampaign(t, 3200))
	if err != nil {
		t.Fatal(err)
	}
	spec := r.Spec()
	want, err := appendCampaign(nil, spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := encodeSpec(spec); !bytes.Equal(got, want) {
		t.Fatalf("encodeSpec differs from appendCampaign:\n got %.200s\nwant %.200s", got, want)
	}
	if allocs := testing.AllocsPerRun(10, func() { encodeSpec(spec) }); allocs != 1 {
		t.Errorf("encodeSpec allocates %.0f times, want 1 (a presized buffer)", allocs)
	}

	bad := *spec
	bad.CriticalThreshold = math.NaN()
	cached := encodeSpec(&bad)
	if cached != nil {
		t.Fatal("encodeSpec cached bytes for a spec that cannot be encoded")
	}
	send := func(f *Frame) error { return NewCodecConn(discardConn{}).Send(f) }
	plainErr := send(&Frame{Type: TypeCampaign, Epoch: 1, Spec: &bad})
	cachedErr := send(&Frame{Type: TypeCampaign, Epoch: 1, Spec: &bad, specJSON: cached})
	if plainErr == nil || cachedErr == nil || plainErr.Error() != cachedErr.Error() {
		t.Errorf("campaign send with an unencodable spec: err %v, want %v", cachedErr, plainErr)
	}
}

// discardConn is a connection that accepts and drops every write.
type discardConn struct{}

func (discardConn) Read([]byte) (int, error)    { return 0, net.ErrClosed }
func (discardConn) Write(p []byte) (int, error) { return len(p), nil }
func (discardConn) Close() error                { return nil }
