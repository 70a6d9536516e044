// Package fabric is the distributed campaign fabric: a coordinator/worker
// protocol that shards fault-injection campaign trial ranges across
// processes or machines while keeping the merged Result bit-identical to
// a single-process run at any topology — ROADMAP item 3.
//
// The protocol is deliberately application-layer (per De Florio's
// application-layer fault-tolerance argument): leases, heartbeats,
// retry/backoff and reassignment live where the trial-frontier semantics
// live, not in the transport. The transport only has to move frames; it
// is allowed to drop, delay, duplicate or sever them (see Chaos), because
// every loss mode maps onto the lease state machine:
//
//   - a lost lease or result frame expires the lease → the chunk is
//     reassigned;
//   - a duplicated result frame names a chunk the merger already has
//     (merged or held, faultsim.Merger.Has) → suppressed;
//   - a severed connection queues the worker's leases for reassignment
//     and the worker redials with bounded exponential backoff.
//
// Determinism is inherited from faultsim's substream contract: a chunk's
// content is a pure function of (campaign, chunk bounds), so it does not
// matter which worker computes it, how often, or in what order results
// arrive — the coordinator merges strictly in grid order through
// faultsim.Merger and the Result is DeepEqual-identical to Workers=1.
// docs/fabric/protocol.md describes the frames, the lease state machine
// and the determinism argument in full.
package fabric

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/faultsim"
	"repro/internal/obs"
)

// Proto is the fabric wire-protocol version. A hello carrying any other
// version is rejected before fingerprints are even compared. v2 added
// campaign shipping (self-configuring workers), HMAC challenge-response
// authentication, per-campaign epochs and quarantine; v3 made the result
// chunk's per-node and per-edge counters dense arrays (sorted-node and
// live-edge order) instead of name-keyed maps; v4 moved relayed phase
// telemetry from worker-built span records onto the result frame's own
// phase times (RecvUS/StartUS/EndUS), from which the coordinator derives
// the spans of results it accepts. Older peers are rejected at hello.
const Proto = 4

// Frame types. The zero value of unused fields is elided on the wire.
const (
	// TypeHello is the worker's opening frame: proto version, campaign
	// fingerprint and worker name.
	TypeHello = "hello"
	// TypeWelcome accepts a hello; Trials carries the campaign's total
	// trial count as a sanity echo.
	TypeWelcome = "welcome"
	// TypeReject refuses a hello (protocol or fingerprint mismatch);
	// Reason says why. The connection closes after it.
	TypeReject = "reject"
	// TypeLease grants the worker one grid chunk [Begin, End) under lease
	// Lease; the worker must deliver its result (or keep heartbeating)
	// before the coordinator's lease TTL expires.
	TypeLease = "lease"
	// TypeResult delivers a computed chunk back under its lease.
	TypeResult = "result"
	// TypeHeartbeat renews exactly the leases listed in the frame's
	// Leases field (see Frame.Leases for why never all of them).
	TypeHeartbeat = "heartbeat"
	// TypeDrain tells the worker the coordinator is shutting down without
	// completing the campaign (graceful SIGTERM drain); the worker exits
	// with ErrDrained instead of redialling.
	TypeDrain = "drain"
	// TypeDone tells the worker the campaign completed; the worker exits
	// cleanly.
	TypeDone = "done"
	// TypeChallenge is the coordinator's authentication challenge when a
	// shared token is configured: it carries a fresh nonce the worker must
	// MAC, plus the coordinator's own MAC over the hello nonce (mutual
	// authentication). Sent instead of welcome; nothing campaign-related
	// crosses the wire until the worker's auth frame verifies.
	TypeChallenge = "challenge"
	// TypeAuth answers a challenge: MAC is HMAC-SHA256(token, nonce) over
	// the challenge nonce, and Fingerprint carries the (deferred) campaign
	// fingerprint the hello would otherwise have sent in the clear.
	TypeAuth = "auth"
	// TypeCampaign ships the full encoded campaign spec (self-configuring
	// workers): Spec is the wire campaign, Fingerprint its claimed
	// fingerprint (the worker re-derives and compares), Epoch the
	// coordinator's campaign epoch that scopes every lease and result.
	TypeCampaign = "campaign"
	// TypeNeedCampaign asks the coordinator to (re)send the campaign frame
	// — the worker saw a lease for an epoch it has no spec for (the
	// campaign frame was lost in transit).
	TypeNeedCampaign = "need_campaign"
)

// Frame is one protocol message. All frame types share the struct; the
// Type tag says which fields are meaningful.
type Frame struct {
	Type string `json:"type"`
	// Hello / Welcome / Reject.
	Proto       int    `json:"proto,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`
	Worker      string `json:"worker,omitempty"`
	Reason      string `json:"reason,omitempty"`
	Trials      int    `json:"trials,omitempty"`
	// Hello / Challenge / Auth: authentication material. Nonce is a fresh
	// random hex string from the frame's sender; MAC is HMAC-SHA256 keyed
	// by the shared token over the peer's nonce.
	Nonce string `json:"nonce,omitempty"`
	MAC   string `json:"mac,omitempty"`
	// Campaign / Lease / Result: Epoch scopes leases and results to one
	// campaign run on a long-lived coordinator (the fabric-sharded search
	// runs many campaigns over one worker set). Epochs start at 1; a
	// worker at epoch 0 is unconfigured.
	Epoch uint64 `json:"epoch,omitempty"`
	// Campaign: the full encoded spec a flagless worker configures from.
	Spec *faultsim.WireCampaign `json:"spec,omitempty"`
	// Lease / Result.
	Lease uint64                `json:"lease,omitempty"`
	Begin int                   `json:"begin,omitempty"`
	End   int                   `json:"end,omitempty"`
	Chunk *faultsim.ChunkOutput `json:"chunk,omitempty"`
	// Heartbeat / Result: the lease ids the worker currently holds. The
	// coordinator renews exactly these — a lease missing from the list
	// (its grant frame was lost in transit) is deliberately left to
	// expire, which is what reassigns it. Renewing blindly on any sign of
	// life would keep a lost grant alive forever.
	Leases []uint64 `json:"leases,omitempty"`

	// Telemetry federation (all optional; every field is elided when the
	// coordinator runs with telemetry off).
	//
	// Campaign: Trace is the coordinator-assigned run-scoped trace id.
	// Its presence is what switches a worker's relay on; the per-chunk
	// span context is the lease id itself (grant frames already carry
	// it), so child spans need no extra fields.
	Trace string `json:"trace,omitempty"`
	// Clock normalisation. Coordinator frames (campaign/lease) carry TS,
	// the coordinator clock in unix microseconds at send. A worker frame
	// (heartbeat/result) echoes the most recent TS in EchoTS, along with
	// HoldUS — the worker-measured microseconds between receiving that
	// stamp and replying — and WTS, the worker clock at reply, letting
	// the coordinator estimate the worker's clock offset from the RTT
	// midpoint (obs.EstimateOffset) and rebase relayed timestamps.
	TS     int64 `json:"ts,omitempty"`
	EchoTS int64 `json:"echo_ts,omitempty"`
	HoldUS int64 `json:"hold_us,omitempty"`
	WTS    int64 `json:"wts,omitempty"`
	// Result: the worker-clock phase times of the delivered chunk —
	// grant receipt, compute start and compute end; WTS closes the encode
	// phase. The coordinator turns them into the chunk's decode, evaluate
	// and encode spans only if it accepts the result, so each merged
	// worker chunk is traced exactly once (see Coordinator.phaseSpans).
	RecvUS  int64 `json:"recv_us,omitempty"`
	StartUS int64 `json:"start_us,omitempty"`
	EndUS   int64 `json:"end_us,omitempty"`
	// Result / Heartbeat: relayed worker bus events, bounded per frame
	// (maxFrameEvents — the coordinator truncates anything larger); Meter
	// carries a small worker metric snapshot on heartbeats. Both are
	// best-effort payload: dropped, never blocked on, and never consulted
	// by the merge.
	Events []obs.BusEvent     `json:"events,omitempty"`
	Meter  map[string]float64 `json:"meter,omitempty"`
}

// maxFrameEvents bounds the relayed events one frame may carry: a hostile
// worker cannot balloon coordinator memory past it because the
// coordinator truncates before republishing.
const maxFrameEvents = 16

// maxFrameSize bounds one frame on the wire (length prefix included
// payload only). Chunk results over sizeable graphs stay well under this;
// the bound exists so a corrupt or hostile length prefix cannot make the
// codec allocate unboundedly.
const maxFrameSize = 64 << 20

// preAuthFrameSize is the receive bound the coordinator imposes on a
// connection before it completes the handshake: hello and auth frames are
// a few hundred bytes, so an unauthenticated dialer announcing a large
// length prefix is cut off without a large allocation.
const preAuthFrameSize = 1 << 20

// ErrFrameTooLarge is returned by the codec for a frame exceeding
// maxFrameSize in either direction.
var ErrFrameTooLarge = errors.New("fabric: frame exceeds size limit")

// detached returns a copy of f, its chunk copied too, for a transport
// that hands frames on in memory or holds them past Send: the sender may
// reuse the chunk once Send returns (see Conn).
func (f *Frame) detached() *Frame {
	g := *f
	if f.Chunk != nil {
		g.Chunk = cloneChunk(f.Chunk)
	}
	return &g
}

// cloneChunk returns a copy of ch that shares no storage with it; nil and
// empty slices stay nil and empty.
func cloneChunk(ch *faultsim.ChunkOutput) *faultsim.ChunkOutput {
	out := *ch
	out.CritPerTrial = slices.Clone(ch.CritPerTrial)
	out.EscPerTrial = slices.Clone(ch.EscPerTrial)
	out.Affected = slices.Clone(ch.Affected)
	out.EdgeTrials = slices.Clone(ch.EdgeTrials)
	out.Transmissions = slices.Clone(ch.Transmissions)
	return &out
}

// recvLimiter is implemented by codec connections whose inbound frame
// size bound can be tightened (pre-handshake) and restored (post-welcome).
// The in-process pipe transport does not implement it — its frames never
// serialise, so there is nothing to bound.
type recvLimiter interface {
	SetRecvLimit(n int)
}

// chunkRecycler is implemented by codec connections. Given the chunks a
// coordinator has finished with, Recv decodes each result into one of
// them instead of allocating. Call it before the first Recv. The
// in-process pipe does not implement it: it decodes nothing, and the
// chunks it delivers are the copies it made.
type chunkRecycler interface {
	recycleChunks(spare <-chan *faultsim.ChunkOutput)
}

// codecConn frames JSON documents with a 4-byte big-endian length prefix
// over any io.ReadWriteCloser — the TCP wire format — encoded and decoded
// by the hand-written frame codec (codec.go). Sends are serialised by a
// mutex (delayed chaos frames and heartbeats may send concurrently) and
// share one buffer, so Send keeps nothing of the frame once it returns;
// Recv is single-consumer and reuses one buffer, which no decoded frame
// references.
type codecConn struct {
	rw io.ReadWriteCloser

	recvLimit atomic.Int64
	recvBuf   []byte
	// spare feeds the decoder released result chunks; nil decodes each
	// result into a fresh chunk.
	spare <-chan *faultsim.ChunkOutput

	sendMu  sync.Mutex
	sendBuf []byte // guarded by sendMu

	closed sync.Once
}

// retainedBufSize is the largest send or receive buffer a connection
// keeps between frames; a larger one (a campaign frame over a big graph)
// is dropped after use.
const retainedBufSize = 1 << 20

// NewCodecConn wraps rw in the length-prefixed JSON frame codec.
func NewCodecConn(rw io.ReadWriteCloser) Conn {
	c := &codecConn{rw: rw}
	c.recvLimit.Store(maxFrameSize)
	return c
}

// SetRecvLimit bounds the next inbound frames to n bytes. Safe to call
// concurrently with Recv; the new bound applies from the next frame.
func (c *codecConn) SetRecvLimit(n int) { c.recvLimit.Store(int64(n)) }

func (c *codecConn) recycleChunks(spare <-chan *faultsim.ChunkOutput) { c.spare = spare }

func (c *codecConn) Send(f *Frame) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	// The length prefix is reserved at the head of the buffer, so the
	// frame goes out in one write.
	buf, err := appendFrame(append(c.sendBuf[:0], 0, 0, 0, 0), f)
	if err != nil {
		return fmt.Errorf("fabric: encode %s frame: %w", f.Type, err)
	}
	if cap(buf) <= retainedBufSize {
		c.sendBuf = buf
	}
	n := len(buf) - 4
	if n > maxFrameSize {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	binary.BigEndian.PutUint32(buf, uint32(n))
	_, err = c.rw.Write(buf)
	return err
}

func (c *codecConn) Recv() (*Frame, error) {
	if c.recvBuf == nil {
		c.recvBuf = make([]byte, 512)
	}
	hdr := c.recvBuf[:4]
	if _, err := io.ReadFull(c.rw, hdr); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if int64(n) > c.recvLimit.Load() {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	payload := c.recvBuf
	if int(n) > cap(payload) {
		payload = make([]byte, n)
		if n <= retainedBufSize {
			c.recvBuf = payload
		}
	}
	payload = payload[:n]
	if _, err := io.ReadFull(c.rw, payload); err != nil {
		return nil, err
	}
	f := new(Frame)
	if err := decodeFrame(payload, f, c.spare); err != nil {
		return nil, fmt.Errorf("fabric: decode frame: %w", err)
	}
	return f, nil
}

func (c *codecConn) Close() error {
	var err error
	c.closed.Do(func() { err = c.rw.Close() })
	return err
}
