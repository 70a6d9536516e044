package fabric

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
)

// Conn moves frames between one worker and the coordinator. Send never
// reorders within a call site but the fabric assumes nothing beyond
// best-effort delivery: frames may be lost, delayed or duplicated by a
// chaos wrapper and the protocol must still converge. Close unblocks a
// pending Recv on either side.
//
// Send keeps no reference to the frame's chunk once it returns, so the
// caller may reuse it: a worker hands each result chunk back to its
// runner right after sending it. The codec transport encodes before Send
// returns; a transport that hands frames on in memory, or holds them to
// send later, passes on a copy of a frame with a chunk (Frame.detached).
// Nothing else of a frame (the frame itself, a shipped spec, lease ids,
// relayed events, a meter) is changed once sent, so transports may share
// it.
type Conn interface {
	Send(*Frame) error
	Recv() (*Frame, error)
	Close() error
}

// Listener accepts worker connections on the coordinator side.
type Listener interface {
	Accept() (Conn, error)
	Close() error
	// Addr names the listening endpoint ("127.0.0.1:7000", "pipe").
	Addr() string
}

// Dialer opens a fresh connection to the coordinator. Workers call it on
// every (re)connect attempt.
type Dialer func(ctx context.Context) (Conn, error)

// ErrListenerClosed is returned by Accept after Close.
var ErrListenerClosed = errors.New("fabric: listener closed")

// --- TCP transport -------------------------------------------------------

// tcpListener adapts a net.Listener to the fabric transport, framing each
// accepted connection with the length-prefixed JSON codec.
type tcpListener struct {
	ln net.Listener
}

// ListenTCP opens a TCP fabric listener on addr (":0" picks a free port).
func ListenTCP(addr string) (Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("fabric: listen %s: %w", addr, err)
	}
	return &tcpListener{ln: ln}, nil
}

func (l *tcpListener) Accept() (Conn, error) {
	c, err := l.ln.Accept()
	if err != nil {
		if errors.Is(err, net.ErrClosed) {
			return nil, ErrListenerClosed
		}
		return nil, err
	}
	return NewCodecConn(c), nil
}

func (l *tcpListener) Close() error { return l.ln.Close() }
func (l *tcpListener) Addr() string { return l.ln.Addr().String() }

// DialTCP returns a Dialer connecting to the coordinator at addr.
func DialTCP(addr string) Dialer {
	return func(ctx context.Context) (Conn, error) {
		var d net.Dialer
		c, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			return nil, err
		}
		return NewCodecConn(c), nil
	}
}

// --- In-process pipe transport ------------------------------------------

// PipeListener is the in-process transport for tests and the fabriccheck
// gate: Dial hands the listener one end of a buffered frame pipe. No
// bytes, no sockets — but the same Conn semantics (including close
// unblocking Recv), so chaos wrappers and the protocol state machine are
// exercised identically.
type PipeListener struct {
	mu     sync.Mutex
	queue  chan Conn
	closed bool
}

// NewPipeListener builds an in-process listener.
func NewPipeListener() *PipeListener {
	return &PipeListener{queue: make(chan Conn, 16)}
}

func (l *PipeListener) Accept() (Conn, error) {
	c, ok := <-l.queue
	if !ok {
		return nil, ErrListenerClosed
	}
	return c, nil
}

func (l *PipeListener) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.closed {
		l.closed = true
		close(l.queue)
	}
	return nil
}

func (l *PipeListener) Addr() string { return "pipe" }

// Dial returns the worker-side Dialer of this listener.
func (l *PipeListener) Dial() Dialer {
	return func(ctx context.Context) (Conn, error) {
		a, b := newPipePair()
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			return nil, fmt.Errorf("fabric: dial: %w", ErrListenerClosed)
		}
		select {
		case l.queue <- b:
			l.mu.Unlock()
			return a, nil
		default:
			l.mu.Unlock()
			return nil, fmt.Errorf("fabric: dial: accept queue full")
		}
	}
}

// pipeConn is one end of an in-process frame pipe: a buffered channel per
// direction, with per-end close signals so Close on either side unblocks
// both directions.
type pipeConn struct {
	in  <-chan *Frame
	out chan<- *Frame

	self *pipeEnd
	peer *pipeEnd
}

type pipeEnd struct {
	once sync.Once
	done chan struct{}
}

func (e *pipeEnd) close() { e.once.Do(func() { close(e.done) }) }

// pipeBuf is the per-direction frame buffer of the in-process transport;
// deep enough that a healthy exchange never blocks, shallow enough that
// backpressure is real.
const pipeBuf = 64

func newPipePair() (Conn, Conn) {
	ab := make(chan *Frame, pipeBuf)
	ba := make(chan *Frame, pipeBuf)
	ea := &pipeEnd{done: make(chan struct{})}
	eb := &pipeEnd{done: make(chan struct{})}
	a := &pipeConn{in: ba, out: ab, self: ea, peer: eb}
	b := &pipeConn{in: ab, out: ba, self: eb, peer: ea}
	return a, b
}

// Send passes on a copy of a frame with a chunk: the receiving end keeps
// what it gets, while the sender may reuse the chunk once Send returns.
func (c *pipeConn) Send(f *Frame) error {
	if f.Chunk != nil {
		f = f.detached()
	}
	select {
	case <-c.self.done:
		return io.ErrClosedPipe
	case <-c.peer.done:
		return io.ErrClosedPipe
	default:
	}
	select {
	case c.out <- f:
		return nil
	case <-c.self.done:
		return io.ErrClosedPipe
	case <-c.peer.done:
		return io.ErrClosedPipe
	}
}

func (c *pipeConn) Recv() (*Frame, error) {
	// Drain buffered frames even after a close: the protocol tolerates
	// losing them, but delivering what is already queued keeps clean
	// shutdowns (done/drain frames) reliable on the in-process path.
	select {
	case f := <-c.in:
		return f, nil
	default:
	}
	select {
	case f := <-c.in:
		return f, nil
	case <-c.self.done:
		return nil, io.EOF
	case <-c.peer.done:
		// One last drain: the peer may have sent and closed.
		select {
		case f := <-c.in:
			return f, nil
		default:
			return nil, io.EOF
		}
	}
}

func (c *pipeConn) Close() error {
	c.self.close()
	return nil
}
