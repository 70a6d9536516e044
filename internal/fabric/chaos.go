package fabric

import (
	"context"
	"math/rand/v2"
	"sync"
	"time"
)

// ChaosConfig parameterises a fault-injecting transport wrapper: each
// outbound frame is independently dropped, duplicated, or delayed (which
// also reorders, since delayed frames are re-sent from a timer
// goroutine). Handshake rejections are exempt so a mismatch stays
// deterministic; everything else — hello, welcome, leases, results,
// heartbeats, even done — is fair game, because the protocol must
// converge under exactly these losses.
type ChaosConfig struct {
	// Seed makes the chaos reproducible; each wrapped connection derives
	// its own substream from it.
	Seed uint64
	// Drop is the probability an outbound frame is silently discarded.
	Drop float64
	// Dup is the probability an outbound frame is sent twice.
	Dup float64
	// Delay is the probability an outbound frame is deferred by a random
	// duration up to MaxDelay before sending (reordering it past frames
	// sent meanwhile).
	Delay float64
	// MaxDelay bounds the deferral (default 20ms).
	MaxDelay time.Duration
}

// enabled reports whether the config injects any fault at all.
func (c ChaosConfig) enabled() bool { return c.Drop > 0 || c.Dup > 0 || c.Delay > 0 }

// chaosConn wraps a Conn's Send path with seeded frame chaos. Recv and
// Close pass through: wrapping both endpoints of a connection (as
// ChaosListener and ChaosDialer do for their own side) covers both
// directions.
type chaosConn struct {
	inner Conn
	cfg   ChaosConfig

	mu  sync.Mutex
	rng *rand.Rand
	wg  sync.WaitGroup
}

func newChaosConn(inner Conn, cfg ChaosConfig, streamSeed uint64) *chaosConn {
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 20 * time.Millisecond
	}
	return &chaosConn{
		inner: inner,
		cfg:   cfg,
		rng:   rand.New(rand.NewPCG(streamSeed, streamSeed^0x9e3779b97f4a7c15)),
	}
}

func (c *chaosConn) Send(f *Frame) error {
	if f.Type == TypeReject {
		return c.inner.Send(f)
	}
	c.mu.Lock()
	drop := c.rng.Float64() < c.cfg.Drop
	dup := c.rng.Float64() < c.cfg.Dup
	delay := c.rng.Float64() < c.cfg.Delay
	var wait time.Duration
	if delay {
		wait = time.Duration(c.rng.Float64() * float64(c.cfg.MaxDelay))
	}
	c.mu.Unlock()
	if drop {
		return nil
	}
	if delay {
		// The sender may reuse f's chunk once Send returns; the timer
		// sends a copy.
		f = f.detached()
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			time.Sleep(wait)
			// A delayed send racing Close loses the frame — exactly the
			// loss mode the lease machinery already absorbs.
			_ = c.inner.Send(f)
			if dup {
				_ = c.inner.Send(f)
			}
		}()
		return nil
	}
	if err := c.inner.Send(f); err != nil {
		return err
	}
	if dup {
		return c.inner.Send(f)
	}
	return nil
}

func (c *chaosConn) Recv() (*Frame, error) { return c.inner.Recv() }

func (c *chaosConn) Close() error {
	err := c.inner.Close()
	c.wg.Wait()
	return err
}

// ChaosListener wraps every accepted connection's outbound path
// (coordinator→worker frames) in seeded chaos.
func ChaosListener(inner Listener, cfg ChaosConfig) Listener {
	return &chaosListener{inner: inner, cfg: cfg}
}

type chaosListener struct {
	inner Listener
	cfg   ChaosConfig

	mu sync.Mutex
	n  uint64
}

func (l *chaosListener) Accept() (Conn, error) {
	c, err := l.inner.Accept()
	if err != nil {
		return nil, err
	}
	if !l.cfg.enabled() {
		return c, nil
	}
	l.mu.Lock()
	l.n++
	seed := l.cfg.Seed + 2*l.n
	l.mu.Unlock()
	return newChaosConn(c, l.cfg, seed), nil
}

func (l *chaosListener) Close() error { return l.inner.Close() }
func (l *chaosListener) Addr() string { return l.inner.Addr() }

// ChaosDialer wraps every dialed connection's outbound path
// (worker→coordinator frames) in seeded chaos.
func ChaosDialer(inner Dialer, cfg ChaosConfig) Dialer {
	var mu sync.Mutex
	var n uint64
	return func(ctx context.Context) (Conn, error) {
		c, err := inner(ctx)
		if err != nil {
			return nil, err
		}
		if !cfg.enabled() {
			return c, nil
		}
		mu.Lock()
		n++
		seed := cfg.Seed + 2*n + 1
		mu.Unlock()
		return newChaosConn(c, cfg, seed), nil
	}
}
