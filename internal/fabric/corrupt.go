package fabric

import (
	"context"
	"math/rand/v2"
	"sync"

	"repro/internal/faultsim"
)

// CorruptDialer wraps a worker's dialer so a seeded fraction of its
// outbound result frames carry silently corrupted chunk bytes — a lying
// worker. Where ChaosDialer models a hostile *network* (loss modes the
// lease machinery absorbs), CorruptDialer models a hostile *peer*: the
// frames are well-formed, timely and in-protocol, only the payload is
// wrong. Nothing below the coordinator's spot-check defence can catch
// it, which is exactly what the quarantine certification needs to prove.
// Test/certification-only, like the chaos wrappers.
func CorruptDialer(inner Dialer, seed uint64, rate float64) Dialer {
	var mu sync.Mutex
	var n uint64
	return func(ctx context.Context) (Conn, error) {
		c, err := inner(ctx)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		n++
		streamSeed := seed + 2*n + 1
		mu.Unlock()
		return &corruptConn{
			Conn: c,
			rate: rate,
			rng:  rand.New(rand.NewPCG(streamSeed, streamSeed^0x9e3779b97f4a7c15)),
		}, nil
	}
}

type corruptConn struct {
	Conn
	rate float64

	mu  sync.Mutex
	rng *rand.Rand
}

func (c *corruptConn) Send(f *Frame) error {
	if f.Type != TypeResult || f.Chunk == nil {
		return c.Conn.Send(f)
	}
	c.mu.Lock()
	lie := c.rng.Float64() < c.rate
	var pick int
	if lie {
		pick = c.rng.IntN(3)
	}
	c.mu.Unlock()
	if !lie {
		return c.Conn.Send(f)
	}
	// Deep-copy before mutating: on the in-process pipe transport the
	// coordinator would otherwise see the same memory, and a shared-slice
	// write would be a data race rather than a protocol-level lie.
	g := *f
	g.Chunk = corruptChunk(f.Chunk, pick)
	return c.Conn.Send(&g)
}

// corruptChunk clones ch and perturbs one field — small, plausible
// mutations that keep the chunk well-formed so only byte comparison
// against a local re-evaluation can expose them.
func corruptChunk(ch *faultsim.ChunkOutput, pick int) *faultsim.ChunkOutput {
	out := cloneChunk(ch)
	switch pick {
	case 0:
		out.TotalAffected++
	case 1:
		out.TrialsWithEscape = max(0, out.TrialsWithEscape-1)
	default:
		if len(out.CritPerTrial) > 0 {
			out.CritPerTrial[0]++
		} else {
			out.CriticalAffected++
		}
	}
	return out
}
