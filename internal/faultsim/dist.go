package faultsim

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/stage"
)

// This file is the distributed execution surface of the campaign engine:
// the pieces a remote coordinator/worker fabric needs to shard a campaign
// across processes or machines while staying bit-identical to Run.
//
// The contract rests on two properties Run already has. First, every trial
// draws from its own PCG substream derived from (Seed, trial index), so a
// chunk's outcome is a pure function of the campaign configuration and the
// chunk bounds — it does not matter which process computes it. Second,
// chunks live on an absolute grid and merge strictly in grid order, so the
// accumulated Result (including every float addition, telemetry
// checkpoint, persistence point and early-stopping decision) is the same
// no matter how chunk computation was scheduled. A ChunkRunner computes
// chunks anywhere; a Merger folds their outputs in grid order; together
// they reproduce Run exactly.

// ChunkSize is the grain of the absolute trial grid: chunk i covers trials
// [i*ChunkSize, min((i+1)*ChunkSize, Trials)).
const ChunkSize = trialChunkSize

// NumChunks returns how many grid chunks a campaign of the given trial
// count has.
func NumChunks(trials int) int {
	return (trials + ChunkSize - 1) / ChunkSize
}

// ChunkBounds returns the trial bounds [begin, end) of grid chunk i.
func ChunkBounds(i, trials int) (begin, end int) {
	begin = i * ChunkSize
	return begin, chunkEnd(begin, trials)
}

// ChunkIndex returns the grid chunk that begins at trial begin.
func ChunkIndex(begin int) int { return begin / ChunkSize }

// Fingerprint hashes the campaign identity: everything that determines
// the deterministic trial sequence except the trial count and worker
// topology. Two processes that built their campaigns from the same
// specification fingerprint equally; the fabric's handshake compares
// these before any trials move, mirroring the checkpoint fingerprints.
func (c Campaign) Fingerprint() string { return c.fingerprint() }

// ChunkOutput is the outcome of one grid chunk, trials [Begin, End): the
// accumulator every trial writes into, and the JSON body of a fabric
// result frame. All integer counters merge exactly regardless of order;
// the order-sensitive float64 losses are kept per trial, so a merged sum's
// addition order is always the trial order, independent of chunk
// boundaries and worker count. The fabric's frame codec writes each
// float64 in its shortest round-tripping form, as encoding/json does, and
// reads it back with strconv.ParseFloat, so a Result merged from remote
// chunks is bit-identical to a local run.
//
// The per-node and per-edge counters are dense: Affected is indexed by
// node id (position in the sorted Graph.Nodes()), EdgeTrials and
// Transmissions by live-edge id (position among the non-replica,
// positive-weight edges of Graph.Edges()). The Merger rejects a chunk
// whose slices do not have the campaign's lengths. An empty slice is
// elided on the wire and decodes as nil.
type ChunkOutput struct {
	Begin              int       `json:"begin"`
	End                int       `json:"end"`
	TotalAffected      int       `json:"total_affected"`
	CrossTransmissions int       `json:"cross_transmissions"`
	TrialsWithEscape   int       `json:"trials_with_escape"`
	CommFaultTrials    int       `json:"comm_fault_trials"`
	CriticalAffected   int       `json:"critical_affected"`
	InitialFaults      int       `json:"initial_faults"`
	TransientFaults    int       `json:"transient_faults"`
	CritPerTrial       []float64 `json:"crit_per_trial"`
	EscPerTrial        []float64 `json:"esc_per_trial"`
	Affected           []int     `json:"affected,omitempty"`
	EdgeTrials         []int     `json:"edge_trials,omitempty"`
	Transmissions      []int     `json:"transmissions,omitempty"`
}

// ChunkRunner computes grid chunks of one campaign — the worker side of a
// distributed run. It holds the campaign's flat form and the immutable
// trial environment built from it, validated once; Run then executes any
// chunk on its own substreams. Between calls it keeps its trial workers
// and the outputs handed back by Release, so a chunk in steady state
// allocates nothing. A ChunkRunner is safe for concurrent Run calls.
type ChunkRunner struct {
	env *campaignEnv

	mu sync.Mutex
	// idle holds the trial workers no Run is using; there are never more
	// than the most Run calls that overlapped. spare holds released
	// outputs, at most maxSpareChunks.
	idle  []*trialWorker
	spare []*ChunkOutput
}

// maxSpareChunks bounds the released outputs a runner keeps. A fabric
// worker computes one chunk at a time and hands each back once it is
// sent, so a few cover it; outputs released beyond that are left to the
// collector.
const maxSpareChunks = 4

// NewChunkRunner flattens and validates c and builds the runner. Only the
// fields that determine the trial sequence matter; telemetry,
// checkpointing and worker-pool fields are ignored.
func NewChunkRunner(c Campaign) (*ChunkRunner, error) {
	env, err := newCampaignEnv(flatten(&c), c.model())
	if err != nil {
		return nil, err
	}
	return &ChunkRunner{env: env}, nil
}

// Trials returns the campaign's configured trial count.
func (r *ChunkRunner) Trials() int { return r.env.spec.Trials }

// Fingerprint returns the campaign fingerprint, as Campaign.Fingerprint
// gives it for the campaign the runner was built from.
func (r *ChunkRunner) Fingerprint() string { return r.env.fingerprint() }

// Spec returns the campaign's flat form, the spec a coordinator ships to
// workers. It is shared with the runner and must not be modified.
func (r *ChunkRunner) Spec() *WireCampaign { return r.env.spec }

// Run executes trials [begin, end), which must be exactly one grid chunk.
// The context is polled at every trial boundary; a cancelled chunk is
// all-or-nothing. The output belongs to the caller, who may hand it back
// with Release once nothing references it.
func (r *ChunkRunner) Run(ctx context.Context, begin, end int) (*ChunkOutput, error) {
	trials := r.Trials()
	if begin < 0 || begin%ChunkSize != 0 || end != chunkEnd(begin, trials) || begin >= trials {
		return nil, stage.Wrap("inject", "chunk", "", fmt.Errorf(
			"faultsim: chunk [%d,%d) is not on the %d-trial grid of %d trials",
			begin, end, ChunkSize, trials))
	}
	w, ch := r.take()
	r.env.resetChunk(ch, begin, end)
	err := w.runChunk(ctx, ch)
	r.mu.Lock()
	r.idle = append(r.idle, w)
	r.mu.Unlock()
	if err != nil {
		r.Release(ch)
		return nil, err
	}
	return ch, nil
}

// take returns an idle trial worker and a spare output, building
// whichever the runner has none of.
func (r *ChunkRunner) take() (*trialWorker, *ChunkOutput) {
	var w *trialWorker
	var ch *ChunkOutput
	r.mu.Lock()
	if n := len(r.idle); n > 0 {
		w, r.idle = r.idle[n-1], r.idle[:n-1]
	}
	if n := len(r.spare); n > 0 {
		ch, r.spare = r.spare[n-1], r.spare[:n-1]
	}
	r.mu.Unlock()
	if w == nil {
		w = r.env.newWorker()
	}
	if ch == nil {
		ch = new(ChunkOutput)
	}
	return w, ch
}

// Release hands back an output the caller no longer references, neither
// it nor its slices, so that a later Run fills its storage instead of
// allocating. Handing outputs back is optional, and nil is ignored.
func (r *ChunkRunner) Release(ch *ChunkOutput) {
	if ch == nil {
		return
	}
	r.mu.Lock()
	if len(r.spare) < maxSpareChunks {
		r.spare = append(r.spare, ch)
	}
	r.mu.Unlock()
}

// Merger folds chunk outputs into a campaign Result, strictly in grid
// order — the coordinator side of a distributed run, built on the same
// ordered merge as Run's worker pool. It owns the partial Result, the
// completed-trial frontier, the chunks held ahead of it, telemetry
// checkpoints, crash-safe persistence (Campaign.CheckpointPath, resumable
// across coordinator restarts via the v2 checkpoint format) and
// Wilson-interval early stopping. Callers may absorb chunks in any order.
type Merger struct {
	run *campaignRun
}

// NewMerger validates c, restores a checkpoint when c.Resume is set, and
// publishes the "campaign_start" event. workersHint is recorded in that
// event (a distributed fabric may pass 0 for "unknown/dynamic").
func NewMerger(c Campaign, workersHint int) (*Merger, error) {
	run, _, err := newCampaignRun(&c, workersHint)
	if err != nil {
		return nil, err
	}
	return &Merger{run: run}, nil
}

// Runner returns a ChunkRunner that shares the merger's trial
// environment, so a coordinator that also computes chunks itself — the
// local fallback, spot checks — builds the campaign once.
func (m *Merger) Runner() *ChunkRunner { return &ChunkRunner{env: m.run.env} }

// OnRelease has the merger hand each chunk to release once it is merged,
// or dropped by an early stop; release then owns the chunk. A coordinator
// decodes later results into these chunks. Without a release, absorbed
// chunks stay the caller's.
func (m *Merger) OnRelease(release func(*ChunkOutput)) { m.run.release = release }

// Frontier returns the completed-trial frontier: every trial below it has
// been merged. A fresh merger starts at 0; a resumed one at the
// checkpoint's frontier.
func (m *Merger) Frontier() int { return m.run.done }

// Trials returns the campaign's configured trial count.
func (m *Merger) Trials() int { return m.run.c.Trials }

// Done reports whether the campaign is complete: the frontier reached the
// trial count, or early stopping ended it.
func (m *Merger) Done() bool { return m.run.ended() }

// Has reports whether grid chunk seq is already merged or held — the
// test a coordinator uses to suppress duplicate results and to skip
// requeued chunks that someone else delivered.
func (m *Merger) Has(seq int) bool { return m.run.has(seq) }

// CheckShape reports, as a stage-wrapped error, a chunk whose per-trial
// or counter slices do not have the campaign's lengths — a malformed
// chunk Absorb would reject. A coordinator uses it to drop such a chunk
// from the wire without failing the campaign.
func (m *Merger) CheckShape(co *ChunkOutput) error { return m.run.checkShape(co) }

// Absorb takes one grid chunk at or beyond the frontier. A chunk ahead of
// the frontier is held; one at the frontier is merged together with every
// contiguous held chunk, in grid order. A chunk behind the frontier,
// already held, off the grid, misshapen (see CheckShape) or absorbed after
// Done is an error. stop reports that early stopping ended the
// campaign in this call; the held chunks beyond the stopping frontier are
// dropped, as Run does.
func (m *Merger) Absorb(co *ChunkOutput) (stop bool, err error) {
	return m.run.absorb(co)
}

// Abort persists the frontier checkpoint (when configured) and returns
// the campaign's cancellation error wrapping cause — the graceful-drain
// exit of a coordinator.
func (m *Merger) Abort(cause error) error { return m.run.cancelled(cause) }

// Finish publishes the terminal telemetry and returns the merged Result.
// Call once, after Done reports true.
func (m *Merger) Finish() Result { return m.run.finish() }
