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
// chunks anywhere; a Merger folds their outputs in grid order. Run itself
// is built from the two — a Merger fed by its own ChunkRunner — so a
// campaign sharded across processes goes through the same code as a local
// one.

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
// distributed run, and the chunk source of a local one. It holds the
// campaign's flat form and the immutable trial environment built from
// it, validated once; Run then executes any chunk on its own substreams.
// Between calls it keeps its trial workers and the outputs handed back by
// Release, so a chunk in steady state allocates nothing. A ChunkRunner is
// safe for concurrent Run calls.
type ChunkRunner struct {
	env *campaignEnv

	mu sync.Mutex
	// idle holds the trial workers no Run is using; there are never more
	// than the most Run calls that overlapped. spare holds released
	// outputs, never more than made, the outputs the runner allocated.
	idle  []*trialWorker
	spare []*ChunkOutput
	made  int
}

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

// Run executes trials [begin, end), where end must be the next grid
// boundary after begin, capped at the trial count: one grid chunk, or the
// tail of one that a resumed frontier lies inside. Where a chunk may
// begin is the Merger's to check. The context is polled at every trial
// boundary; a cancelled chunk is all-or-nothing. The output belongs to
// the caller, who may hand it back with Release once nothing references
// it.
func (r *ChunkRunner) Run(ctx context.Context, begin, end int) (*ChunkOutput, error) {
	trials := r.Trials()
	if begin < 0 || begin >= trials || end != chunkEnd(begin, trials) {
		return nil, stage.Wrap("inject", "chunk", "", fmt.Errorf(
			"faultsim: chunk [%d,%d) does not end at the next boundary of the %d-trial grid of %d trials",
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
func (r *ChunkRunner) take() (w *trialWorker, ch *ChunkOutput) {
	r.mu.Lock()
	if n := len(r.idle); n > 0 {
		w, r.idle = r.idle[n-1], r.idle[:n-1]
	}
	if n := len(r.spare); n > 0 {
		ch, r.spare = r.spare[n-1], r.spare[:n-1]
	} else {
		r.made++
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
// allocating. Handing outputs back is optional, and nil is ignored. The
// runner keeps no more outputs than it has allocated; any beyond that are
// left to the collector.
func (r *ChunkRunner) Release(ch *ChunkOutput) {
	if ch == nil {
		return
	}
	r.mu.Lock()
	if len(r.spare) < r.made {
		r.spare = append(r.spare, ch)
	}
	r.mu.Unlock()
}
