// Package faultsim provides a seeded Monte-Carlo fault-injection simulator
// over influence graphs and HW mappings. It supplies the measurement
// machinery the framework calls for: "the value of p_i3 can be determined
// by injecting faults into the target FCM" (§4.2.1), and it quantifies how
// well a mapping contains faults — the paper's own goodness criterion
// ("faults are not propagated across HW nodes", §5.3).
//
// The propagation model follows the paper's fault model (§2): faults occur
// in single FCMs or in communication between a pair of FCMs; transmission
// probabilities are independent of dynamic context; an influence edge of
// weight w transmits a fault from source to target with probability w.
//
// # Parallel execution and determinism
//
// Campaigns shard their trials across a worker pool (Campaign.Workers).
// Every trial draws from its own PCG substream derived from (Seed,
// trialIndex), so no RNG state is shared between trials and the stream a
// trial sees does not depend on which worker ran it or on where the
// previous checkpoint landed. Trials are processed in fixed chunks on an
// absolute grid and merged strictly in chunk order; the one
// order-sensitive accumulation (the float64 CriticalityLoss sum) is kept
// per-trial until merge so its addition order is always the trial order.
// The Result is therefore bit-identical for every Workers value, and
// checkpoint/resume reproduces an uninterrupted run exactly.
package faultsim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"sort"
	"sync"

	"repro/internal/graph"
	"repro/internal/ledger"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/stage"
)

// Errors returned by campaign configuration.
var (
	ErrNoTrials = errors.New("faultsim: trials must be positive")
	ErrNoNodes  = errors.New("faultsim: graph has no nodes")
)

// Campaign configures a fault-injection run.
type Campaign struct {
	// Graph is the influence graph faults propagate over (typically the
	// full replicated graph, pre-condensation).
	Graph *graph.Graph
	// HWOf maps base node names to HW node names. A node it leaves out,
	// or maps to "", shares the one unnamed host. When no node of the
	// graph has a non-empty host — HWOf nil, empty, or naming only other
	// nodes — the campaign has no HW boundary: no transmission crosses
	// one and Correlated degenerates to SingleFault. A campaign shipped
	// to fabric workers, which carries only each node's host, therefore
	// runs as it does locally.
	HWOf map[string]string
	// Trials is the number of injection trials.
	Trials int
	// Seed makes runs reproducible.
	Seed uint64
	// Workers is the number of goroutines trials are sharded across
	// (default GOMAXPROCS). The Result is bit-identical for every value:
	// each trial is seeded from its own PCG substream derived from (Seed,
	// trialIndex), and chunk results merge in a fixed order.
	Workers int
	// OccurrenceWeights optionally biases which node the initial fault is
	// injected into (default: uniform over nodes).
	OccurrenceWeights map[string]float64
	// CriticalThreshold marks nodes whose criticality attribute meets the
	// threshold as critical for loss accounting (0 = none).
	CriticalThreshold float64
	// MaxHops bounds propagation depth (0 = unbounded).
	MaxHops int
	// CommFaultFraction is the fraction of trials whose initial fault is
	// injected into a communication edge rather than an FCM, covering the
	// second half of the paper's fault model ("faults occur in single
	// FCMs, or in communication between a pair of FCMs"). A corrupted
	// communication makes the edge's target faulty directly; propagation
	// continues from there. 0 means all faults originate in FCMs. Only
	// the SingleFault and Transient models honour it.
	CommFaultFraction float64
	// Model selects how the initial fault set of each trial is drawn:
	// SingleFault (the default when nil), Correlated (common-mode — every
	// FCM on one HW node faults together), Burst(k) (k simultaneous
	// independent faults) or Transient(p) (faults recover with
	// probability 1-p before propagating onward). Every model draws from
	// the trial's private substream, so results stay bit-identical across
	// worker counts and checkpoint/resume; the model identity is part of
	// the checkpoint fingerprint.
	Model FaultModel
	// Span, when set, is the campaign's telemetry: it receives a
	// "campaign_start" event, a "campaign_checkpoint" event at every 10%
	// of the campaign with the running containment estimates and their
	// Wilson CI half-width — the convergence trail of the paper's
	// measurement loop — and a final "campaign_done" event, each also
	// streamed on the observer's bus (Span.Publish), plus one child span
	// per worker when the pool is parallel. The observer's registry counts
	// trials, transmissions and escapes as the campaign runs and tracks
	// the number of active workers in a gauge. Telemetry only ever reads
	// merged state, so the Result stays bit-identical to an unwatched run;
	// slow bus subscribers drop events, never stall trials.
	Span *obs.Span
	// Ledger, when set, receives one "campaign" provenance record with
	// the final containment estimates (trials, escape rate, criticality
	// loss) after a successful run. Nil records nothing.
	Ledger *ledger.Ledger
	// Label names this campaign in streamed events and progress surfaces
	// (default "campaign"); give concurrent campaigns distinct labels.
	Label string
	// Ctx, when non-nil, is polled at every trial boundary: a cancelled or
	// expired context aborts the campaign promptly (after persisting a
	// checkpoint when CheckpointPath is set) with an error wrapping
	// ctx.Err().
	Ctx context.Context
	// CheckpointPath, when non-empty, makes the campaign crash-safe: the
	// merged partial Result and the completed-trial frontier are persisted
	// atomically (write to a temp file, then rename) every CheckpointEvery
	// trials and on cancellation. Because every trial has its own RNG
	// substream, the frontier alone is enough to resume: a run resumed
	// from a checkpoint produces a Result bit-identical to an
	// uninterrupted run with the same configuration, for any Workers.
	CheckpointPath string
	// CheckpointEvery is the trial interval between checkpoint writes
	// (default Trials/10, minimum 1). Writes happen at chunk boundaries,
	// whenever the completed-trial frontier crosses a multiple of the
	// interval.
	CheckpointEvery int
	// Resume restores state from CheckpointPath when a checkpoint written
	// by this same campaign (graph, seed, fault model — everything except
	// the trial count and worker count) is present. A checkpoint from a
	// different campaign is ErrCheckpointMismatch; an absent file starts
	// from trial zero.
	Resume bool
	// LaxResume softens Resume against damaged files only: a checkpoint
	// that fails to decode (truncated torn write, leftover temp content —
	// ErrCheckpointCorrupt) is discarded with a "resume_discarded" span
	// event and the campaign restarts from trial zero. A checkpoint that
	// decodes but belongs to a different campaign is still rejected: lax
	// mode forgives damage, never identity mismatches.
	LaxResume bool
	// StopHalfWidth, when positive, enables confidence-interval early
	// stopping: the campaign ends once the 95% Wilson score interval for
	// the escape rate is narrower than ±StopHalfWidth (checked every
	// CheckpointEvery trials, after at least 100).
	StopHalfWidth float64
}

// Result aggregates a campaign.
type Result struct {
	Trials int
	// TotalAffected is the total number of faulty FCMs over all trials
	// (including the injected one).
	TotalAffected int
	// CrossNodeTransmissions counts fault transmissions whose source and
	// target live on different HW nodes — the containment-failure events.
	CrossNodeTransmissions int
	// TrialsWithEscape counts trials in which the fault reached any FCM on
	// a different HW node than the injection site.
	TrialsWithEscape int
	// CommFaultTrials counts trials whose initial fault was injected into
	// a communication edge rather than an FCM.
	CommFaultTrials int
	// InitialFaults is the total number of initially injected faults over
	// all trials — Trials under the single-fault model, more under
	// Correlated and Burst.
	InitialFaults int
	// TransientFaults counts faults that recovered before propagating
	// (only the Transient model produces them).
	TransientFaults int
	// EscapedCriticalityLoss sums, over all trials, the criticality of
	// FCMs whose infection chain crossed a HW-node boundary at any point
	// — the criticality-weighted containment-failure mass the
	// adversarial search maximises.
	EscapedCriticalityLoss float64
	// CriticalAffected counts affected critical FCMs over all trials.
	CriticalAffected int
	// CriticalityLoss sums the criticality of affected FCMs over trials.
	CriticalityLoss float64
	// AffectedCount[name] counts how often each FCM was affected.
	AffectedCount map[string]int
	// TransmissionCount[from+">"+to] counts per-edge transmissions, the
	// raw material for estimating p_i2·p_i3 empirically.
	TransmissionCount map[string]int
	// EdgeTrials[from+">"+to] counts how often each edge had a faulty
	// source (the denominator of the transmission estimate).
	EdgeTrials map[string]int
	// EarlyStopped reports that confidence-interval early stopping ended
	// the campaign before the configured trial count; Trials holds the
	// number actually executed.
	EarlyStopped bool
}

// MeanAffected returns the average number of FCMs affected per trial.
func (r Result) MeanAffected() float64 {
	if r.Trials == 0 {
		return 0
	}
	return float64(r.TotalAffected) / float64(r.Trials)
}

// EscapeRate returns the fraction of trials in which the fault crossed a
// HW node boundary.
func (r Result) EscapeRate() float64 {
	if r.Trials == 0 {
		return 0
	}
	return float64(r.TrialsWithEscape) / float64(r.Trials)
}

// MeanCriticalityLoss returns the average criticality affected per trial.
func (r Result) MeanCriticalityLoss() float64 {
	if r.Trials == 0 {
		return 0
	}
	return r.CriticalityLoss / float64(r.Trials)
}

// CriticalityWeightedEscapeRate returns the average per-trial criticality
// mass that escaped its injection HW node — the §5.3 containment
// criterion weighted by what the escape actually endangers. This is the
// objective the adversarial Search maximises.
func (r Result) CriticalityWeightedEscapeRate() float64 {
	if r.Trials == 0 {
		return 0
	}
	return r.EscapedCriticalityLoss / float64(r.Trials)
}

// EstimatedInfluence returns the empirically measured transmission
// probability p of the edge from→to (the paper's estimation path) and the
// number of trials it rests on: how often the edge had a faulty source.
// p is 0 when trials is 0.
func (r Result) EstimatedInfluence(from, to string) (p float64, trials int) {
	key := from + ">" + to
	trials = r.EdgeTrials[key]
	if trials == 0 {
		return 0, 0
	}
	return float64(r.TransmissionCount[key]) / float64(trials), trials
}

// trialChunkSize is the grain of the worker pool: trials are grouped into
// fixed chunks on an absolute grid ([0,64), [64,128), …) so the chunk
// sequence — and with it the merge order and every evaluation point — is
// the same no matter how many workers run or where a resume started.
const trialChunkSize = 64

// resetChunk empties ch for trials [begin, end), its per-trial slices
// sized for the chunk, keeping the storage of every slice that fits.
func (env *campaignEnv) resetChunk(ch *ChunkOutput, begin, end int) {
	*ch = ChunkOutput{
		Begin:         begin,
		End:           end,
		CritPerTrial:  emptied(ch.CritPerTrial, end-begin),
		EscPerTrial:   emptied(ch.EscPerTrial, end-begin),
		Affected:      zeroed(ch.Affected, len(env.nodes)),
		EdgeTrials:    zeroed(ch.EdgeTrials, len(env.edges)),
		Transmissions: zeroed(ch.Transmissions, len(env.edges)),
	}
}

// emptied returns s emptied with room for n elements, reusing its
// storage when it fits.
func emptied(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, 0, n)
	}
	return s[:0]
}

// zeroed returns s resized to n zeros, reusing its storage when it fits.
func zeroed(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// absorb folds a chunk's scalar counters into the running Result, trial
// floats in order. The dense counters are summed by Merger.merge.
func (r *Result) absorb(ch *ChunkOutput) {
	r.TotalAffected += ch.TotalAffected
	r.CrossNodeTransmissions += ch.CrossTransmissions
	r.TrialsWithEscape += ch.TrialsWithEscape
	r.CommFaultTrials += ch.CommFaultTrials
	r.CriticalAffected += ch.CriticalAffected
	r.InitialFaults += ch.InitialFaults
	r.TransientFaults += ch.TransientFaults
	for _, loss := range ch.CritPerTrial {
		r.CriticalityLoss += loss
	}
	for _, loss := range ch.EscPerTrial {
		r.EscapedCriticalityLoss += loss
	}
}

// liveEdge is one propagating influence edge (not a replica marker,
// weight > 0) between node ids. thr is its transmission threshold: a
// trial's 53-bit draw x transmits when x < thr (see transmitThreshold).
type liveEdge struct {
	id, from, to int
	thr          uint64
}

// transmitThreshold returns ⌈w·2⁵³⌉, the integer threshold at which a
// 53-bit draw x transmits over an edge of weight w ∈ [0, 1] exactly when
// rand.Rand.Float64() < w would have. Float64 is
// float64(Uint64()<<11>>11) / 2⁵³; for a 53-bit x the conversion and the
// division by a power of two are both exact, and so is w·2⁵³ for any w in
// [0, 1] (a power-of-two scaling that cannot overflow, and subnormal
// weights become normal). Hence x/2⁵³ < w ⇔ x < w·2⁵³ ⇔ x < ⌈w·2⁵³⌉, the
// last step because x is an integer. w = 1 gives 2⁵³, above every draw,
// so such an edge always transmits.
func transmitThreshold(w float64) uint64 {
	return uint64(math.Ceil(w * (1 << 53)))
}

// transmits returns 1 when the 53-bit draw x carries a fault over e and 0
// otherwise, without a branch.
func (e liveEdge) transmits(x uint64) int { return b2i(x < e.thr) }

// campaignEnv is the immutable, precomputed view of a campaign shared by
// all workers, built by newCampaignEnv from the campaign's flat form.
// Trials run on int ids: node ids index spec.Nodes, live-edge ids follow
// spec.Edges order. Names appear only where a Result is built. Nothing in
// it changes after it is built, so concurrent trials, a Merger and any
// number of ChunkRunners may share one.
type campaignEnv struct {
	spec  *WireCampaign
	model FaultModel
	nodes []string
	// edges lists every live edge by id, sorted by (from, to); out[n] is
	// the run of edges leaving n, a sub-slice of edges in target order.
	out   [][]liveEdge
	edges []liveEdge
	crit  []float64
	// hw is the HW class of each node; a node without a host has the
	// class of "". hasHW is false, and hw nil, when no node has a host.
	hw            []int32
	hasHW         bool
	weights       []float64
	weightTotal   float64
	seedBase      uint64
	maxHops       int
	commFrac      float64
	critThreshold float64
	persist       float64
}

// errSpec classifies a flat campaign that no graph flattens to: a node
// name empty, repeated or out of order, edges out of order, or a replica
// marker with a weight or without its reverse edge.
var errSpec = errors.New("faultsim: campaign spec is not in canonical form")

// newCampaignEnv validates the flat campaign w under model and builds its
// trial environment in one pass over its nodes and one over its edges.
// It checks the trial count, every injected probability (edge weights,
// occurrence weights, the comm-fault fraction) and the fault-model
// parameters, and — since w may come off the wire rather than from a
// graph — that w is in the form flatten gives: node names non-empty and
// strictly ascending, edges strictly ascending by (From, To) between
// known, distinct nodes, every replica marker of weight 0 with its
// reverse edge present. Failures come back classified under the
// taxonomy's "inject" stage, so callers route them like any other
// pipeline error.
func newCampaignEnv(w *WireCampaign, model FaultModel) (*campaignEnv, error) {
	wrap := func(node string, err error) error {
		return stage.Wrap("inject", model.Name(), node, err)
	}
	if w.Trials <= 0 {
		return nil, wrap("", fmt.Errorf("%w: %d", ErrNoTrials, w.Trials))
	}
	n := len(w.Nodes)
	if n == 0 {
		return nil, wrap("", ErrNoNodes)
	}
	if !validProb(w.CommFaultFraction) {
		return nil, wrap("", fmt.Errorf("%w: comm fault fraction %g out of range",
			ErrBadProbability, w.CommFaultFraction))
	}
	env := &campaignEnv{
		spec:          w,
		model:         model,
		nodes:         make([]string, n),
		out:           make([][]liveEdge, n),
		edges:         make([]liveEdge, 0, len(w.Edges)),
		crit:          make([]float64, n),
		weights:       make([]float64, n),
		seedBase:      rng.Mix(w.Seed),
		maxHops:       w.MaxHops,
		commFrac:      w.CommFaultFraction,
		critThreshold: w.CriticalThreshold,
		persist:       model.persist(),
	}
	id := make(map[string]int32, n)
	for i, nd := range w.Nodes {
		if nd.Name == "" {
			return nil, wrap("", fmt.Errorf("%w: node %d has an empty name", errSpec, i))
		}
		if i > 0 && nd.Name <= env.nodes[i-1] {
			return nil, wrap(nd.Name, fmt.Errorf("%w: node %q follows %q", errSpec, nd.Name, env.nodes[i-1]))
		}
		env.nodes[i] = nd.Name
		env.crit[i] = nd.Criticality
		env.hasHW = env.hasHW || nd.HW != ""
		id[nd.Name] = int32(i)
	}
	// Every edge, replica markers included, in compressed rows by source:
	// the targets of node f's edges are to[start[f]:start[f+1]], ascending.
	rows := make([]int32, len(w.Edges)+n+1)
	to, start := rows[:len(w.Edges)], rows[len(w.Edges):]
	for i, e := range w.Edges {
		if i > 0 {
			if p := w.Edges[i-1]; e.From < p.From || e.From == p.From && e.To <= p.To {
				return nil, wrap(e.From, fmt.Errorf("%w: edge %s>%s follows %s>%s",
					errSpec, e.From, e.To, p.From, p.To))
			}
		}
		f, okf := id[e.From]
		t, okt := id[e.To]
		switch {
		case !okf || !okt:
			return nil, wrap(e.From, fmt.Errorf("%w: edge %s>%s has an unknown endpoint",
				graph.ErrNoSuchNode, e.From, e.To))
		case f == t:
			return nil, wrap(e.From, fmt.Errorf("%w: %q", graph.ErrSelfEdge, e.From))
		case e.Replica:
			if math.Float64bits(e.Weight) != 0 {
				return nil, wrap(e.From, fmt.Errorf("%w: replica edge %s>%s has weight %g",
					errSpec, e.From, e.To, e.Weight))
			}
		case !validProb(e.Weight):
			return nil, wrap(e.From, fmt.Errorf("%w: influence %s>%s has weight %g",
				ErrBadProbability, e.From, e.To, e.Weight))
		case e.Weight > 0:
			env.edges = append(env.edges, liveEdge{id: len(env.edges), from: int(f), to: int(t), thr: transmitThreshold(e.Weight)})
		}
		to[i] = t
		start[f+1]++
	}
	for f := 0; f < n; f++ {
		start[f+1] += start[f]
	}
	// A replica marker is one half of a symmetric pair, as AddReplicaEdge
	// makes it; the other half may since have been replaced by a weighted
	// edge, but it is there.
	for f := 0; f < n; f++ {
		for i := start[f]; i < start[f+1]; i++ {
			if !w.Edges[i].Replica {
				continue
			}
			t := to[i]
			if _, ok := slices.BinarySearch(to[start[t]:start[t+1]], int32(f)); !ok {
				return nil, wrap(env.nodes[f], fmt.Errorf("%w: replica edge %s>%s has no reverse edge",
					errSpec, env.nodes[f], env.nodes[t]))
			}
		}
	}
	// Compressed rows: live edges ascend by source, so the edges leaving a
	// node are one contiguous run of edges, already in target order.
	for b := 0; b < len(env.edges); {
		e := b
		for e < len(env.edges) && env.edges[e].from == env.edges[b].from {
			e++
		}
		env.out[env.edges[b].from] = env.edges[b:e:e]
		b = e
	}
	// Injection-site sampler weights.
	for i, name := range env.nodes {
		wt := 1.0
		if w.OccurrenceWeights != nil {
			wt = w.OccurrenceWeights[name]
			if wt < 0 || math.IsNaN(wt) || math.IsInf(wt, 0) {
				return nil, wrap(name, fmt.Errorf("%w: occurrence weight %g for %q",
					ErrBadProbability, wt, name))
			}
		}
		env.weights[i] = wt
		env.weightTotal += wt
	}
	if env.weightTotal == 0 {
		for i := range env.weights {
			env.weights[i] = 1
		}
		env.weightTotal = float64(n)
	}
	if err := model.validate(); err != nil {
		return nil, wrap("", err)
	}
	if env.hasHW {
		env.hw = make([]int32, n)
		class := make(map[string]int32, n)
		for i, nd := range w.Nodes {
			c, ok := class[nd.HW]
			if !ok {
				c = int32(len(class))
				class[nd.HW] = c
			}
			env.hw[i] = c
		}
	}
	return env, nil
}

// pick draws an injection site from the occurrence-weight sampler and
// returns its node id.
func (env *campaignEnv) pick(rng *rand.Rand) int {
	x := rng.Float64() * env.weightTotal
	for i, w := range env.weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(env.nodes) - 1
}

// trialWorker is one worker's trial machinery: the PCG it reseeds for
// every trial and scratch kept for a whole chunk, so a trial allocates
// nothing. A node is faulty in the current trial when seen[n] == stamp,
// and its fault arrived over a HW boundary when crossAt[n] == stamp;
// bumping stamp clears both marks at once.
type trialWorker struct {
	env      *campaignEnv
	pcg      *rand.PCG
	rng      *rand.Rand
	t        trialState
	stamp    uint32
	seen     []uint32
	crossAt  []uint32
	order    []int
	frontier []int
}

// newWorker returns a worker whose scratch already fits any trial: a
// node is admitted at most once per trial, so order and frontier never
// outgrow the node count, and neither does a trial's origin set.
func (env *campaignEnv) newWorker() *trialWorker {
	n := len(env.nodes)
	pcg := rand.NewPCG(0, 0)
	return &trialWorker{
		env:      env,
		pcg:      pcg,
		rng:      rand.New(pcg),
		t:        trialState{origins: make([]trialOrigin, 0, n)},
		seen:     make([]uint32, n),
		crossAt:  make([]uint32, n),
		order:    make([]int, 0, n),
		frontier: make([]int, 0, n),
	}
}

// runChunk executes the trials [ch.Begin, ch.End) on their own
// substreams, accumulating into ch. The context is polled at every trial
// boundary; a cancelled chunk is all-or-nothing and contributes no trials.
func (w *trialWorker) runChunk(ctx context.Context, ch *ChunkOutput) error {
	for trial := ch.Begin; trial < ch.End; trial++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		// The trial's substream depends only on (Seed, trial), never on
		// execution history, which is what makes sharding and resume
		// bit-exact.
		w.pcg.Seed(rng.Seeds(w.env.seedBase + uint64(trial)))
		w.runTrial(ch)
	}
	return nil
}

func (w *trialWorker) runTrial(ch *ChunkOutput) {
	env, rng, t := w.env, w.rng, &w.t
	// The fault model draws the initial fault set; propagation below is
	// shared by every model. All draws come from the trial's private
	// substream in a fixed order, so the trial is a pure function of
	// (Seed, trial index) under every model.
	t.reset()
	env.model.inject(env, rng, t)
	if t.commFault {
		ch.CommFaultTrials++
	}
	escaped := false
	if t.commCrossed {
		// The corrupted message itself crossed a HW boundary.
		ch.CrossTransmissions++
		escaped = true
	}
	ch.InitialFaults += len(t.origins)

	w.stamp++
	if w.stamp == 0 { // wrapped: marks from 2^32 trials ago would alias
		clear(w.seen)
		clear(w.crossAt)
		w.stamp = 1
	}
	stamp := w.stamp
	// order records affected nodes in discovery order so the criticality
	// sums below are a fixed function of the trial.
	w.order, w.frontier = w.order[:0], w.frontier[:0]
	for _, o := range t.origins {
		if w.seen[o.node] == stamp {
			continue
		}
		w.admit(o.node, o.viaCross, ch)
	}
	hops, head := 0, 0
	for head < len(w.frontier) && (env.maxHops == 0 || hops < env.maxHops) {
		hops++
		for boundary := len(w.frontier); head < boundary; head++ {
			u := w.frontier[head]
			for _, e := range env.out[u] {
				// The transmission draw happens whether or not the
				// target is already faulty — conditioning the draw on
				// target health would bias the per-edge estimate
				// downward on convergent paths.
				ch.EdgeTrials[e.id]++
				// The draw is rng.Float64()'s 53 bits taken straight from
				// the PCG that rng wraps (rand.Rand keeps no state of its
				// own), so the stream inject and admit see is unchanged.
				// hit and fresh are 0/1 without a data-dependent branch;
				// only a newly infected target, the rare case, branches.
				hit := e.transmits(w.pcg.Uint64() << 11 >> 11)
				fresh := b2i(w.seen[e.to] != stamp)
				ch.Transmissions[e.id] += hit
				if hit&fresh == 0 {
					continue
				}
				crossed := env.hasHW && env.hw[u] != env.hw[e.to]
				if crossed {
					ch.CrossTransmissions++
					escaped = true
				}
				// The escape taint is sticky: once an infection chain has
				// crossed a HW boundary, everything it infects downstream
				// is containment-failure damage too.
				w.admit(e.to, crossed || w.crossAt[u] == stamp, ch)
			}
		}
	}
	ch.TotalAffected += len(w.order)
	if escaped {
		ch.TrialsWithEscape++
	}
	loss, escLoss := 0.0, 0.0
	for _, n := range w.order {
		ch.Affected[n]++
		cv := env.crit[n]
		loss += cv
		if w.crossAt[n] == stamp {
			escLoss += cv
		}
		if env.critThreshold > 0 && cv >= env.critThreshold {
			ch.CriticalAffected++
		}
	}
	ch.CritPerTrial = append(ch.CritPerTrial, loss)
	ch.EscPerTrial = append(ch.EscPerTrial, escLoss)
}

// b2i returns 1 for true and 0 for false; the compiler lowers it to a
// flag set, not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// admit marks node n newly faulty; crossed marks a fault that arrived
// over a HW boundary. Under a transient model the permanence draw happens
// at discovery, in frontier order; a transient fault affects its FCM but
// never joins the frontier.
func (w *trialWorker) admit(n int, crossed bool, ch *ChunkOutput) {
	w.seen[n] = w.stamp
	w.order = append(w.order, n)
	if crossed {
		w.crossAt[n] = w.stamp
	}
	if w.env.persist < 1 && w.rng.Float64() >= w.env.persist {
		ch.TransientFaults++
		return
	}
	w.frontier = append(w.frontier, n)
}

// chunkEnd returns the end of the chunk beginning at b: the next absolute
// grid boundary, capped at the trial count.
func chunkEnd(b, trials int) int {
	e := (b/trialChunkSize + 1) * trialChunkSize
	if e > trials {
		e = trials
	}
	return e
}

// Merger folds chunk outputs into a campaign Result, strictly in grid
// order: the merge side of every campaign, Run's own and a distributed
// coordinator's. It owns the partial Result, the completed-trial
// frontier, the chunks held ahead of it, telemetry checkpoints,
// crash-safe persistence (Campaign.CheckpointPath, resumable across
// restarts via the v2 checkpoint format) and Wilson-interval early
// stopping. Callers may absorb chunks in any order. The per-node and
// per-edge counters accumulate densely, by id, and are named only when a
// Result is built.
type Merger struct {
	c   *Campaign
	env *campaignEnv
	res Result // scalar totals; the named maps are built by result
	// affected, edgeTrials and transmissions are the merged dense
	// counters, by node id and live-edge id.
	affected, edgeTrials, transmissions []int

	edgeKey []string // live-edge names, built by keys on first use

	done         int                  // completed-trial frontier (all trials < done merged)
	held         map[int]*ChunkOutput // absorbed ahead of the frontier, by grid index
	release      func(*ChunkOutput)   // when set, takes each chunk once merged or dropped
	fp           string
	persistEvery int
	eventEvery   int
	label        string

	trialsCtr, escapesCtr, crossCtr *obs.Counter
	escapeGauge, workersGauge       *obs.Gauge
}

// checkpointEvent emits the running-estimator telemetry at frontier done.
func (m *Merger) checkpointEvent(done int) {
	rate := float64(m.res.TrialsWithEscape) / float64(done)
	m.escapeGauge.Set(rate)
	m.c.Span.Publish("campaign_checkpoint", m.label,
		obs.Int("trials_done", done),
		obs.Int("trials_total", m.c.Trials),
		obs.Float("escape_rate", rate),
		obs.Float("half_width", wilsonHalfWidth(rate, done)),
		obs.Float("mean_affected", float64(m.res.TotalAffected)/float64(done)),
		obs.Int("cross_transmissions", m.res.CrossNodeTransmissions),
		obs.Float("mean_crit_loss", m.res.CriticalityLoss/float64(done)))
}

// Done reports whether the campaign is complete: the frontier reached the
// trial count, or early stopping ended it.
func (m *Merger) Done() bool {
	return m.done >= m.c.Trials || m.res.EarlyStopped
}

// Has reports whether grid chunk seq is already merged or held — the
// test a coordinator uses to suppress duplicate results and to skip
// requeued chunks that someone else delivered.
func (m *Merger) Has(seq int) bool {
	if _, ok := m.held[seq]; ok {
		return true
	}
	_, end := ChunkBounds(seq, m.c.Trials)
	return end <= m.done
}

// Absorb takes one grid chunk at or beyond the frontier. A chunk ahead of
// the frontier is held; one at the frontier is merged together with every
// contiguous held chunk, in grid order, so the merge sequence — and every
// evaluation point — does not depend on arrival order. A chunk behind the
// frontier, already held, off the grid, misshapen (see CheckShape) or
// absorbed after Done is an error; only the chunk at a resumed frontier
// may begin off the grid. stop reports that early stopping ended the
// campaign in this call; the held chunks beyond the stopping frontier are
// dropped.
func (m *Merger) Absorb(ch *ChunkOutput) (stop bool, err error) {
	b, e := ch.Begin, ch.End
	var bad string
	switch {
	case m.Done():
		bad = "after the campaign ended"
	case b < m.done:
		bad = "behind the frontier"
	case b >= m.c.Trials || e != chunkEnd(b, m.c.Trials) || (b != m.done && b%trialChunkSize != 0):
		bad = "off the grid"
	case m.held[ChunkIndex(b)] != nil:
		bad = "twice"
	}
	if bad != "" {
		return false, stage.Wrap("inject", "merge", "", fmt.Errorf(
			"faultsim: chunk [%d,%d) absorbed %s, frontier %d", b, e, bad, m.done))
	}
	if err := m.CheckShape(ch); err != nil {
		return false, err
	}
	if b != m.done {
		m.held[ChunkIndex(b)] = ch
		return false, nil
	}
	for ch != nil {
		stop, err := m.merge(ch)
		if err != nil {
			return false, err
		}
		m.releaseChunk(ch)
		if stop {
			for _, held := range m.held {
				m.releaseChunk(held)
			}
			clear(m.held)
			return true, nil
		}
		seq := ChunkIndex(m.done)
		ch = m.held[seq]
		delete(m.held, seq)
	}
	return false, nil
}

// releaseChunk hands a merged or dropped chunk to release, if set.
func (m *Merger) releaseChunk(ch *ChunkOutput) {
	if m.release != nil {
		m.release(ch)
	}
}

// CheckShape reports, as a stage-wrapped error, a chunk whose slices do
// not fit the campaign: one per-trial loss per trial, one affected
// counter per node and one edge-trial and transmission counter per live
// edge. Merging a misshapen chunk would index out of range or silently
// drop counts, so Absorb rejects it; a coordinator uses CheckShape to drop
// such a chunk from the wire without failing the campaign.
func (m *Merger) CheckShape(ch *ChunkOutput) error {
	trials := ch.End - ch.Begin
	if len(ch.CritPerTrial) == trials && len(ch.EscPerTrial) == trials &&
		len(ch.Affected) == len(m.affected) && len(ch.EdgeTrials) == len(m.edgeTrials) &&
		len(ch.Transmissions) == len(m.transmissions) {
		return nil
	}
	return stage.Wrap("inject", "merge", "", fmt.Errorf(
		"faultsim: chunk [%d,%d) has %d/%d per-trial losses and %d/%d/%d affected/edge-trial/transmission counters, campaign wants %d, %d nodes and %d live edges",
		ch.Begin, ch.End, len(ch.CritPerTrial), len(ch.EscPerTrial),
		len(ch.Affected), len(ch.EdgeTrials), len(ch.Transmissions),
		trials, len(m.affected), len(m.edgeTrials)))
}

// merge folds chunk ch, which begins at the frontier, into the Result and
// fires every evaluation point the frontier crossed: telemetry
// checkpoint, persistence, and the early-stopping test. It reports
// stop=true when the campaign should end at the chunk's end. Because the
// chunk sequence is worker-count-independent, so is every decision made
// here.
func (m *Merger) merge(ch *ChunkOutput) (stop bool, err error) {
	b, e := ch.Begin, ch.End
	m.res.absorb(ch)
	addInto(m.affected, ch.Affected)
	addInto(m.edgeTrials, ch.EdgeTrials)
	addInto(m.transmissions, ch.Transmissions)
	m.done = e
	if m.trialsCtr != nil {
		m.trialsCtr.Add(int64(e - b))
		m.escapesCtr.Add(int64(ch.TrialsWithEscape))
		m.crossCtr.Add(int64(ch.CrossTransmissions))
	}
	if m.c.Span != nil && (b/m.eventEvery != e/m.eventEvery || e == m.c.Trials) {
		m.checkpointEvent(e)
	}
	crossedPersist := b/m.persistEvery != e/m.persistEvery || e == m.c.Trials
	if m.c.CheckpointPath != "" && crossedPersist {
		if err := m.save(e); err != nil {
			return false, err
		}
	}
	if m.c.StopHalfWidth > 0 && e < m.c.Trials && e >= stopMinTrials && crossedPersist {
		rate := float64(m.res.TrialsWithEscape) / float64(e)
		if wilsonHalfWidth(rate, e) <= m.c.StopHalfWidth {
			m.res.Trials = e
			m.res.EarlyStopped = true
			if m.c.Span != nil {
				m.c.Span.Event("early_stop",
					obs.Int("trials_done", e),
					obs.Float("escape_rate", rate),
					obs.Float("half_width", wilsonHalfWidth(rate, e)))
			}
			if m.c.CheckpointPath != "" {
				if err := m.save(e); err != nil {
					return false, err
				}
			}
			return true, nil
		}
	}
	return false, nil
}

// addInto adds the counters of src to dst, index by index.
func addInto(dst, src []int) {
	for i, v := range src {
		dst[i] += v
	}
}

// save persists the campaign state at frontier done.
func (m *Merger) save(done int) error {
	return saveCheckpoint(m.c.CheckpointPath, m.fp, done, m.result())
}

// result returns the merged Result with its named counters built from the
// dense totals — the one place ids become names.
func (m *Merger) result() Result {
	res := m.res
	res.AffectedCount = named(m.env.nodes, m.affected)
	res.TransmissionCount = named(m.keys(), m.transmissions)
	res.EdgeTrials = named(m.keys(), m.edgeTrials)
	return res
}

// keys returns the live-edge names from+">"+to, by id, building them on
// first use: only a merge side that names its Result, or restores one,
// needs them.
func (m *Merger) keys() []string {
	if m.edgeKey == nil {
		m.edgeKey = make([]string, len(m.env.edges))
		for i, e := range m.env.edges {
			m.edgeKey[i] = m.env.nodes[e.from] + ">" + m.env.nodes[e.to]
		}
	}
	return m.edgeKey
}

// named keys the nonzero dense counts by name. Counts add up, so edges
// whose from+">"+to keys collide share one entry, as they did when trials
// wrote the named maps directly.
func named(names []string, counts []int) map[string]int {
	m := make(map[string]int, len(counts))
	for i, v := range counts {
		if v != 0 {
			m[names[i]] += v
		}
	}
	return m
}

// unname reads named counts back into the dense counters dst. Each count
// goes to the first id carrying its name, so a key shared by several
// edges rebuilds to the same sum. A name the campaign does not have is a
// checkpoint mismatch.
func unname(counts map[string]int, names []string, dst []int) error {
	id := make(map[string]int, len(names))
	for i := len(names) - 1; i >= 0; i-- {
		id[names[i]] = i
	}
	for name, v := range counts {
		i, ok := id[name]
		if !ok {
			return fmt.Errorf("%w: counter %q names no node or live edge of the campaign",
				ErrCheckpointMismatch, name)
		}
		dst[i] += v
	}
	return nil
}

// Abort persists the frontier checkpoint (when configured) and returns
// the campaign's cancellation error wrapping cause — the exit of a
// cancelled Run and the graceful-drain exit of a coordinator.
func (m *Merger) Abort(cause error) error {
	err := fmt.Errorf("faultsim: cancelled after %d/%d trials: %w",
		m.done, m.c.Trials, cause)
	if m.c.CheckpointPath != "" {
		if serr := m.save(m.done); serr != nil {
			return errors.Join(serr, err)
		}
	}
	return err
}

// serial computes the chunk sequence inline, each chunk beginning at the
// frontier — the Workers==1 path pays for no goroutines but computes,
// merges and recycles chunks exactly as the pool does, which is what
// makes the two bit-identical.
func (m *Merger) serial(runner *ChunkRunner) error {
	for !m.Done() {
		ch, err := runner.Run(m.c.Ctx, m.done, chunkEnd(m.done, m.c.Trials))
		if err != nil {
			return m.Abort(err)
		}
		if _, err := m.Absorb(ch); err != nil {
			return err
		}
	}
	return nil
}

// parallel shards the chunk sequence over a worker pool, each goroutine
// computing its chunks through runner. The dispatcher hands out chunks in
// grid order and passes every completion to Absorb, which holds early
// arrivals and merges in grid order, so the accumulated Result — and
// every evaluation point — matches the serial path bit for bit.
// Cancellation makes chunks fail individually; the contiguous merged
// prefix is what gets checkpointed. Early stopping stops dispatch, and
// Absorb drops the speculative chunks beyond the stopping frontier.
func (m *Merger) parallel(runner *ChunkRunner, workers int) error {
	type job struct{ b, e int }
	type outcome struct {
		ch  *ChunkOutput
		err error
	}
	maxInFlight := workers * 2
	window := maxInFlight + workers
	jobs := make(chan job)
	out := make(chan outcome, maxInFlight)
	// Dispatch stays within window chunks of the merge frontier, those in
	// flight and one held per worker, so the chunks ahead of it, and with
	// them the outputs the runner allocates, stay bounded even when the
	// frontier chunk is slow.
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			var span *obs.Span
			if m.c.Span != nil {
				span = m.c.Span.StartChild("worker", obs.Int("worker", id))
				defer span.End()
			}
			if m.workersGauge != nil {
				m.workersGauge.Add(1)
				defer m.workersGauge.Add(-1)
			}
			chunks, trials := 0, 0
			for j := range jobs {
				ch, err := runner.Run(m.c.Ctx, j.b, j.e)
				if err == nil {
					chunks++
					trials += j.e - j.b
				}
				out <- outcome{ch: ch, err: err}
			}
			if span != nil {
				span.SetAttr(obs.Int("chunks", chunks), obs.Int("trials", trials))
			}
		}(w)
	}

	var (
		inFlight    int
		b           = m.done
		cancelCause error
		fatal       error
	)
	dispatchDone := b >= m.c.Trials
	for !dispatchDone || inFlight > 0 {
		var send chan job
		next := job{b, chunkEnd(b, m.c.Trials)}
		if !dispatchDone && inFlight < maxInFlight && b-m.done < window*trialChunkSize {
			send = jobs
		}
		select {
		case send <- next:
			inFlight++
			b = next.e
			dispatchDone = b >= m.c.Trials
		case o := <-out:
			inFlight--
			switch {
			case o.err != nil:
				if cancelCause == nil {
					cancelCause = o.err
				}
				dispatchDone = true
			case cancelCause == nil && fatal == nil && !m.Done():
				stop, err := m.Absorb(o.ch)
				fatal = err
				dispatchDone = dispatchDone || stop || err != nil
			default:
				runner.Release(o.ch)
			}
		}
	}
	close(jobs)
	wg.Wait()
	switch {
	case fatal != nil:
		return fatal
	case cancelCause != nil:
		return m.Abort(cancelCause)
	}
	return nil
}

// model returns the configured fault model, defaulting to SingleFault.
func (c Campaign) model() FaultModel {
	if c.Model == nil {
		return SingleFault()
	}
	return c.Model
}

// validProb reports whether p is a finite probability.
func validProb(p float64) bool { return p >= 0 && p <= 1 && !math.IsNaN(p) }

// Run executes the campaign: a Merger fed by its own ChunkRunner, which
// computes the chunks inline at one worker and from a worker pool
// otherwise, and takes each back once it is merged.
func Run(c Campaign) (Result, error) {
	workers := c.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	m, err := NewMerger(c, workers)
	if err != nil {
		return Result{}, err
	}

	if !m.Done() {
		// Fail fast on a context that is already dead, before spinning up
		// any pool machinery.
		if c.Ctx != nil {
			if err := c.Ctx.Err(); err != nil {
				return Result{}, m.Abort(err)
			}
		}
		if remaining := NumChunks(c.Trials - m.done); workers > remaining {
			workers = remaining
		}
		runner := m.Runner()
		m.OnRelease(runner.Release)
		if workers <= 1 {
			err = m.serial(runner)
		} else {
			err = m.parallel(runner, workers)
		}
		if err != nil {
			return Result{}, err
		}
	}
	return m.Finish(), nil
}

// NewMerger flattens and validates c and builds its merge-side state: the
// precomputed environment, the partial Result (restored from a checkpoint
// when c.Resume is set), the telemetry instruments and every
// evaluation-point interval. It publishes the "campaign_start" event,
// recording workersHint in it (a distributed fabric may pass 0 for
// "unknown/dynamic").
func NewMerger(c Campaign, workersHint int) (*Merger, error) {
	env, err := newCampaignEnv(flatten(&c), c.model())
	if err != nil {
		return nil, err
	}
	m := &Merger{
		c:             &c,
		env:           env,
		held:          map[int]*ChunkOutput{},
		res:           Result{Trials: c.Trials},
		affected:      make([]int, len(env.nodes)),
		edgeTrials:    make([]int, len(env.edges)),
		transmissions: make([]int, len(env.edges)),
	}

	// Crash-safe checkpointing: resolve the campaign fingerprint once,
	// restore a prior snapshot when resuming, and persist whenever the
	// completed-trial frontier crosses a persistEvery multiple.
	m.persistEvery = c.CheckpointEvery
	if m.persistEvery <= 0 {
		m.persistEvery = c.Trials / 10
	}
	if m.persistEvery == 0 {
		m.persistEvery = 1
	}
	if c.CheckpointPath != "" {
		m.fp = env.fingerprint()
	}
	if c.Resume && c.CheckpointPath != "" {
		cf, ok, err := loadCheckpoint(c.CheckpointPath, m.fp)
		if err != nil {
			if !c.LaxResume || !errors.Is(err, ErrCheckpointCorrupt) {
				return nil, err
			}
			// Lax resume: the file is damaged, not foreign. Record the
			// discard and restart from trial zero; the next checkpoint
			// write replaces the damaged file atomically.
			if c.Span != nil {
				c.Span.Event("resume_discarded",
					obs.String("path", c.CheckpointPath),
					obs.String("error", err.Error()))
			}
			ok = false
		}
		if ok {
			if cf.TrialsDone > c.Trials {
				return nil, fmt.Errorf("%w: checkpoint has %d trials done, campaign wants %d",
					ErrCheckpointMismatch, cf.TrialsDone, c.Trials)
			}
			if err := errors.Join(
				unname(cf.Result.AffectedCount, env.nodes, m.affected),
				unname(cf.Result.TransmissionCount, m.keys(), m.transmissions),
				unname(cf.Result.EdgeTrials, m.keys(), m.edgeTrials),
			); err != nil {
				return nil, err
			}
			m.res = cf.Result
			m.res.Trials = c.Trials
			m.res.EarlyStopped = false
			m.res.AffectedCount, m.res.TransmissionCount, m.res.EdgeTrials = nil, nil, nil
			m.done = cf.TrialsDone
		}
	}

	// Campaign telemetry: per-10% checkpoint events carrying the running
	// estimators, plus live counters and gauges.
	if reg := c.Span.Metrics(); reg != nil {
		m.trialsCtr = reg.Counter("faultsim_trials_total", "injection trials executed")
		m.escapesCtr = reg.Counter("faultsim_escape_trials_total", "trials whose fault crossed a HW boundary")
		m.crossCtr = reg.Counter("faultsim_cross_transmissions_total", "fault transmissions across HW boundaries")
		m.escapeGauge = reg.Gauge("faultsim_escape_rate", "running escape-rate estimate")
		m.workersGauge = reg.Gauge("faultsim_active_workers", "campaign worker goroutines currently running")
	}
	m.eventEvery = c.Trials / 10
	if m.eventEvery == 0 {
		m.eventEvery = 1
	}
	m.label = c.Label
	if m.label == "" {
		m.label = "campaign"
	}
	if c.Span != nil {
		c.Span.Publish("campaign_start", m.label,
			obs.Int("trials_total", c.Trials),
			obs.Int("trials_done", m.done),
			obs.String("model", c.model().Name()),
			obs.Int("workers", workersHint))
	}
	return m, nil
}

// Runner returns a ChunkRunner that shares the merger's trial
// environment, so a merge side that also computes chunks — Run itself, a
// coordinator's local fallback and spot checks — builds the campaign once.
func (m *Merger) Runner() *ChunkRunner { return &ChunkRunner{env: m.env} }

// OnRelease has the merger hand each chunk to release once it is merged,
// or dropped by an early stop; release then owns the chunk. Run hands them
// back to its runner; a coordinator decodes later results into them.
// Without a release, absorbed chunks stay the caller's.
func (m *Merger) OnRelease(release func(*ChunkOutput)) { m.release = release }

// Frontier returns the completed-trial frontier: every trial below it has
// been merged. A fresh merger starts at 0; a resumed one at the
// checkpoint's frontier.
func (m *Merger) Frontier() int { return m.done }

// Trials returns the campaign's configured trial count.
func (m *Merger) Trials() int { return m.c.Trials }

// Finish publishes the terminal telemetry (the "campaign_done" event and
// the ledger's campaign record) and returns the merged Result. Call once,
// after Done reports true.
func (m *Merger) Finish() Result {
	c := m.c
	res := m.result()
	if c.Span != nil {
		c.Span.Publish("campaign_done", m.label,
			obs.Int("trials_done", res.Trials),
			obs.Int("trials_total", c.Trials),
			obs.Float("escape_rate", res.EscapeRate()),
			obs.Bool("early_stopped", res.EarlyStopped))
	}
	c.Ledger.Append(ledger.Record{
		Kind: ledger.KindCampaign, Stage: "faultsim",
		Detail: fmt.Sprintf("model %s, seed %d", c.model().Name(), c.Seed),
		Values: map[string]float64{
			"trials":                float64(res.Trials),
			"escape_rate":           res.EscapeRate(),
			"mean_affected":         res.MeanAffected(),
			"mean_criticality_loss": res.MeanCriticalityLoss(),
			"weighted_escape_rate":  res.CriticalityWeightedEscapeRate(),
			"cross_transmissions":   float64(res.CrossNodeTransmissions),
			"early_stopped":         b2f(res.EarlyStopped),
		},
	})
	return res
}

// b2f encodes a flag into a ledger value.
func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// HWFaultCampaign configures hardware-node failure injection: in each
// trial, each HW node fails independently with FailureProb, taking down
// every hosted FCM; a module survives when enough of its replicas remain.
type HWFaultCampaign struct {
	// HWOf maps replica node names to HW node names.
	HWOf map[string]string
	// ReplicasOf maps each module to its replica node names.
	ReplicasOf map[string][]string
	// Criticality maps modules to criticality for loss accounting.
	Criticality map[string]float64
	// FailureProb is the per-trial, per-HW-node failure probability.
	FailureProb float64
	// MajorityRequired: when true, a module needs a strict majority of its
	// replicas alive (TMR voting semantics); when false, one live replica
	// suffices (standby semantics).
	MajorityRequired bool
	Trials           int
	Seed             uint64
}

// HWResult aggregates a hardware-failure campaign.
type HWResult struct {
	Trials int
	// ModuleFailures counts, per module, the trials in which it lost
	// service.
	ModuleFailures map[string]int
	// TrialsWithAnyLoss counts trials where at least one module failed.
	TrialsWithAnyLoss int
	// CriticalityLoss sums criticality of failed modules over trials.
	CriticalityLoss float64
}

// Unavailability returns the per-trial service-loss probability of a
// module.
func (r HWResult) Unavailability(module string) float64 {
	if r.Trials == 0 {
		return 0
	}
	return float64(r.ModuleFailures[module]) / float64(r.Trials)
}

// RunHW executes the hardware-failure campaign.
func RunHW(c HWFaultCampaign) (HWResult, error) {
	if c.Trials <= 0 {
		return HWResult{}, fmt.Errorf("%w: %d", ErrNoTrials, c.Trials)
	}
	if len(c.ReplicasOf) == 0 {
		return HWResult{}, ErrNoNodes
	}
	// A NaN would fail every rng.Float64() < p draw and silently report
	// zero unavailability.
	if !validProb(c.FailureProb) {
		return HWResult{}, stage.Wrap("inject", "hw", "", fmt.Errorf(
			"%w: failure probability %g out of range", ErrBadProbability, c.FailureProb))
	}
	rng := rand.New(rand.NewPCG(c.Seed, c.Seed^0x6a09e667f3bcc909))

	hwNodes := map[string]bool{}
	for _, n := range c.HWOf {
		hwNodes[n] = true
	}
	hwList := make([]string, 0, len(hwNodes))
	for n := range hwNodes {
		hwList = append(hwList, n)
	}
	sort.Strings(hwList)

	modules := make([]string, 0, len(c.ReplicasOf))
	for m := range c.ReplicasOf {
		modules = append(modules, m)
	}
	sort.Strings(modules)

	res := HWResult{Trials: c.Trials, ModuleFailures: map[string]int{}}
	for trial := 0; trial < c.Trials; trial++ {
		down := map[string]bool{}
		for _, n := range hwList {
			if rng.Float64() < c.FailureProb {
				down[n] = true
			}
		}
		anyLoss := false
		for _, m := range modules {
			reps := c.ReplicasOf[m]
			alive := 0
			for _, r := range reps {
				if !down[c.HWOf[r]] {
					alive++
				}
			}
			need := 1
			if c.MajorityRequired {
				need = len(reps)/2 + 1
			}
			if alive < need {
				res.ModuleFailures[m]++
				res.CriticalityLoss += c.Criticality[m]
				anyLoss = true
			}
		}
		if anyLoss {
			res.TrialsWithAnyLoss++
		}
	}
	return res, nil
}
