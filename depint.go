// Package depint is the public facade of the dependability-driven software
// integration framework (reproduction of Suri, Ghosh, Marlowe, ICDCS 1998).
//
// The framework takes a set of software functions with dependability
// attributes (criticality, fault-tolerance degree, timing constraints) and
// an influence graph quantifying how faults propagate between them, and
// produces an allocation onto a hardware platform that contains faults,
// separates replicas and critical functions, and satisfies timing
// constraints.
//
// The pipeline stages mirror the paper:
//
//  1. Partition   — the system specification names the process-level FCMs.
//  2. Influence   — the directed influence graph (Eq. 1–2) between FCMs.
//  3. Replicate   — fault-tolerance expansion (FT = k ⇒ k replicas linked
//     by weight-0 edges that forbid colocation).
//  4. Condense    — graph reduction to the HW node count using heuristic
//     H1, H2 or H3, criticality pairing, or timing ordering.
//  5. Map         — cluster-to-processor assignment (Approach A or B).
//  6. Evaluate    — the §5.3 goodness report: constraints, containment,
//     criticality dispersion, communication dilation.
//
// A minimal use:
//
//	sys := depint.PaperExample()
//	res, err := depint.Integrate(sys)
//	if err != nil { ... }
//	fmt.Println(res.Assignment, res.Report.Containment)
package depint

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"time"

	"repro/internal/attrs"
	"repro/internal/cluster"
	"repro/internal/faultsim"
	"repro/internal/graph"
	"repro/internal/hw"
	"repro/internal/influence"
	"repro/internal/ledger"
	"repro/internal/mapping"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/spec"
	"repro/internal/stage"
)

// Re-exported spec types: callers describe systems with these.
type (
	// System is a complete integration problem specification.
	System = spec.System
	// Process is one process-level FCM with Table-1 style attributes.
	Process = spec.Process
	// Influence is one directed influence edge.
	Influence = spec.Influence
	// Assignment maps SW clusters to HW node names.
	Assignment = mapping.Assignment
	// Report is the §5.3 goodness report for a mapping.
	Report = mapping.Report
	// Step is one recorded combination step of the reduction trace.
	Step = cluster.Step
)

// PaperExample returns the reconstructed ICDCS'98 worked example
// (Table 1 + Fig. 3).
func PaperExample() *System { return spec.PaperExample() }

// FlightControl returns the flight-control integration example from the
// paper's introduction.
func FlightControl() *System { return spec.FlightControl() }

// BrakeByWire returns an automotive brake-by-wire example system.
func BrakeByWire() *System { return spec.BrakeByWire() }

// IndustrialControl returns a process-automation example system with a
// TMR safety interlock.
func IndustrialControl() *System { return spec.IndustrialControl() }

// Strategy selects the condensation heuristic for stage 4.
type Strategy int

// Condensation strategies.
const (
	// H1 combines the pair with the highest mutual influence repeatedly
	// (§5.4 H1; §6.1 "Approach A").
	H1 Strategy = iota + 1
	// H1PairAll is the H1 variation pairing all nodes per round.
	H1PairAll
	// H2 recursively bisects the graph along minimum cuts (§5.4 H2).
	H2
	// H3 grows spheres of influence around the most important nodes
	// (§5.4 H3).
	H3
	// Criticality pairs the most critical node with the least critical
	// (§6.2 "Approach B").
	Criticality
	// TimingOrder groups nodes adjacent in timing order (Fig. 8).
	TimingOrder
	// SeparationGuided combines the pair with the lowest Eq. (3)
	// separation — H1's transitive-coupling variant (§4.2.4 ablation).
	SeparationGuided
	// H2SourceTarget is the H2 variation cutting along minimum s–t cuts
	// between the two most important nodes of each part.
	H2SourceTarget
)

// String returns the strategy name.
func (s Strategy) String() string {
	switch s {
	case H1:
		return "H1"
	case H1PairAll:
		return "H1-pair-all"
	case H2:
		return "H2-min-cut"
	case H3:
		return "H3-spheres"
	case Criticality:
		return "criticality"
	case TimingOrder:
		return "timing-order"
	case SeparationGuided:
		return "separation"
	case H2SourceTarget:
		return "H2-source-target"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Approach selects the cluster-to-processor assignment heuristic (§5.4).
type Approach int

// Assignment approaches.
const (
	// ByImportance is Approach A: most important node placed first.
	ByImportance Approach = iota + 1
	// Lexicographic is Approach B: attributes in decreasing importance,
	// criticality first.
	Lexicographic
	// FCRAware orders by criticality and keeps critical clusters in
	// distinct hardware fault containment regions (§5.3's criticality
	// criterion at region granularity).
	FCRAware
)

// String returns the approach name.
func (a Approach) String() string {
	switch a {
	case ByImportance:
		return "importance"
	case Lexicographic:
		return "lexicographic"
	case FCRAware:
		return "fcr-aware"
	default:
		return fmt.Sprintf("Approach(%d)", int(a))
	}
}

// options collects pipeline configuration.
type options struct {
	strategy          Strategy
	approach          Approach
	platform          *hw.Platform
	weights           attrs.Weights
	lexKinds          []attrs.Kind
	requirements      mapping.Requirements
	criticalThreshold float64
	separationOrder   int
	refineMoves       int
	observer          *obs.Observer
	fallback          []Strategy
	timeout           time.Duration
	attemptTimeout    time.Duration
	weightsSet        bool
	workers           int
	race              bool
	ledger            *ledger.Ledger
}

// Option configures Integrate.
type Option func(*options)

// WithStrategy selects the condensation heuristic (default H1).
func WithStrategy(s Strategy) Option { return func(o *options) { o.strategy = s } }

// WithApproach selects the assignment approach (default ByImportance).
func WithApproach(a Approach) Option { return func(o *options) { o.approach = a } }

// WithPlatform supplies a custom hardware platform; by default a complete
// (strongly connected) platform with the system's HWNodes processors is
// built.
func WithPlatform(p *hw.Platform) Option { return func(o *options) { o.platform = p } }

// WithWeights overrides the importance weights.
func WithWeights(w attrs.Weights) Option {
	return func(o *options) { o.weights, o.weightsSet = w, true }
}

// WithLexicographicKinds orders the attribute kinds for Approach B.
func WithLexicographicKinds(kinds ...attrs.Kind) Option {
	return func(o *options) { o.lexKinds = kinds }
}

// WithRequirements declares per-process HW resource requirements.
func WithRequirements(req map[string][]string) Option {
	return func(o *options) { o.requirements = req }
}

// WithCriticalThreshold sets the criticality at or above which a process
// counts as critical in the goodness report (default 10).
func WithCriticalThreshold(t float64) Option {
	return func(o *options) { o.criticalThreshold = t }
}

// WithSeparationOrder sets the truncation order of the Eq. (3) separation
// series (default influence.DefaultMaxOrder).
func WithSeparationOrder(k int) Option { return func(o *options) { o.separationOrder = k } }

// WithRefinement enables the post-assignment dilation refinement pass
// (§6: "dilation of the mapping may be considered to address
// performance") with the given move budget; 0 disables it (the default),
// a negative budget uses the refiner's default.
func WithRefinement(maxMoves int) Option { return func(o *options) { o.refineMoves = maxMoves } }

// WithObserver installs a telemetry observer on the run: Integrate records
// one span per pipeline stage (partition, influence, replicate, condense,
// map, evaluate), the condenser logs every merge decision with its mutual
// influence, and the feasibility oracle counts calls and latencies into
// the observer's metrics registry. The oracle's instruments are
// process-global (see sched.Observe): the run installs them and removes
// them when it returns, unless a concurrent observed run has installed
// its own since. An observer built with obs.WithBus additionally streams
// every span start/end and event live over the observability fabric, where
// obs.Serve exposes them as /events, /progress and the /dashboard. A nil
// observer (the default) keeps the pipeline on its uninstrumented fast
// path.
func WithObserver(o *obs.Observer) Option { return func(opt *options) { opt.observer = o } }

// WithLedger installs a decision-provenance ledger on the run: Integrate
// records every pipeline decision — the partitioned FCMs, the replica
// expansion and its separation edges, every condensation merge with its
// rule and Eq. (4) mutual influence, every cluster placement with the
// cost it was chosen at and the alternatives it beat, fallback
// degradations and race outcomes, and a final metrics snapshot — into l,
// stamped with the run's config/spec fingerprint. Records carry no
// timestamps, so two runs of the same specification under the same
// configuration produce identical ledgers (see ledger.Diff). Under
// WithRaceStrategies only the winning contender's records are spliced in,
// so the ledger always matches the published result — but which strategy
// wins a race may vary run to run. A nil ledger (the default) records
// nothing.
func WithLedger(l *ledger.Ledger) Option { return func(o *options) { o.ledger = l } }

// WithFallback installs a graceful-degradation chain after the selected
// strategy: when condensation or mapping under the current strategy fails,
// times out (see WithAttemptTimeout), or yields an infeasible mapping, the
// pipeline retries with the next strategy in the chain on a fresh copy of
// the replicated graph. Every abandoned strategy is recorded in
// Result.Degradations and as a "degrade" telemetry event. Cancellation of
// the caller's context is never retried — it aborts the whole run.
func WithFallback(next ...Strategy) Option {
	return func(o *options) { o.fallback = append(o.fallback, next...) }
}

// WithWorkers sets the goroutine budget of the pipeline's parallel work,
// the Eq. (3) separation sweeps. Above one, the influence stage's sweep
// runs on a background goroutine beside replication, condensation and
// mapping, its rows shared over the budget less the pipeline's own
// goroutine; the SeparationGuided condensation heuristic shares the rows
// of each of its sweeps over the whole budget. A sweep takes at most one
// goroutine per 64 rows. 0 (the default) means GOMAXPROCS; 1 forces fully
// serial execution, in stage order. Results are bit-identical for every
// value.
func WithWorkers(n int) Option { return func(o *options) { o.workers = n } }

// WithRaceStrategies switches the WithFallback chain from serial retry to
// a portfolio race: every strategy in the chain runs concurrently on its
// own clone of the replicated graph, the first acceptable (error-free)
// result wins, and the rest are cancelled and recorded in
// Result.Degradations — losers carry the reason "lost race to <winner>"
// when they were merely outpaced, or their own failure when they broke
// independently. With no fallback chain the option is a no-op. The winning
// Result is always one a serial run of that same strategy would have
// produced; which strategy wins may vary run to run (that is the point of
// racing).
func WithRaceStrategies() Option { return func(o *options) { o.race = true } }

// WithTimeout bounds the whole integration run: the context handed to
// IntegrateContext is wrapped with this deadline. Expiry surfaces as a
// *StageError wrapping context.DeadlineExceeded from whichever stage the
// pipeline was in. Zero (the default) means no deadline beyond the
// caller's context.
func WithTimeout(d time.Duration) Option { return func(o *options) { o.timeout = d } }

// WithAttemptTimeout bounds each strategy attempt of the condense+map
// phase separately. When an attempt exceeds the budget it is abandoned
// and — if WithFallback configured further strategies — the next one is
// tried with a fresh budget; without a fallback the deadline error is
// returned. Zero (the default) means attempts share the run's deadline.
func WithAttemptTimeout(d time.Duration) Option { return func(o *options) { o.attemptTimeout = d } }

// Result is the complete output of an integration run.
type Result struct {
	// System echoes the input specification.
	System *System
	// Initial is the process-level influence graph (Fig. 3).
	Initial *graph.Graph
	// Expanded is the replicated graph (Fig. 4).
	Expanded *graph.Graph
	// Condensed is the reduced cluster graph (Figs. 5–8).
	Condensed *graph.Graph
	// Trace records the combination steps of the reduction.
	Trace []Step
	// Assignment maps clusters to HW nodes.
	Assignment Assignment
	// Report is the §5.3 goodness evaluation.
	Report Report
	// Separation holds the Eq. (3) separation matrix over the initial
	// process graph, indexed by SeparationIndex.
	Separation      [][]float64
	SeparationIndex []string
	// Reliability is the analytic dependability summary.
	Reliability metrics.SystemReport
	// RefinementMoves counts dilation-refinement moves applied (0 when
	// refinement was disabled or unnecessary).
	RefinementMoves int
	// Degradations records every strategy the fallback chain gave up on
	// before Strategy succeeded (empty on a first-try success).
	Degradations []Degradation
	// Strategy and ApproachUsed echo the configuration; with a fallback
	// chain, Strategy is the strategy that actually produced the mapping.
	Strategy     Strategy
	ApproachUsed Approach
}

// ErrNilSystem is returned when Integrate receives a nil specification.
var ErrNilSystem = errors.New("depint: nil system")

// StageError is the structured error every pipeline failure is classified
// into: the stage it escaped from, the heuristic or rule involved, the
// offending node when known, and the cause (errors.Is/As see through it).
// A StageError born from a recovered panic wraps ErrPanic and carries the
// goroutine stack.
type StageError = stage.Error

// Taxonomy sentinels, re-exported for callers routing on errors.Is.
var (
	// ErrPanic marks a StageError produced by the panic firewall at a
	// stage boundary — library callers never see a raw panic.
	ErrPanic = stage.ErrPanic
	// ErrFallbackExhausted marks a run whose every fallback strategy
	// failed; the last strategy's error is joined alongside.
	ErrFallbackExhausted = stage.ErrExhausted
)

// Degradation records one abandoned strategy of a fallback chain.
type Degradation struct {
	// Stage is the pipeline stage the strategy failed in ("condense" or
	// "map").
	Stage string
	// Strategy is the heuristic given up on.
	Strategy Strategy
	// Reason is the rendered failure that triggered the fallback.
	Reason string
}

// String renders "H2-min-cut failed in condense: …".
func (d Degradation) String() string {
	return fmt.Sprintf("%s failed in %s: %s", d.Strategy, d.Stage, d.Reason)
}

// Integrate runs the full pipeline on a system specification with no
// deadline (beyond WithTimeout, when given).
func Integrate(sys *System, opts ...Option) (*Result, error) {
	return IntegrateContext(context.Background(), sys, opts...)
}

// runStage executes fn as one pipeline stage: a cooperative cancellation
// check first, then the body behind the panic firewall. Failures are
// classified into *StageError and recorded on the stage's telemetry span;
// a recovered panic additionally lands its stack there as a "panic" event.
func runStage(ctx context.Context, sp *obs.Span, name string, fn func() error) error {
	defer sp.End()
	return runStageOpen(ctx, sp, name, fn)
}

// runStageOpen is runStage without ending sp, for a stage whose work
// outlives its body (the influence stage's background sweep).
func runStageOpen(ctx context.Context, sp *obs.Span, name string, fn func() error) error {
	if p := sp.Profiler(); p != nil {
		p.StageStart(name)
		defer p.StageEnd(name)
	}
	err := stage.Check(ctx, name)
	if err == nil {
		err = stage.Run(name, fn)
	}
	recordFailure(sp, err)
	return err
}

// recordFailure records a stage failure on its span: the error, and for
// a recovered panic its stack as a "panic" event.
func recordFailure(sp *obs.Span, err error) {
	if err == nil {
		return
	}
	sp.SetAttr(obs.String("error", err.Error()))
	var se *stage.Error
	if errors.As(err, &se) && len(se.Stack) > 0 {
		sp.Event("panic", obs.String("stage", se.Stage), obs.String("stack", string(se.Stack)))
	}
}

// separation is the influence stage's Eq. (3) sweep. Nothing before
// evaluate reads its matrix, so unless the worker budget is one it runs
// on one background goroutine beside replicate, condense and map.
type separation struct {
	ids []string
	sep [][]float64
	// err is the background sweep's failure, classified under the
	// influence stage.
	err error
	// done is closed when a background sweep ends; nil when the sweep ran
	// inline.
	done chan struct{}
}

// start sweeps m. With a budget of one worker (WithWorkers(1), or
// GOMAXPROCS 1) it sweeps inline and returns the sweep's error, so the
// run keeps its serial order. Otherwise it returns nil at once and a
// goroutine sweeps m, with the budget less the main goroutine as its row
// pool, behind the influence stage's panic firewall; that goroutine
// records a failure on sp and ends sp when the sweep ends.
func (s *separation) start(ctx context.Context, sp *obs.Span, m graph.Sparse, order, workers int) error {
	s.ids = m.IDs
	sweep := func(width int) error {
		sep, err := influence.SeparationSparse(ctx, m, order, width)
		if err != nil {
			return fmt.Errorf("separation: %w", err)
		}
		s.sep = sep
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 {
		return sweep(1)
	}
	s.done = make(chan struct{})
	go func() {
		defer close(s.done)
		defer sp.End()
		s.err = stage.Run("influence", func() error { return sweep(workers - 1) })
		recordFailure(sp, s.err)
	}()
	return nil
}

// wait joins the sweep and installs its matrix in res.
func (s *separation) wait(res *Result) error {
	if s.done != nil {
		<-s.done
	}
	if s.err != nil {
		return s.err
	}
	res.Separation, res.SeparationIndex = s.sep, s.ids
	return nil
}

// stageOf extracts the stage name a classified error escaped from.
func stageOf(err error, fallback string) string {
	var se *stage.Error
	if errors.As(err, &se) && se.Stage != "" {
		return se.Stage
	}
	return fallback
}

// IntegrateContext runs the full pipeline under a context: the deadline or
// cancellation of ctx propagates into the condensation heuristics, the
// Eq. (3) separation series, the mapping refiner and every stage boundary,
// so a cancelled run returns promptly with a *StageError wrapping
// ctx.Err() — never a partial result and never a panic.
func IntegrateContext(ctx context.Context, sys *System, opts ...Option) (*Result, error) {
	if sys == nil {
		return nil, ErrNilSystem
	}
	if ctx == nil {
		ctx = context.Background()
	}
	o := options{
		strategy:          H1,
		approach:          ByImportance,
		criticalThreshold: 10,
	}
	for _, opt := range opts {
		opt(&o)
	}
	if !o.weightsSet {
		w, err := attrs.DefaultWeights()
		if err != nil {
			return nil, err
		}
		o.weights = w
	}
	if o.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.timeout)
		defer cancel()
	}

	// Provenance: stamp the run identity (what is being integrated, under
	// which configuration) before the first decision is recorded.
	if o.ledger != nil {
		o.ledger.MergeHeader(ledger.Header{
			System:      sys.Name,
			Strategy:    o.strategy.String(),
			Approach:    o.approach.String(),
			HWNodes:     sys.HWNodes,
			Fingerprint: runFingerprint(sys, &o),
		})
	}

	// Telemetry: one root span with a child per pipeline stage. Every span
	// handle below is nil — and every span call a no-op — when no observer
	// is installed, keeping the default path uninstrumented.
	var root *obs.Span
	if o.observer != nil {
		defer sched.Observe(o.observer.Metrics())()
		root = o.observer.StartSpan("integrate",
			obs.String("system", sys.Name),
			obs.String("strategy", o.strategy.String()),
			obs.String("approach", o.approach.String()),
			obs.Int("hw_nodes", sys.HWNodes))
	}
	defer root.End()

	// Stage 1: partition — the specification names the process-level FCMs.
	sp := root.StartChild("partition")
	if err := runStage(ctx, sp, "partition", func() error {
		if err := sys.Validate(); err != nil {
			return err
		}
		sp.SetAttr(obs.Int("processes", len(sys.Processes)))
		return nil
	}); err != nil {
		return nil, err
	}
	if o.ledger != nil {
		for _, p := range sys.Processes {
			o.ledger.Append(ledger.Record{
				Kind: ledger.KindPartition, Stage: "partition", A: p.Name,
				Score:  p.Criticality,
				Detail: fmt.Sprintf("ft %d, window [%g, %g], ct %g", p.FT, p.EST, p.TCD, p.CT),
			})
		}
	}

	// Stage 2: influence — the directed influence graph plus the Eq. (3)
	// separation analysis over it. The sweep may go on beside stages 3–5
	// (see separation); its span then ends when it does.
	res := &Result{
		System:       sys,
		Strategy:     o.strategy,
		ApproachUsed: o.approach,
	}
	sp = root.StartChild("influence")
	var sweep separation
	err := runStageOpen(ctx, sp, "influence", func() error {
		// The partition stage has validated sys.
		initial, err := sys.ValidGraph()
		if err != nil {
			return err
		}
		res.Initial = initial
		sp.SetAttr(obs.Int("nodes", initial.NumNodes()), obs.Int("edges", initial.NumEdges()))
		return sweep.start(ctx, sp, initial.SparseMatrix(), o.separationOrder, o.workers)
	})
	if sweep.done == nil {
		sp.End() // no background sweep is left to end it
	}
	if err != nil {
		return nil, err
	}
	if o.ledger != nil {
		o.ledger.Append(ledger.Record{
			Kind: ledger.KindInfluence, Stage: "influence",
			Detail: fmt.Sprintf("%d nodes, %d influence edges, Eq.3 separation analysed",
				res.Initial.NumNodes(), res.Initial.NumEdges()),
		})
	}

	// Stages 3–5. A failed sweep is the earlier stage's error, so it takes
	// precedence over theirs, as pipeline order has it.
	platform, req, err := expandCondenseMap(ctx, &o, root, res, sys)
	if serr := sweep.wait(res); serr != nil {
		return nil, serr
	}
	if err != nil {
		return nil, err
	}

	// Stage 6: evaluation.
	sp = root.StartChild("evaluate")
	if err := runStage(ctx, sp, "evaluate", func() error {
		res.Report = mapping.Evaluate(res.Expanded, res.Assignment, platform, mapping.EvalConfig{
			CriticalThreshold: o.criticalThreshold,
			Requirements:      req,
		})

		// Analytic reliability (intrinsic fault probability defaults to a
		// uniform placeholder; see Reliability option on faultsim for the
		// measured path).
		mods := make([]metrics.ModuleSpec, 0, len(sys.Processes))
		for _, proc := range sys.Processes {
			mods = append(mods, metrics.ModuleSpec{
				Name:      proc.Name,
				FaultProb: 0.1,
				Replicas:  proc.FT,
				Majority:  proc.FT >= 3,
			})
		}
		var err error
		res.Reliability, err = metrics.SystemReliability(mods)
		if err != nil {
			return fmt.Errorf("reliability: %w", err)
		}
		sp.SetAttr(
			obs.Float("containment", res.Report.Containment),
			obs.Bool("constraints_ok", res.Report.ConstraintsOK))
		return nil
	}); err != nil {
		return nil, err
	}
	if o.ledger != nil {
		ok := 0.0
		if res.Report.ConstraintsOK {
			ok = 1
		}
		o.ledger.Append(ledger.Record{
			Kind: ledger.KindMetrics, Stage: "evaluate",
			Values: map[string]float64{
				"containment":               res.Report.Containment,
				"cross_influence":           res.Report.CrossInfluence,
				"internal_influence":        res.Report.InternalInfluence,
				"comm_cost":                 res.Report.CommCost,
				"max_node_criticality":      res.Report.MaxNodeCriticality,
				"critical_pairs_colocated":  float64(res.Report.CriticalPairsColocated),
				"critical_pairs_shared_fcr": float64(res.Report.CriticalPairsSharedFCR),
				"constraints_ok":            ok,
				"system_reliability":        res.Reliability.SystemReliability,
				"refinement_moves":          float64(res.RefinementMoves),
			},
		})
	}
	return res, nil
}

// expandCondenseMap runs stages 3–5: replication expansion, then
// condensation and mapping under the fallback chain. It fills res's
// Expanded, Condensed, Trace, Assignment, RefinementMoves and
// Degradations, and returns the platform and the resource requirements
// evaluation checks against.
func expandCondenseMap(ctx context.Context, o *options, root *obs.Span, res *Result,
	sys *System) (*hw.Platform, mapping.Requirements, error) {
	// Stage 3: replication expansion.
	var exp *cluster.Expansion
	sp := root.StartChild("replicate")
	if err := runStage(ctx, sp, "replicate", func() error {
		var err error
		exp, err = cluster.Expand(res.Initial, sys.Jobs())
		if err != nil {
			return err
		}
		res.Expanded = exp.Graph.Clone()
		sp.SetAttr(obs.Int("replicas", exp.Graph.NumNodes()))
		return nil
	}); err != nil {
		return nil, nil, err
	}
	if o.ledger != nil {
		// One replicate record per base process (spec order), then the
		// weight-0 separation edges (graph order, one per pair).
		for _, p := range sys.Processes {
			o.ledger.Append(ledger.Record{
				Kind: ledger.KindReplicate, Stage: "replicate",
				A: p.Name, Members: exp.ReplicasOf[p.Name],
				Detail: fmt.Sprintf("ft %d", p.FT),
			})
		}
		for _, e := range res.Expanded.Edges() {
			if e.Replica && e.From < e.To {
				o.ledger.Append(ledger.Record{
					Kind: ledger.KindReplicaEdge, Stage: "replicate",
					A: e.From, B: e.To, Detail: "colocation forbidden",
				})
			}
		}
	}

	// The HW platform and resource requirements are strategy-independent;
	// build them once, before the condense+map attempts.
	platform := o.platform
	if platform == nil {
		var err error
		platform, err = hw.Complete(sys.HWNodes)
		if err != nil {
			return nil, nil, stage.Wrapf("map", "", "", err, "platform")
		}
		// The paper's HW model: homogeneous processors "with access to
		// equivalent sets of resources" — the default platform offers
		// every resource the specification mentions, on every node.
		for _, nodeName := range platform.Nodes() {
			node, nerr := platform.Node(nodeName)
			if nerr != nil {
				return nil, nil, stage.Wrapf("map", "", nodeName, nerr, "platform")
			}
			for _, p := range sys.Processes {
				for _, res := range p.Resources {
					node.Resources[res] = true
				}
			}
		}
	}
	req := o.requirements
	if req == nil {
		req = requirementsFromSpec(sys, exp)
	}

	// Stages 4+5: condensation and mapping, under the heuristic fallback
	// chain. Each attempt runs on its own copy of the replicated graph
	// (the sole attempt of a chain-free run uses it directly), under its
	// own deadline when WithAttemptTimeout is set. A failed attempt is
	// recorded as a degradation and the next strategy tried; cancellation
	// of the run's context aborts immediately instead of degrading.
	chain := append([]Strategy{o.strategy}, o.fallback...)
	var lastErr error
	if o.race && len(chain) > 1 {
		var fatal error
		lastErr, fatal = raceAttempts(ctx, o, root, res, sys, exp, platform, req, chain)
		if fatal != nil {
			// The run itself is cancelled or out of time: no fallback.
			return nil, nil, fatal
		}
	} else {
		lastErr = serialAttempts(ctx, o, root, res, sys, exp, platform, req, chain)
		if lastErr != nil && ctx.Err() != nil {
			return nil, nil, lastErr
		}
	}
	if lastErr != nil {
		if len(chain) > 1 {
			return nil, nil, &StageError{
				Stage: stageOf(lastErr, "condense"),
				Rule:  chain[len(chain)-1].String(),
				Err:   errors.Join(ErrFallbackExhausted, lastErr),
			}
		}
		return nil, nil, lastErr
	}
	return platform, req, nil
}

// runFingerprint hashes everything that determines the run's decisions:
// the specification and the configuration knobs that steer condensation,
// mapping and refinement. Two ledgers sharing a fingerprint are expected
// to be decision-identical (the contract ledger.Diff checks).
//
// The hashed bytes are appended by hand and equal json.Marshal of
//
//	struct {
//		System            *System  `json:"system"`
//		Chain             []string `json:"chain"`
//		Approach          string   `json:"approach"`
//		CriticalThreshold float64  `json:"critical_threshold"`
//		SeparationOrder   int      `json:"separation_order"`
//		RefineMoves       int      `json:"refine_moves"`
//		Race              bool     `json:"race"`
//	}
//
// for every specification json.Marshal accepts. A NaN or infinite value,
// which json.Marshal rejects, is written as a fixed token (NaN, +Inf,
// -Inf), so such a specification still gets one fingerprint.
func runFingerprint(sys *System, o *options) string {
	b := make([]byte, 0, 256+128*len(sys.Processes)+96*len(sys.Influences))
	b = append(b, `{"system":`...)
	b = appendSystemJSON(b, sys)
	b = append(b, `,"chain":[`...)
	b = ledger.AppendJSONString(b, o.strategy.String())
	for _, s := range o.fallback {
		b = ledger.AppendJSONString(append(b, ','), s.String())
	}
	b = ledger.AppendJSONString(append(b, `],"approach":`...), o.approach.String())
	b = ledger.AppendJSONFloat(append(b, `,"critical_threshold":`...), o.criticalThreshold)
	b = strconv.AppendInt(append(b, `,"separation_order":`...), int64(o.separationOrder), 10)
	b = strconv.AppendInt(append(b, `,"refine_moves":`...), int64(o.refineMoves), 10)
	b = strconv.AppendBool(append(b, `,"race":`...), o.race)
	return ledger.FingerprintBytes(append(b, '}'))
}

// appendSystemJSON appends a non-nil sys as json.Marshal encodes it,
// with runFingerprint's tokens for non-finite floats.
func appendSystemJSON(b []byte, sys *System) []byte {
	b = ledger.AppendJSONString(append(b, `{"name":`...), sys.Name)
	b = append(b, `,"processes":`...)
	if sys.Processes == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, p := range sys.Processes {
			if i > 0 {
				b = append(b, ',')
			}
			b = ledger.AppendJSONString(append(b, `{"name":`...), p.Name)
			b = ledger.AppendJSONFloat(append(b, `,"criticality":`...), p.Criticality)
			b = strconv.AppendInt(append(b, `,"ft":`...), int64(p.FT), 10)
			b = ledger.AppendJSONFloat(append(b, `,"est":`...), p.EST)
			b = ledger.AppendJSONFloat(append(b, `,"tcd":`...), p.TCD)
			b = ledger.AppendJSONFloat(append(b, `,"ct":`...), p.CT)
			if len(p.Resources) > 0 {
				b = appendStringsJSON(append(b, `,"resources":`...), p.Resources)
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b = append(b, `,"influences":`...)
	if sys.Influences == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, e := range sys.Influences {
			if i > 0 {
				b = append(b, ',')
			}
			b = ledger.AppendJSONString(append(b, `{"from":`...), e.From)
			b = ledger.AppendJSONString(append(b, `,"to":`...), e.To)
			b = ledger.AppendJSONFloat(append(b, `,"weight":`...), e.Weight)
			if len(e.Factors) > 0 {
				b = appendStringsJSON(append(b, `,"factors":`...), e.Factors)
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b = strconv.AppendInt(append(b, `,"hw_nodes":`...), int64(sys.HWNodes), 10)
	return append(b, '}')
}

// appendStringsJSON appends a string list as a JSON array.
func appendStringsJSON(b []byte, ss []string) []byte {
	b = append(b, '[')
	for i, s := range ss {
		if i > 0 {
			b = append(b, ',')
		}
		b = ledger.AppendJSONString(b, s)
	}
	return append(b, ']')
}

// integrateAttempt runs the condense and map stages for one strategy of
// the fallback chain, writing Condensed/Trace/Assignment/RefinementMoves
// into res on success. work is the graph the condenser may mutate; led is
// the provenance ledger decisions are appended to (nil = none; race mode
// hands each contender a scratch ledger so records never interleave).
func integrateAttempt(ctx context.Context, o *options, root *obs.Span, res *Result,
	sys *System, exp *cluster.Expansion, platform *hw.Platform, req mapping.Requirements,
	strat Strategy, work *graph.Graph, attempt int, led *ledger.Ledger) error {

	// Stage 4: condensation.
	sp := root.StartChild("condense",
		obs.String("strategy", strat.String()), obs.Int("attempt", attempt))
	cond := cluster.NewCondenser(work, exp.Jobs)
	cond.SetContext(ctx)
	cond.SetWorkers(o.workers)
	cond.SetLedger(led, attempt+1)
	cond.Observe(sp, o.observer.Metrics())
	target := sys.HWNodes
	if err := runStage(ctx, sp, "condense", func() error {
		var err error
		switch strat {
		case H1:
			err = cond.ReduceByInfluence(target)
		case H1PairAll:
			err = cond.ReduceByInfluencePairAll(target)
		case H2:
			err = cond.ReduceByMinCut(target)
		case H3:
			err = cond.ReduceBySpheres(target, o.weights)
		case Criticality:
			err = cond.ReduceByCriticality(target)
		case TimingOrder:
			err = cond.ReduceByTiming(target)
		case SeparationGuided:
			err = cond.ReduceBySeparation(target, o.separationOrder)
		case H2SourceTarget:
			err = cond.ReduceByMinCutST(target, o.weights)
		default:
			err = fmt.Errorf("depint: unknown strategy %d", int(strat))
		}
		if err != nil {
			return stage.Wrap("condense", strat.String(), "", err)
		}
		sp.SetAttr(obs.Int("clusters", cond.G.NumNodes()), obs.Int("merges", len(cond.Trace)))
		return nil
	}); err != nil {
		return err
	}

	// Stage 5: mapping.
	sp = root.StartChild("map",
		obs.String("approach", o.approach.String()), obs.Int("attempt", attempt))
	return runStage(ctx, sp, "map", func() error {
		var asg Assignment
		var decisions []mapping.Decision
		var err error
		switch o.approach {
		case ByImportance:
			asg, decisions, err = mapping.AssignByImportanceDetailed(cond.G, platform, o.weights, req)
		case Lexicographic:
			asg, decisions, err = mapping.AssignLexicographicDetailed(cond.G, platform, o.lexKinds, req)
		case FCRAware:
			asg, decisions, err = mapping.AssignCriticalityAwareDetailed(cond.G, platform, req, o.criticalThreshold)
		default:
			err = fmt.Errorf("depint: unknown approach %d", int(o.approach))
		}
		if err != nil {
			return stage.Wrap("map", o.approach.String(), "", err)
		}
		if led != nil {
			for _, d := range decisions {
				alts := make([]ledger.Alternative, len(d.Alternatives))
				for i, a := range d.Alternatives {
					alts[i] = ledger.Alternative{Node: a.Node, Cost: a.Cost}
				}
				led.Append(ledger.Record{
					Kind: ledger.KindPlace, Stage: "map", Rule: o.approach.String(),
					A: d.Cluster, Node: d.Node, Cost: d.Cost,
					Alternatives: alts, Attempt: attempt + 1,
				})
			}
		}
		moves := 0
		// Optional dilation-refinement pass over the assignment.
		if o.refineMoves != 0 {
			budget := o.refineMoves
			if budget < 0 {
				budget = 0 // refiner default
			}
			asg, moves, err = mapping.Refine(ctx, asg, exp.Graph, platform, req, budget)
			if err != nil {
				return stage.Wrap("map", "refine", "", err)
			}
			if led != nil && moves > 0 {
				led.Append(ledger.Record{
					Kind: ledger.KindRefine, Stage: "map", Rule: "dilation-refine",
					Detail:  fmt.Sprintf("%d moves applied after initial placement", moves),
					Attempt: attempt + 1,
				})
			}
		}
		res.Condensed = cond.G
		res.Trace = cond.Trace
		res.Assignment = asg
		res.RefinementMoves = moves
		sp.SetAttr(obs.Int("refinement_moves", moves))
		return nil
	})
}

// requirementsFromSpec expands per-process resource requirements onto
// replica names.
func requirementsFromSpec(sys *System, exp *cluster.Expansion) mapping.Requirements {
	req := mapping.Requirements{}
	for _, p := range sys.Processes {
		if len(p.Resources) == 0 {
			continue
		}
		for _, rep := range exp.ReplicasOf[p.Name] {
			req[rep] = append([]string(nil), p.Resources...)
		}
	}
	return req
}

// HWOf flattens the assignment into a base-replica → HW-node map, the form
// the fault-injection campaign consumes.
func (r *Result) HWOf() map[string]string {
	out := map[string]string{}
	for clusterID, node := range r.Assignment {
		for _, m := range graph.Members(clusterID) {
			out[m] = node
		}
	}
	return out
}

// InjectFaults runs a seeded Monte-Carlo fault-injection campaign over the
// integrated system's expanded graph and mapping (experiment E3's
// machinery), returning propagation and containment statistics.
func (r *Result) InjectFaults(trials int, seed uint64) (faultsim.Result, error) {
	return faultsim.Run(faultsim.Campaign{
		Graph:             r.Expanded,
		HWOf:              r.HWOf(),
		Trials:            trials,
		Seed:              seed,
		CriticalThreshold: 10,
	})
}

// SeparationOf returns the Eq. (3) separation between two processes of the
// initial graph.
func (r *Result) SeparationOf(a, b string) (float64, error) {
	ia, ib := -1, -1
	for i, id := range r.SeparationIndex {
		if id == a {
			ia = i
		}
		if id == b {
			ib = i
		}
	}
	if ia < 0 || ib < 0 {
		return 0, fmt.Errorf("depint: unknown process in separation query: %q/%q", a, b)
	}
	return r.Separation[ia][ib], nil
}
