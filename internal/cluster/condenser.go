// Package cluster implements the SW-graph condensation machinery of the
// integration framework (ICDCS 1998 §5.2, §5.4, §6): replication expansion,
// the reduction heuristics H1–H3, the criticality-driven pairing of §6.2
// (Approach B), and the timing-ordered grouping of Fig. 8.
//
// The problem being solved (§5.4): "Given a graph with directed weighted
// edges, group the nodes into sets such that the sum of weights between the
// sets is minimized" — subject to the feasibility constraints (replicas must
// separate, every group must be schedulable on one processor).
package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/attrs"
	"repro/internal/graph"
	"repro/internal/influence"
	"repro/internal/ledger"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/stage"
)

// Errors returned by reduction operations.
var (
	// ErrCannotReduce means no feasible merge exists but the node count is
	// still above target — the integration-level limit the paper asks
	// about ("Is there a limit to the level of integration one should
	// design for?").
	ErrCannotReduce = errors.New("cluster: no feasible combination can reduce the graph further")
	// ErrBadTarget marks a target node count below 1 or above the current
	// node count.
	ErrBadTarget = errors.New("cluster: invalid target node count")
)

// Step records one combination step of a reduction trace.
type Step struct {
	// A and B are the node (or cluster) ids combined.
	A, B string
	// Mutual is the mutual influence between them at combination time.
	Mutual float64
	// Result is the id of the combined node.
	Result string
	// Rule names the heuristic step, e.g. "H1", "criticality-pair".
	Rule string
}

// String renders the step for traces.
func (s Step) String() string {
	return fmt.Sprintf("%s: %s + %s (mutual %.3g) -> %s", s.Rule, s.A, s.B, s.Mutual, s.Result)
}

// Condenser reduces a software influence graph to a target number of
// cluster nodes while enforcing the framework's feasibility constraints:
// replicas never share a cluster, and every cluster's job set must be
// schedulable on one processor.
type Condenser struct {
	// G is the working graph, mutated by reductions.
	G *graph.Graph
	// jobs are the scheduling jobs of the base nodes, sorted by name.
	// jobsValid records that each passed sched.Job.Validate when the
	// condenser was built, so the oracle need not validate them again.
	jobs      []sched.Job
	jobsValid bool
	// baseJobs caches jobs by the graph's base-node ids (jobsGraph's), and
	// hasJob marks the ids with a job.
	jobsGraph *graph.Graph
	baseJobs  []sched.Job
	hasJob    []bool
	// union is the reused buffer holding the joint job set of the pair or
	// group under test; bases and pair are scratch for member ids and
	// the slots of a merge.
	union []sched.Job
	bases []int32
	pair  [2]int
	// Trace accumulates the combination steps in order.
	Trace []Step
	// span receives one event per merge / backtrack; metrics count the
	// candidate pairs examined and their feasibility verdicts. Both are
	// nil (and cost one pointer check) unless Observe installs them.
	span    *obs.Span
	metrics *condMetrics
	// ctx, when set via SetContext, is polled cooperatively at the head
	// of every reduction loop so a deadline or cancellation aborts the
	// condensation promptly instead of after the full O(n²·sched) sweep.
	ctx context.Context
	// workers, when set via SetWorkers, sizes the goroutine pool of the
	// separation sweeps inside ReduceBySeparation (0 = GOMAXPROCS).
	workers int
	// led, when set via SetLedger, receives one provenance record per
	// merge and backtrack, stamped with ledAttempt. Nil (the default)
	// records nothing.
	led        *ledger.Ledger
	ledAttempt int
}

// SetContext installs a cancellation context on the condenser. All Reduce*
// loops poll it and return a stage-classified error wrapping ctx.Err()
// when it fires. A nil context (the default) disables the checks.
func (c *Condenser) SetContext(ctx context.Context) { c.ctx = ctx }

// SetWorkers sizes the worker pool used by the Eq. 3 separation sweeps
// (ReduceBySeparation). 0 or negative means GOMAXPROCS. The reduction is
// bit-identical for every value; only wall-clock time changes.
func (c *Condenser) SetWorkers(n int) { c.workers = n }

// SetLedger installs a decision-provenance ledger on the condenser: every
// Combine appends a merge record (rule, operands, Eq. 4 mutual influence,
// resulting cluster) and every backtrack a backtrack record, stamped with
// the given fallback-attempt number. A nil ledger records nothing.
func (c *Condenser) SetLedger(l *ledger.Ledger, attempt int) {
	c.led, c.ledAttempt = l, attempt
}

// checkCtx is the cooperative cancellation check-point of the reduction
// hot loops.
func (c *Condenser) checkCtx() error {
	return stage.Check(c.ctx, "condense")
}

// condMetrics caches the condenser's instrument handles.
type condMetrics struct {
	pairsConsidered  *obs.Counter
	pairsFeasible    *obs.Counter
	rejectedReplica  *obs.Counter
	rejectedTiming   *obs.Counter
	merges           *obs.Counter
	backtracks       *obs.Counter
	verdictReuses    *obs.Counter
	mergeMutual      *obs.Histogram
	clusterSizeAfter *obs.Gauge
}

// Observe installs telemetry on the condenser: merge and backtrack events
// are appended to span, candidate-pair counters to reg. Either may be nil.
func (c *Condenser) Observe(span *obs.Span, reg *obs.Registry) {
	c.span = span
	if reg == nil {
		c.metrics = nil
		return
	}
	c.metrics = &condMetrics{
		pairsConsidered:  reg.Counter("cluster_candidate_pairs_total", "candidate pairs examined by CanCombine"),
		pairsFeasible:    reg.Counter("cluster_feasible_pairs_total", "candidate pairs passing replica and timing checks"),
		rejectedReplica:  reg.Counter("cluster_rejected_replica_total", "pairs rejected for replica separation"),
		rejectedTiming:   reg.Counter("cluster_rejected_timing_total", "pairs rejected as timing infeasible"),
		merges:           reg.Counter("cluster_merges_total", "combination steps applied"),
		backtracks:       reg.Counter("cluster_backtracks_total", "criticality-pairing backtracks"),
		verdictReuses:    reg.Counter("cluster_verdict_reuses_total", "feasibility verdicts H1 took from its memo instead of the oracle"),
		mergeMutual:      reg.Histogram("cluster_merge_mutual_influence", "mutual influence of applied merges", nil),
		clusterSizeAfter: reg.Gauge("cluster_nodes_current", "working-graph node count"),
	}
}

// NewCondenser wraps a graph (typically the output of Expand) and the jobs
// of its base nodes. The graph is used directly, not copied: clone before
// constructing if the original must survive. Jobs already sorted by name
// are used directly too and must not change afterwards.
func NewCondenser(g *graph.Graph, jobs []sched.Job) *Condenser {
	n := len(jobs)
	c := &Condenser{
		G:         g,
		jobs:      sortedJobs(jobs),
		jobsValid: true,
		baseJobs:  make([]sched.Job, 0, n),
		hasJob:    make([]bool, 0, n),
		union:     make([]sched.Job, 0, n),
	}
	for _, j := range jobs {
		if j.Validate() != nil {
			c.jobsValid = false
			break
		}
	}
	return c
}

// fits asks the feasibility oracle whether jobs, drawn from c.jobs, fit
// on one processor. When c.jobs hold an invalid job every set goes to
// sched.Check, so a set holding it gets Check's ErrBadJob error.
func (c *Condenser) fits(jobs []sched.Job) (bool, error) {
	if c.jobsValid {
		return sched.CheckValid(jobs), nil
	}
	return sched.Check(jobs)
}

// sortedJobs returns jobs sorted by name, stably, copying them only when
// they are not sorted already.
func sortedJobs(jobs []sched.Job) []sched.Job {
	byName := func(a, b sched.Job) int { return strings.Compare(a.Name, b.Name) }
	if slices.IsSortedFunc(jobs, byName) {
		return jobs
	}
	jobs = slices.Clone(jobs)
	slices.SortStableFunc(jobs, byName)
	return jobs
}

// findJob returns the job named name in jobs, which are sorted by name;
// of several, the last, as a map filled from jobs in order would hold.
func findJob(jobs []sched.Job, name string) (sched.Job, bool) {
	i := sort.Search(len(jobs), func(i int) bool { return jobs[i].Name > name })
	if i > 0 && jobs[i-1].Name == name {
		return jobs[i-1], true
	}
	return sched.Job{}, false
}

// appendJobs appends the scheduling jobs of the base members of slot s to
// dst, in member order.
func (c *Condenser) appendJobs(dst []sched.Job, s int) []sched.Job {
	if c.jobsGraph != c.G {
		c.jobsGraph, c.baseJobs, c.hasJob = c.G, c.baseJobs[:0], c.hasJob[:0]
	}
	c.bases = c.G.AppendMembers(c.bases[:0], s)
	for _, b := range c.bases {
		for int(b) >= len(c.baseJobs) {
			j, ok := findJob(c.jobs, c.G.BaseName(int32(len(c.baseJobs))))
			c.baseJobs, c.hasJob = append(c.baseJobs, j), append(c.hasJob, ok)
		}
		if c.hasJob[b] {
			dst = append(dst, c.baseJobs[b])
		}
	}
	return dst
}

// timingInfeasible is the reason combinable gives for a pair whose joint
// job set does not fit on one processor.
const timingInfeasible = "timing infeasible"

// CanCombine reports whether nodes a and b may be combined, and if not,
// why: replicas must stay apart (§5.2), and the union of their jobs must be
// schedulable on one processor (§6). A timing rejection names the tightest
// window. Verdicts are counted when the condenser is observed.
func (c *Condenser) CanCombine(a, b string) (bool, string) {
	ok, why := c.combinable(a, b)
	if why == timingInfeasible {
		why += ": " + sched.Witness(c.union)
	}
	return ok, why
}

// combinable is CanCombine without the timing witness, for the reduction
// loops that discard the reason. After a timing rejection c.union still
// holds the pair's jobs.
func (c *Condenser) combinable(a, b string) (bool, string) {
	sa, okA := c.G.Slot(a)
	sb, okB := c.G.Slot(b)
	if !okA || !okB {
		if m := c.metrics; m != nil {
			m.pairsConsidered.Inc()
		}
		return false, "unknown node"
	}
	return c.combinableSlots(sa, sb)
}

// combinableSlots is combinable for two live slots.
func (c *Condenser) combinableSlots(a, b int) (bool, string) {
	if why := c.precheck(a, b); why != "" {
		return false, why
	}
	v, err := c.schedule(a, b)
	c.book(v)
	switch v {
	case oracleError:
		return false, err.Error()
	case timingRejected:
		return false, timingInfeasible
	}
	return true, ""
}

// verdict is the feasibility oracle's answer for the joint job set of a
// pair; unchecked marks a pair it has not been asked about.
type verdict int8

const (
	unchecked verdict = iota
	feasible
	timingRejected
	oracleError // the oracle returned an error
)

// precheck counts a candidate pair and applies the checks that need no
// oracle. It returns why a and b may not combine, or "".
func (c *Condenser) precheck(a, b int) string {
	if m := c.metrics; m != nil {
		m.pairsConsidered.Inc()
	}
	if a == b {
		return "same node"
	}
	if c.G.AreReplicaSlots(a, b) {
		if m := c.metrics; m != nil {
			m.rejectedReplica.Inc()
		}
		return "replicas of one module"
	}
	return ""
}

// schedule asks the oracle whether the jobs of a and then b fit on one
// processor; the error is the oracle's under oracleError. Afterwards
// c.union holds the jobs.
func (c *Condenser) schedule(a, b int) (verdict, error) {
	c.union = c.appendJobs(c.appendJobs(c.union[:0], a), b)
	ok, err := c.fits(c.union)
	switch {
	case err != nil:
		return oracleError, err
	case !ok:
		return timingRejected, nil
	}
	return feasible, nil
}

// book counts an oracle verdict as combinableSlots reports it.
func (c *Condenser) book(v verdict) {
	m := c.metrics
	if m == nil {
		return
	}
	switch v {
	case feasible:
		m.pairsFeasible.Inc()
	case timingRejected:
		m.rejectedTiming.Inc()
	}
}

// Combine merges two nodes (after a CanCombine check) using the Eq. (4)
// influence combination, records the step under the given rule label, and
// returns the new cluster id.
func (c *Condenser) Combine(a, b, rule string) (string, error) {
	sa, okA := c.G.Slot(a)
	sb, okB := c.G.Slot(b)
	if !okA || !okB {
		_, why := c.CanCombine(a, b)
		return "", fmt.Errorf("cluster: cannot combine %q and %q: %s", a, b, why)
	}
	s, err := c.combineSlots(sa, sb, rule)
	if err != nil {
		return "", err
	}
	return c.G.Name(s), nil
}

// combineSlots is Combine for two live slots; it returns the cluster's
// slot, which is a's.
func (c *Condenser) combineSlots(sa, sb int, rule string) (int, error) {
	if ok, why := c.combinableSlots(sa, sb); !ok {
		if why == timingInfeasible {
			why += ": " + sched.Witness(c.union)
		}
		return 0, fmt.Errorf("cluster: cannot combine %q and %q: %s", c.G.Name(sa), c.G.Name(sb), why)
	}
	return c.mergeSlots(sa, sb, rule)
}

// mergeSlots is combineSlots without the feasibility check, for a pair
// whose verdict its caller already holds.
func (c *Condenser) mergeSlots(sa, sb int, rule string) (int, error) {
	a, b := c.G.Name(sa), c.G.Name(sb)
	mutual := c.G.MutualSlots(sa, sb)
	c.pair = [2]int{sa, sb}
	s, err := c.G.ContractSlots(c.pair[:], influence.MustCombine)
	if err != nil {
		return 0, fmt.Errorf("cluster: contract: %w", err)
	}
	id := c.G.Name(s)
	c.Trace = append(c.Trace, Step{A: a, B: b, Mutual: mutual, Result: id, Rule: rule})
	c.led.Append(ledger.Record{
		Kind: ledger.KindMerge, Stage: "condense", Rule: rule,
		A: a, B: b, Score: mutual, Result: id, Attempt: c.ledAttempt,
	})
	if c.span != nil {
		c.span.Event("merge",
			obs.String("rule", rule),
			obs.String("a", a),
			obs.String("b", b),
			obs.Float("mutual", mutual),
			obs.String("result", id),
			obs.Int("nodes_left", c.G.NumNodes()))
	}
	if m := c.metrics; m != nil {
		m.merges.Inc()
		m.mergeMutual.Observe(mutual)
		m.clusterSizeAfter.Set(float64(c.G.NumNodes()))
	}
	return s, nil
}

// backtrack books one undone pairing decision of the criticality search
// (§6.2's conflict resolution) as an event and a counter tick.
func (c *Condenser) backtrack(hi, lo string) {
	c.led.Append(ledger.Record{
		Kind: ledger.KindBacktrack, Stage: "condense", Rule: "criticality-pair",
		A: hi, B: lo, Detail: "pairing conflict, partner choice undone",
		Attempt: c.ledAttempt,
	})
	if c.span != nil {
		c.span.Event("backtrack",
			obs.String("high", hi),
			obs.String("low", lo),
			obs.String("why", "pairing conflict, partner choice undone"))
	}
	if m := c.metrics; m != nil {
		m.backtracks.Inc()
	}
}

// Partition returns the current node groups as member lists, sorted.
func (c *Condenser) Partition() [][]string {
	nodes := c.G.Nodes()
	out := make([][]string, 0, len(nodes))
	for _, id := range nodes {
		out = append(out, graph.Members(id))
	}
	return out
}

// checkTarget validates a reduction target against the current graph and
// makes room in the trace for the merges that reach it.
func (c *Condenser) checkTarget(target int) error {
	n := c.G.NumNodes()
	if target < 1 || target > n {
		return fmt.Errorf("%w: target %d with %d nodes", ErrBadTarget, target, n)
	}
	c.Trace = slices.Grow(c.Trace, n-target)
	return nil
}

// criticalityOf reads a node's criticality attribute.
func (c *Condenser) criticalityOf(id string) float64 {
	return c.G.Attrs(id).Value(attrs.Criticality)
}
