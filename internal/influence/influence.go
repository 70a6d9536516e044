// Package influence implements the interaction metrics of the integration
// framework (ICDCS 1998 §4.2): per-factor fault probabilities, the
// influence of one FCM on another, the separation between FCMs, and the
// combination rule for clusters.
//
// Definitions (paper §4.2):
//
//   - Influence of FCM_i on FCM_j is the probability of FCM_i affecting
//     FCM_j at the same level if no third FCM at that level is considered.
//   - Separation of FCM_i and FCM_j is the probability of FCM_i NOT
//     affecting FCM_j when all other FCMs at the same level are considered.
//
// Equations:
//
//	(1)  p_i = p_i1 · p_i2 · p_i3
//	     (fault occurrence · transmission · manifestation)
//	(2)  FCM_i → FCM_j = 1 − (1−p_1)(1−p_2)···(1−p_n)
//	(3)  FCM_i ≁ FCM_j = 1 − [P_ij + Σ_k P_ik·P_kj + Σ_l Σ_k P_ik·P_kl·P_lj + …]
//	(4)  FCM_C → FCM_t = 1 − ∏_{i∈C} (1 − FCM_i → FCM_t)
package influence

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// ErrProbRange marks a probability outside [0,1].
var ErrProbRange = errors.New("influence: probability must be in [0,1]")

// Factor is one fault-transmission mechanism between two FCMs, with the
// three probability components of Eq. (1).
type Factor struct {
	// Name identifies the mechanism, e.g. "global-variables".
	Name string
	// POccur (p_i1) is the probability of a fault occurring in the source
	// FCM via this mechanism. The paper: "it can be measured from previous
	// usage of that FCM [or] derived by extensive testing".
	POccur float64
	// PTransmit (p_i2) is the probability of transmission to the target
	// FCM, depending on communication medium and data volume.
	PTransmit float64
	// PManifest (p_i3) is the probability of a resulting fault in the
	// target, determined "by injecting faults into the target FCM".
	PManifest float64
}

// P computes Eq. (1): the joint probability of this factor causing a fault
// in the target.
func (f Factor) P() float64 {
	return f.POccur * f.PTransmit * f.PManifest
}

// Combine computes Eq. (2): the influence of one FCM on another given the
// per-factor probabilities, assuming the factors act jointly and
// independently.
func Combine(ps []float64) (float64, error) {
	prod := 1.0
	for _, p := range ps {
		if p < 0 || p > 1 || math.IsNaN(p) {
			return 0, fmt.Errorf("%w: %g", ErrProbRange, p)
		}
		prod *= 1 - p
	}
	return 1 - prod, nil
}

// MustCombine is Combine for inputs already known to be valid (e.g. edge
// weights read back out of a validated graph). Out-of-range inputs are
// clamped rather than rejected, so it is safe as a graph.CombineWeights.
func MustCombine(ps []float64) float64 {
	prod := 1.0
	for _, p := range ps {
		prod *= 1 - clamp01(p)
	}
	return 1 - prod
}

func clamp01(p float64) float64 {
	switch {
	case math.IsNaN(p), p < 0:
		return 0
	case p > 1:
		return 1
	}
	return p
}

// ClusterInfluence computes Eq. (4): the influence of a cluster C on a
// target, from the individual member influences on that target. Matches
// MustCombine; kept as a named entry point mirroring the paper.
func ClusterInfluence(memberInfluences []float64) (float64, error) {
	return Combine(memberInfluences)
}

// DefaultMaxOrder is the default truncation order for the separation
// series of Eq. (3): paths of up to this many hops are accumulated. The
// paper: "At some point, higher-order terms are likely to be small enough
// to be neglected."
const DefaultMaxOrder = 8

// ErrMatrix marks an influence matrix the Eq. (3) sweep cannot take: a
// row of the wrong length, or an entry that is negative, NaN or infinite.
var ErrMatrix = errors.New("influence: matrix must be square, finite and non-negative")

// Separation computes Eq. (3) for the ordered pair (i, j) over the
// influence matrix p (p[a][b] = influence of a on b): one minus the sum of
// the direct influence plus all transitive path products up to maxOrder
// hops. Intermediate nodes range over the whole matrix, including i and j,
// exactly as the paper's double sums do. The result is clamped to [0,1]
// (the raw series can exceed 1 for strongly coupled systems, where
// separation is simply zero). A matrix that is not square, finite and
// non-negative is rejected with an error wrapping ErrMatrix.
//
// maxOrder < 1 uses DefaultMaxOrder.
func Separation(p [][]float64, i, j, maxOrder int) (float64, error) {
	n := len(p)
	if i < 0 || i >= n || j < 0 || j >= n {
		return 0, fmt.Errorf("influence: separation index out of range: (%d,%d) for n=%d", i, j, n)
	}
	m, err := newSparse(p)
	if err != nil {
		return 0, err
	}
	if i == j {
		return 0, nil // an FCM is never separated from itself
	}
	if maxOrder < 1 {
		maxOrder = DefaultMaxOrder
	}
	out := make([]float64, n)
	separationRow(m, i, maxOrder, out, make([]float64, 2*n))
	return out[j], nil
}

// newSparse validates p and copies its nonzeros into compressed rows. A
// counting pass checks every row and sizes the copy exactly.
func newSparse(p [][]float64) (graph.Sparse, error) {
	n := len(p)
	nnz := 0
	for i, row := range p {
		if len(row) != n {
			return graph.Sparse{}, fmt.Errorf("%w: row %d has %d entries, want %d", ErrMatrix, i, len(row), n)
		}
		for j, x := range row {
			if err := checkEntry(i, j, x); err != nil {
				return graph.Sparse{}, err
			}
			if x != 0 {
				nnz++
			}
		}
	}
	m := graph.Sparse{Start: make([]int, n+1), Ent: make([]graph.Entry, 0, nnz)}
	for i, row := range p {
		for j, x := range row {
			if x != 0 {
				m.Ent = append(m.Ent, graph.Entry{Col: j, W: x})
			}
		}
		m.Start[i+1] = len(m.Ent)
	}
	return m, nil
}

// checkEntry rejects a negative, NaN or infinite entry (i, j) of P.
func checkEntry(i, j int, x float64) error {
	if !(x >= 0) || math.IsInf(x, 1) {
		return fmt.Errorf("%w: row %d, column %d is %g", ErrMatrix, i, j, x)
	}
	return nil
}

// separationRow is the one Eq. (3) kernel: it computes the separation of
// source row i from every target in a single power-series sweep, writing
// the separations into out. reach[v] holds the summed edge-probability
// products of all paths of the current length from i to v; the recurrence
// depends only on the source row, so one sweep serves all n targets.
// Order 1 is seeded from row i's nonzeros. Each step then makes one pass
// over reach: a nonzero reach[k] is added into out[k], zeroed (so the
// buffer is clear again when it next serves as next) and pushed along
// row k's nonzeros into next; the last order is added into out as the
// clamp is applied. So out[v] still sums reach[v] order by order, and
// next receives the same terms in the same order (ascending k) as in the
// dense sweep over P, minus the r·0 = +0 ones, which leave a +0 or
// positive sum unchanged: the result is the dense sweep's bit for bit
// (for a finite, non-negative P whose path sums do not overflow).
// scratch holds 2n floats.
func separationRow(m graph.Sparse, i, maxOrder int, out, scratch []float64) {
	n := len(m.Start) - 1
	reach, next := scratch[:n], scratch[n:2*n]
	clear(scratch[:2*n])
	clear(out)
	for _, e := range m.Ent[m.Start[i]:m.Start[i+1]] {
		reach[e.Col] = e.W
	}
	for order := 1; order < maxOrder; order++ {
		for k, r := range reach {
			if r == 0 {
				continue
			}
			out[k] += r
			reach[k] = 0
			for _, e := range m.Ent[m.Start[k]:m.Start[k+1]] {
				next[e.Col] += r * e.W
			}
		}
		reach, next = next, reach
	}
	for v, x := range reach {
		out[v] = clamp01(1 - (out[v] + x))
	}
	out[i] = 0 // an FCM is never separated from itself
}

func sepRowErr(i, n int, err error) error {
	return fmt.Errorf("influence: separation matrix row %d/%d: %w", i, n, err)
}

// SeparationMatrixWorkers computes the separation matrix of the dense
// influence matrix p (see SeparationSparse). A matrix that is not square,
// finite and non-negative is rejected with an error wrapping ErrMatrix
// before any row is swept.
func SeparationMatrixWorkers(ctx context.Context, p [][]float64, maxOrder, workers int) ([][]float64, error) {
	m, err := newSparse(p)
	if err != nil {
		return nil, err
	}
	return sweep(ctx, m, maxOrder, workers)
}

// SeparationSparse computes the separation matrix of P given in
// compressed rows, as Graph.SparseMatrix returns it, with the
// O(n·nnz·maxOrder) power-series sweep chunked by row over a pool of at
// most workers goroutines (0 = GOMAXPROCS) and at most one per
// minRowsPerWorker rows. Every worker polls ctx once per row and the
// first cancellation aborts the sweep with an error wrapping ctx.Err().
// Row outputs are disjoint and each row's arithmetic is independent of the
// pool size, so the matrix is bit-identical for every worker count, and
// to SeparationMatrixWorkers over the dense form of the same P. A
// negative, NaN or infinite entry is rejected with an error wrapping
// ErrMatrix, naming the first such entry in row-major order, before any
// row is swept.
func SeparationSparse(ctx context.Context, m graph.Sparse, maxOrder, workers int) ([][]float64, error) {
	for i := 0; i+1 < len(m.Start); i++ {
		for _, e := range m.Ent[m.Start[i]:m.Start[i+1]] {
			if err := checkEntry(i, e.Col, e.W); err != nil {
				return nil, err
			}
		}
	}
	return sweep(ctx, m, maxOrder, workers)
}

// minRowsPerWorker is the row rule of the sweep's pool: a sweep gets one
// worker per minRowsPerWorker rows, at most. A row of a scenario's
// influence graph costs a few microseconds, so below 2·minRowsPerWorker
// rows a second worker's start-up and join outweigh the rows it takes
// (BenchmarkSeparationSweep: on a 2-vCPU Xeon 60 rows swept no faster
// on 2 workers than on 1, 240 rows took about two thirds of the time).
const minRowsPerWorker = 64

// sweep runs separationRow over every row of a validated m: the caller
// is worker 0 and workers−1 goroutines join it.
func sweep(ctx context.Context, m graph.Sparse, maxOrder, workers int) ([][]float64, error) {
	n := max(len(m.Start)-1, 0)
	if maxOrder < 1 {
		maxOrder = DefaultMaxOrder
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(min(workers, n/minRowsPerWorker), 1)
	// One allocation holds the result rows and each worker's 2n scratch
	// floats.
	backing := make([]float64, n*n+2*n*workers)
	out := make([][]float64, n)
	for i := range out {
		out[i] = backing[i*n : (i+1)*n : (i+1)*n]
	}
	s := &rowSweep{ctx: ctx, m: m, maxOrder: maxOrder, out: out}
	errs := make([]error, workers-1)
	for w := range errs {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			errs[w] = s.run(backing[n*n+2*n*(w+1) : n*n+2*n*(w+2)])
		}()
	}
	err := s.run(backing[n*n : n*n+2*n])
	s.wg.Wait()
	for _, e := range errs {
		err = cmp.Or(err, e)
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// rowSweep hands the rows of one separation sweep out to its workers.
type rowSweep struct {
	ctx      context.Context
	m        graph.Sparse
	maxOrder int
	out      [][]float64
	next     atomic.Int64
	failed   atomic.Bool
	wg       sync.WaitGroup
}

// run sweeps rows into s.out until none is left or a worker has failed,
// polling ctx once per row; the first cancellation fails the sweep.
func (s *rowSweep) run(scratch []float64) error {
	n := len(s.out)
	for {
		i := int(s.next.Add(1)) - 1
		if i >= n || s.failed.Load() {
			return nil
		}
		if s.ctx != nil {
			if err := s.ctx.Err(); err != nil {
				s.failed.Store(true)
				return sepRowErr(i, n, err)
			}
		}
		separationRow(s.m, i, s.maxOrder, s.out[i], scratch)
	}
}
