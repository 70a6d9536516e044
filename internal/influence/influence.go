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
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
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

// Validate checks all three components are probabilities.
func (f Factor) Validate() error {
	for _, p := range []float64{f.POccur, f.PTransmit, f.PManifest} {
		if p < 0 || p > 1 || math.IsNaN(p) {
			return fmt.Errorf("%w: factor %q has component %g", ErrProbRange, f.Name, p)
		}
	}
	return nil
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

// FromFactors computes the influence FCM_i → FCM_j from its contributing
// factors (Eqs. (1) and (2) composed).
func FromFactors(factors []Factor) (float64, error) {
	ps := make([]float64, 0, len(factors))
	for _, f := range factors {
		if err := f.Validate(); err != nil {
			return 0, err
		}
		ps = append(ps, f.P())
	}
	return Combine(ps)
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
	separationRow(p, m, i, maxOrder, out, make([]float64, 2*n))
	return out[j], nil
}

// sparse holds the nonzero entries of a square influence matrix by row:
// row k's are ent[start[k]:start[k+1]], by ascending column.
type sparse struct {
	start []int
	ent   []entry
}

type entry struct {
	col int
	p   float64
}

// newSparse validates p and copies its nonzeros. A counting pass checks
// every row and sizes the copy exactly.
func newSparse(p [][]float64) (sparse, error) {
	n := len(p)
	nnz := 0
	for i, row := range p {
		if len(row) != n {
			return sparse{}, fmt.Errorf("%w: row %d has %d entries, want %d", ErrMatrix, i, len(row), n)
		}
		for j, x := range row {
			if !(x >= 0) || math.IsInf(x, 1) {
				return sparse{}, fmt.Errorf("%w: row %d, column %d is %g", ErrMatrix, i, j, x)
			}
			if x != 0 {
				nnz++
			}
		}
	}
	m := sparse{start: make([]int, n+1), ent: make([]entry, 0, nnz)}
	for i, row := range p {
		for j, x := range row {
			if x != 0 {
				m.ent = append(m.ent, entry{j, x})
			}
		}
		m.start[i+1] = len(m.ent)
	}
	return m, nil
}

// separationRow is the one Eq. (3) kernel: it computes the separation of
// source row i from every target in a single power-series sweep, writing
// the separations into out. reach[v] holds the summed edge-probability
// products of all paths of the current length from i to v; the recurrence
// depends only on the source row, so one sweep serves all n targets.
// Each order costs O(nnz): it visits only the nonzeros m holds of p, in
// ascending k for every target, so it adds the same terms in the same
// order as the dense sweep over p minus the r·0 = +0 ones, and its result
// is the dense sweep's bit for bit (for a finite, non-negative p whose
// path sums do not overflow). scratch holds 2n floats.
func separationRow(p [][]float64, m sparse, i, maxOrder int, out, scratch []float64) {
	n := len(p)
	reach, next := scratch[:n], scratch[n:2*n]
	copy(reach, p[i])
	copy(out, reach)
	for order := 2; order <= maxOrder; order++ {
		clear(next)
		for k, r := range reach {
			if r == 0 {
				continue
			}
			for _, e := range m.ent[m.start[k]:m.start[k+1]] {
				next[e.col] += r * e.p
			}
		}
		reach, next = next, reach
		for v, x := range reach {
			out[v] += x
		}
	}
	for v := range out {
		out[v] = clamp01(1 - out[v])
	}
	out[i] = 0 // an FCM is never separated from itself
}

func sepRowErr(i, n int, err error) error {
	return fmt.Errorf("influence: separation matrix row %d/%d: %w", i, n, err)
}

// SeparationMatrixWorkers computes the separation matrix with its
// O(n·nnz·maxOrder) power-series sweep chunked by row over a pool of
// workers (0 = GOMAXPROCS). Every worker polls ctx once per row and the
// first cancellation aborts the sweep with an error wrapping ctx.Err().
// Row outputs are disjoint and each row's arithmetic is independent of the
// pool size, so the matrix is bit-identical for every worker count. A
// matrix that is not square, finite and non-negative is rejected with an
// error wrapping ErrMatrix before any row is swept.
func SeparationMatrixWorkers(ctx context.Context, p [][]float64, maxOrder, workers int) ([][]float64, error) {
	n := len(p)
	m, err := newSparse(p)
	if err != nil {
		return nil, err
	}
	if maxOrder < 1 {
		maxOrder = DefaultMaxOrder
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	out := make([][]float64, n)
	backing := make([]float64, n*n)
	for i := range out {
		out[i] = backing[i*n : (i+1)*n]
	}
	if workers <= 1 {
		scratch := make([]float64, 2*n)
		for i := 0; i < n; i++ {
			if ctx != nil {
				if err := ctx.Err(); err != nil {
					return nil, sepRowErr(i, n, err)
				}
			}
			separationRow(p, m, i, maxOrder, out[i], scratch)
		}
		return out, nil
	}
	var (
		nextRow atomic.Int64
		failed  atomic.Bool
		wg      sync.WaitGroup
		errs    = make([]error, workers)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w, maxOrder int) {
			defer wg.Done()
			scratch := make([]float64, 2*n)
			for {
				i := int(nextRow.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				if ctx != nil {
					if err := ctx.Err(); err != nil {
						errs[w] = sepRowErr(i, n, err)
						failed.Store(true)
						return
					}
				}
				separationRow(p, m, i, maxOrder, out[i], scratch)
			}
		}(w, maxOrder)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// SpectralRadius estimates the spectral radius of the influence matrix by
// power iteration on |P| (entries are non-negative already). The Eq. (3)
// series converges iff the radius is below 1; callers can use this to
// decide whether a truncation order is trustworthy — the guard the paper's
// "higher-order terms are likely to be small enough to be neglected"
// implicitly assumes.
func SpectralRadius(p [][]float64, iters int) float64 {
	n := len(p)
	if n == 0 {
		return 0
	}
	if iters < 1 {
		iters = 50
	}
	v := make([]float64, n)
	for i := range v {
		v[i] = 1
	}
	radius := 0.0
	for it := 0; it < iters; it++ {
		next := make([]float64, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				next[j] += v[i] * p[i][j]
			}
		}
		norm := 0.0
		for _, x := range next {
			if x > norm {
				norm = x
			}
		}
		if norm == 0 {
			return 0
		}
		for i := range next {
			next[i] /= norm
		}
		v = next
		radius = norm
	}
	return radius
}

// SeriesConverges reports whether the Eq. (3) series converges for the
// influence matrix (spectral radius strictly below 1), together with the
// estimated radius.
func SeriesConverges(p [][]float64) (bool, float64) {
	r := SpectralRadius(p, 100)
	return r < 1, r
}
