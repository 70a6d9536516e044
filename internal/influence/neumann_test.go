package influence_test

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/influence"
	"repro/internal/spec"
)

// neumannSlack is the rounding allowance of TestSeparationMatchesNeumann:
// the sweep's sums of at most 8·n non-negative path terms and the 1 − S
// round trip each err by a few ulps of 1, and Gauss–Jordan on I − P, whose
// condition number is at most (1 + q)/(1 − q) ≤ 39 for the norms q below
// 0.95 used here, by well under 1e-13 at these sizes.
const neumannSlack = 1e-12

// TestSeparationMatchesNeumann checks Eq. (3) against a closed form that
// shares no code with the sweep. When a norm q of P that bounds every
// entry and is submultiplicative — ‖P‖∞ (largest row sum) or ‖P‖₁
// (largest column sum), whichever is smaller — is below 1, the full
// series P + P² + … is N = (I − P)⁻¹ − I, and the sweep's truncation
// after DefaultMaxOrder = 8 orders leaves out Σ_{k>8} Pᵏ, whose entries
// are non-negative and at most q⁹/(1 − q). So wherever the separation s
// of i ≠ j is not clamped (s > 0), 1 − s must lie in
// [N_ij − tail − slack, N_ij + slack]; where it is clamped to 0 the series
// reached 1, so N_ij ≥ 1 − slack. N comes from a Gauss–Jordan inverse.
//
// The inputs are random matrices of 2–12 nodes with ‖P‖∞ spread over
// [0.1, 0.9], and the four built-in systems. No built-in has ‖P‖∞ < 1
// (PaperExample 1.3, FlightControl 1.1, BrakeByWire 1.9,
// IndustrialControl 1.0), but all four have ‖P‖₁ < 1 (0.90, 0.95, 0.85,
// 0.90). At those norms the tail bound is loose, so the built-ins hold
// the sweep mainly to never exceeding the full series. Dropping the last
// order from the sweep fails this test on the low-norm random matrices,
// where P⁸ is far above the tail bound; an extra order is not caught, as
// it only narrows the gap to N.
func TestSeparationMatchesNeumann(t *testing.T) {
	type input struct {
		name string
		p    [][]float64
	}
	var inputs []input
	for name, sys := range map[string]*spec.System{
		"PaperExample":      spec.PaperExample(),
		"FlightControl":     spec.FlightControl(),
		"BrakeByWire":       spec.BrakeByWire(),
		"IndustrialControl": spec.IndustrialControl(),
	} {
		g, err := sys.Graph()
		if err != nil {
			t.Fatal(err)
		}
		p, _ := g.Matrix()
		if q := norm(p); q >= 1 {
			t.Fatalf("%s: ‖P‖∞ and ‖P‖₁ are at least 1 (%g), out of the bound's reach", name, q)
		}
		inputs = append(inputs, input{name, p})
	}
	rng := rand.New(rand.NewPCG(1998, 3))
	for k := 0; k < 200; k++ {
		n := 2 + rng.IntN(11)
		target := 0.1 + 0.8*float64(k%9)/8 // 0.1, 0.2, …, 0.9 in turn
		inputs = append(inputs, input{fmt.Sprintf("random-%d", k), randomMatrix(rng, n, target)})
	}
	checked, clamped := 0, 0
	for _, in := range inputs {
		q := norm(in.p)
		tail := math.Pow(q, influence.DefaultMaxOrder+1) / (1 - q)
		sep, err := influence.SeparationMatrixWorkers(nil, in.p, influence.DefaultMaxOrder, 1)
		if err != nil {
			t.Fatal(err)
		}
		full := neumann(in.p)
		for i := range in.p {
			for j := range in.p {
				if i == j {
					continue
				}
				s, nij := sep[i][j], full[i][j]
				if s == 0 {
					clamped++
					if nij < 1-neumannSlack {
						t.Errorf("%s (q %.3g): separation(%d, %d) clamped to 0, but the full series is %.17g < 1",
							in.name, q, i, j, nij)
					}
					continue
				}
				checked++
				if d := 1 - s; d < nij-tail-neumannSlack || d > nij+neumannSlack {
					t.Errorf("%s (q %.3g): 1 − separation(%d, %d) = %.17g, want within [%.17g, %.17g]",
						in.name, q, i, j, d, nij-tail-neumannSlack, nij+neumannSlack)
				}
			}
		}
	}
	t.Logf("%d inputs, %d unclamped and %d clamped separations checked", len(inputs), checked, clamped)
}

// randomMatrix returns an n×n non-negative matrix with a zero diagonal,
// about half its other entries zero, and every row with a nonzero summing
// to norm up to rounding, so that Pᵏ keeps entries near normᵏ/n.
func randomMatrix(rng *rand.Rand, n int, norm float64) [][]float64 {
	p := make([][]float64, n)
	for i := range p {
		p[i] = make([]float64, n)
		sum := 0.0
		for j := range p[i] {
			if j != i && rng.IntN(2) == 0 {
				p[i][j] = rng.Float64()
				sum += p[i][j]
			}
		}
		if sum == 0 {
			continue
		}
		for j := range p[i] {
			p[i][j] *= norm / sum
		}
	}
	return p
}

// norm returns the smaller of ‖P‖∞ and ‖P‖₁ of the non-negative matrix
// p: its largest row sum or its largest column sum.
func norm(p [][]float64) float64 {
	rows, cols := 0.0, 0.0
	for i := range p {
		r, c := 0.0, 0.0
		for j := range p {
			r += p[i][j]
			c += p[j][i]
		}
		rows, cols = max(rows, r), max(cols, c)
	}
	return min(rows, cols)
}

// neumann returns (I − P)⁻¹ − I by Gauss–Jordan elimination with partial
// pivoting on [I − P | I].
func neumann(p [][]float64) [][]float64 {
	n := len(p)
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, 2*n)
		for j := range p[i] {
			a[i][j] = -p[i][j]
		}
		a[i][i]++
		a[i][n+i] = 1
	}
	for c := 0; c < n; c++ {
		piv := c
		for r := c + 1; r < n; r++ {
			if math.Abs(a[r][c]) > math.Abs(a[piv][c]) {
				piv = r
			}
		}
		a[c], a[piv] = a[piv], a[c]
		inv := 1 / a[c][c]
		for j := range a[c] {
			a[c][j] *= inv
		}
		for r := range a {
			if f := a[r][c]; r != c && f != 0 {
				for j := range a[r] {
					a[r][j] -= f * a[c][j]
				}
			}
		}
	}
	out := make([][]float64, n)
	for i := range out {
		out[i] = a[i][n:]
		out[i][i]--
	}
	return out
}
