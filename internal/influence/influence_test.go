package influence

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestFactorP(t *testing.T) {
	f := Factor{Name: "globals", POccur: 0.5, PTransmit: 0.4, PManifest: 0.25}
	if got := f.P(); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("P = %g, want 0.05", got)
	}
}

func TestCombineEq2(t *testing.T) {
	tests := []struct {
		name string
		ps   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{0.3}, 0.3},
		{"fig5 value 0.76", []float64{0.7, 0.2}, 0.76},
		{"fig5 value 0.37", []float64{0.3, 0.1}, 0.37},
		{"certain", []float64{1, 0.5}, 1},
		{"three", []float64{0.5, 0.5, 0.5}, 0.875},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := Combine(tt.ps)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("Combine(%v) = %g, want %g", tt.ps, got, tt.want)
			}
		})
	}
}

func TestCombineRejectsBadProbability(t *testing.T) {
	if _, err := Combine([]float64{0.5, 1.2}); !errors.Is(err, ErrProbRange) {
		t.Errorf("err = %v, want ErrProbRange", err)
	}
	if _, err := Combine([]float64{-0.1}); !errors.Is(err, ErrProbRange) {
		t.Errorf("err = %v, want ErrProbRange", err)
	}
}

func TestMustCombineClamps(t *testing.T) {
	if got := MustCombine([]float64{2.0}); got != 1 {
		t.Errorf("MustCombine clamp high = %g, want 1", got)
	}
	if got := MustCombine([]float64{-1, math.NaN()}); got != 0 {
		t.Errorf("MustCombine clamp low = %g, want 0", got)
	}
}

func TestCombineProperties(t *testing.T) {
	norm := func(xs []uint8) []float64 {
		ps := make([]float64, len(xs))
		for i, x := range xs {
			ps[i] = float64(x) / 255
		}
		return ps
	}
	// Result is a probability, at least the max input, and monotone in
	// each input.
	f := func(xs []uint8) bool {
		ps := norm(xs)
		got, err := Combine(ps)
		if err != nil {
			return false
		}
		if got < 0 || got > 1 {
			return false
		}
		maxP := 0.0
		for _, p := range ps {
			if p > maxP {
				maxP = p
			}
		}
		return got >= maxP-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Order independence.
	g := func(a, b, c uint8) bool {
		p1, err1 := Combine(norm([]uint8{a, b, c}))
		p2, err2 := Combine(norm([]uint8{c, a, b}))
		return err1 == nil && err2 == nil && math.Abs(p1-p2) < 1e-12
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestFromFactors(t *testing.T) {
	// Eqs. (1) and (2) composed: the per-factor products of Factor.P
	// combined by Combine.
	fs := []Factor{
		{Name: "parameter-passing", POccur: 1, PTransmit: 0.7, PManifest: 1},
		{Name: "global-variables", POccur: 1, PTransmit: 0.2, PManifest: 1},
	}
	got, err := Combine([]float64{fs[0].P(), fs[1].P()})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.76) > 1e-12 {
		t.Errorf("Combine over Factor.P = %g, want 0.76", got)
	}
	bad := Factor{POccur: 2, PTransmit: 1, PManifest: 1}
	if _, err := Combine([]float64{bad.P()}); !errors.Is(err, ErrProbRange) {
		t.Errorf("out-of-range factor err = %v", err)
	}
}

func TestClusterInfluenceMatchesEq4(t *testing.T) {
	got, err := ClusterInfluence([]float64{0.3, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.37) > 1e-12 {
		t.Errorf("ClusterInfluence = %g, want 0.37 (Fig. 5)", got)
	}
}

// chainMatrix builds p for a path a->b->c with the given weights.
func chainMatrix(ab, bc float64) [][]float64 {
	return [][]float64{
		{0, ab, 0},
		{0, 0, bc},
		{0, 0, 0},
	}
}

func TestSeparationDirectOnly(t *testing.T) {
	p := chainMatrix(0.4, 0)
	s, err := Separation(p, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s-0.6) > 1e-12 {
		t.Errorf("separation = %g, want 0.6", s)
	}
}

func TestSeparationTransitive(t *testing.T) {
	// a->b 0.4, b->c 0.5: a affects c only via b with probability 0.2, so
	// separation(a,c) = 0.8 even though there is no direct edge.
	p := chainMatrix(0.4, 0.5)
	s, err := Separation(p, 0, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s-0.8) > 1e-12 {
		t.Errorf("separation = %g, want 0.8", s)
	}
}

func TestSeparationSelf(t *testing.T) {
	p := chainMatrix(0.4, 0.5)
	s, err := Separation(p, 1, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s != 0 {
		t.Errorf("self separation = %g, want 0", s)
	}
}

func TestSeparationIndexError(t *testing.T) {
	p := chainMatrix(0.4, 0.5)
	if _, err := Separation(p, 0, 9, 4); err == nil {
		t.Error("out-of-range index accepted")
	}
}

func TestSeparationClampsStrongCoupling(t *testing.T) {
	// A dense strongly coupled pair: the raw series exceeds 1, so
	// separation clamps at 0.
	p := [][]float64{
		{0, 0.9},
		{0.9, 0},
	}
	s, err := Separation(p, 0, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if s != 0 {
		t.Errorf("separation = %g, want 0 (clamped)", s)
	}
}

func TestSeparationSeriesConverges(t *testing.T) {
	// With max influence < 1/n the series converges; higher orders change
	// the value less and less.
	p := [][]float64{
		{0, 0.2, 0.1, 0},
		{0.1, 0, 0.2, 0.1},
		{0, 0.1, 0, 0.2},
		{0.1, 0, 0.1, 0},
	}
	prev := math.Inf(1)
	var deltas []float64
	last := 0.0
	for order := 1; order <= 8; order++ {
		s, err := Separation(p, 0, 3, order)
		if err != nil {
			t.Fatal(err)
		}
		if !math.IsInf(prev, 1) {
			deltas = append(deltas, math.Abs(s-prev))
		}
		prev = s
		last = s
	}
	for i := 1; i < len(deltas); i++ {
		if deltas[i] > deltas[i-1]+1e-15 {
			t.Errorf("series deltas not shrinking: %v", deltas)
			break
		}
	}
	if last <= 0 || last >= 1 {
		t.Errorf("converged separation = %g, want in (0,1)", last)
	}
}

func TestSeparationMoreInfluenceLessSeparation(t *testing.T) {
	f := func(a8, b8 uint8) bool {
		a := float64(a8) / 255 * 0.45
		b := float64(b8) / 255 * 0.45
		lo, hi := math.Min(a, b), math.Max(a, b)
		pLo := chainMatrix(lo, 0.3)
		pHi := chainMatrix(hi, 0.3)
		sLo, err1 := Separation(pLo, 0, 2, 6)
		sHi, err2 := Separation(pHi, 0, 2, 6)
		return err1 == nil && err2 == nil && sLo >= sHi-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// refSeparation is the per-pair Eq. (3) recurrence, kept as an
// independent reference for the row kernel: it sweeps the reach vector of
// source i and accumulates only target j.
func refSeparation(p [][]float64, i, j, maxOrder int) float64 {
	if i == j {
		return 0
	}
	n := len(p)
	reach := append([]float64(nil), p[i]...)
	next := make([]float64, n)
	total := reach[j]
	for order := 2; order <= maxOrder; order++ {
		for v := range next {
			next[v] = 0
		}
		for k := 0; k < n; k++ {
			if reach[k] == 0 {
				continue
			}
			for v := 0; v < n; v++ {
				next[v] += reach[k] * p[k][v]
			}
		}
		reach, next = next, reach
		total += reach[j]
	}
	return clamp01(1 - total)
}

func TestSeparationMatrix(t *testing.T) {
	p := chainMatrix(0.4, 0.5)
	m, err := SeparationMatrixWorkers(nil, p, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m[0][0] != 0 || math.Abs(m[0][1]-0.6) > 1e-12 || math.Abs(m[0][2]-0.8) > 1e-12 {
		t.Errorf("matrix row 0 = %v", m[0])
	}
	// c influences nothing: fully separated from a and b.
	if m[2][0] != 1 || m[2][1] != 1 {
		t.Errorf("matrix row 2 = %v", m[2])
	}
}

// TestSeriesTerm reads the per-order terms of Eq. (3) off the separation
// at successive truncation orders: on the chain a→b→c the only a-to-c
// path has two hops, so only the order-2 term is non-zero.
func TestSeriesTerm(t *testing.T) {
	p := chainMatrix(0.4, 0.5)
	want := []float64{1, 0.8, 0.8} // orders 1, 2, 3
	for k, w := range want {
		s, err := Separation(p, 0, 2, k+1)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(s-w) > 1e-12 {
			t.Errorf("order-%d separation = %g, want %g", k+1, s, w)
		}
	}
	if _, err := Separation(p, -1, 2, 1); err == nil {
		t.Error("negative index accepted")
	}
}

// TestSeriesTermsSumToSeparationComplement checks the kernel against the
// series written as explicit matrix powers: 1 − separation(i,j) equals
// Σ_k (P^k)[i][j] over k = 1..order.
func TestSeriesTermsSumToSeparationComplement(t *testing.T) {
	p := [][]float64{
		{0, 0.2, 0.1},
		{0.1, 0, 0.2},
		{0.05, 0.1, 0},
	}
	const order = 6
	n := len(p)
	pow := p // P^1
	sum := 0.0
	for k := 1; k <= order; k++ {
		sum += pow[0][2]
		next := make([][]float64, n)
		for a := range next {
			next[a] = make([]float64, n)
			for b := 0; b < n; b++ {
				for c := 0; c < n; c++ {
					next[a][b] += pow[a][c] * p[c][b]
				}
			}
		}
		pow = next
	}
	s, err := Separation(p, 0, 2, order)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs((1-s)-sum) > 1e-12 {
		t.Errorf("1-separation = %g, matrix-power sum = %g", 1-s, sum)
	}
}

func TestLevelStringAndValid(t *testing.T) {
	if ProcedureLevel.String() != "procedure" || TaskLevel.String() != "task" ||
		ProcessLevel.String() != "process" {
		t.Error("level names wrong")
	}
	if Level(0).Valid() || Level(4).Valid() {
		t.Error("invalid levels reported valid")
	}
	if Level(7).String() != "Level(7)" {
		t.Error("unknown level string wrong")
	}
}

func TestSpectralRadiusKnownValues(t *testing.T) {
	// Diagonalizable 2x2: [[0, 0.5], [0.5, 0]] has radius 0.5.
	p := [][]float64{{0, 0.5}, {0.5, 0}}
	if got := SpectralRadius(p, 100); math.Abs(got-0.5) > 1e-6 {
		t.Errorf("radius = %g, want 0.5", got)
	}
	// Nilpotent (DAG): radius 0.
	dag := [][]float64{{0, 0.9}, {0, 0}}
	if got := SpectralRadius(dag, 100); got != 0 {
		t.Errorf("DAG radius = %g, want 0", got)
	}
	if got := SpectralRadius(nil, 10); got != 0 {
		t.Errorf("empty radius = %g", got)
	}
}

func TestPaperExampleSeriesConverges(t *testing.T) {
	// The worked example's influence matrix must have radius < 1, or the
	// separation values of E4 would be meaningless.
	p := [][]float64{
		//        p1   p2   p3   p4   p5   p6   p7   p8
		/*p1*/ {0, 0.7, 0, 0, 0, 0, 0, 0},
		/*p2*/ {0.5, 0, 0.2, 0, 0, 0, 0, 0},
		/*p3*/ {0, 0, 0, 0.6, 0.7, 0, 0, 0},
		/*p4*/ {0, 0, 0.3, 0, 0.2, 0, 0, 0},
		/*p5*/ {0, 0, 0, 0, 0, 0.1, 0.2, 0},
		/*p6*/ {0.1, 0, 0, 0, 0, 0, 0, 0},
		/*p7*/ {0, 0, 0, 0, 0, 0, 0, 0.3},
		/*p8*/ {0, 0, 0, 0, 0, 0.3, 0.2, 0},
	}
	r := SpectralRadius(p, 100)
	if r >= 1 {
		t.Errorf("worked example diverges: radius %g", r)
	}
	if r < 0.3 || r > 0.9 {
		t.Errorf("radius %g outside plausible band", r)
	}
}

// SpectralRadius estimates the spectral radius of the influence matrix by
// power iteration on |P| (entries are non-negative already). The Eq. (3)
// series converges iff the radius is below 1 — the guard the paper's
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
