package graph

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// refGlobalMinCutMatrix is GlobalMinCutMatrix as it ran before a phase
// kept the vertices it had not added yet: each step scans every active
// vertex twice with an inA test, once to choose the next vertex and once
// to update weightTo. It is the reference
// TestGlobalMinCutMatrixMatchesParent holds the single-pass phase to.
func refGlobalMinCutMatrix(w [][]float64) (s, t []int, weight float64) {
	n := len(w)
	active := make([]int, n)
	owner := make([]int, n)
	for i := range active {
		active[i], owner[i] = i, i
	}
	inA := make([]bool, n)
	weightTo := make([]float64, n)
	order := make([]int, 0, n)
	inT := make([]bool, n)
	weight = math.Inf(1)
	for len(active) > 1 {
		a := active[0]
		for _, v := range active {
			inA[v], weightTo[v] = false, w[a][v]
		}
		inA[a] = true
		order = append(order[:0], a)
		for len(order) < len(active) {
			bestV := -1
			for _, v := range active {
				if !inA[v] && (bestV == -1 || weightTo[v] > weightTo[bestV]) {
					bestV = v
				}
			}
			inA[bestV] = true
			order = append(order, bestV)
			for _, v := range active {
				if !inA[v] {
					weightTo[v] += w[bestV][v]
				}
			}
		}
		ps, pt := order[len(order)-2], order[len(order)-1]
		cutOfPhase := 0.0
		for _, v := range active {
			if v != pt {
				cutOfPhase += w[pt][v]
			}
		}
		if cutOfPhase < weight {
			weight = cutOfPhase
			for v, o := range owner {
				inT[v] = o == pt
			}
		}
		for _, v := range active {
			if v != ps && v != pt {
				w[ps][v] += w[pt][v]
				w[v][ps] = w[ps][v]
			}
		}
		for v, o := range owner {
			if o == pt {
				owner[v] = ps
			}
		}
		active = slices.DeleteFunc(active, func(v int) bool { return v == pt })
	}
	s, t = cutSides(inT)
	return s, t, weight
}

// randomSymmetric returns an n×n symmetric matrix with a zero diagonal.
// Tied matrices draw every weight from {0, ¼, ½}, so phases meet many
// equal weightTo values; the others leave about a third of the pairs at 0
// and draw the rest at random.
func randomSymmetric(pr *rand.Rand, n int, tied bool) [][]float64 {
	w := make([][]float64, n)
	for i := range w {
		w[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			x := float64(pr.IntN(3)) / 4
			if !tied {
				x = 0
				if pr.IntN(3) != 0 {
					x = pr.Float64()
				}
			}
			w[i][j], w[j][i] = x, x
		}
	}
	return w
}

// requireMinCutMatchesParent cuts a copy of w with GlobalMinCutMatrix and
// another with the reference, and fails unless the sides are the same
// and the weights bit-equal.
func requireMinCutMatchesParent(t *testing.T, what string, w [][]float64) {
	t.Helper()
	clone := func() [][]float64 {
		out := make([][]float64, len(w))
		for i, row := range w {
			out[i] = slices.Clone(row)
		}
		return out
	}
	s, tt, weight := GlobalMinCutMatrix(clone())
	rs, rt, rweight := refGlobalMinCutMatrix(clone())
	if !slices.Equal(s, rs) || !slices.Equal(tt, rt) || math.Float64bits(weight) != math.Float64bits(rweight) {
		t.Fatalf("%s: cut %v | %v weight %v, reference %v | %v weight %v", what, s, tt, weight, rs, rt, rweight)
	}
}

// TestGlobalMinCutMatrixMatchesParent holds the single-pass Stoer–Wagner
// phase to the two-pass one on seeded random symmetric matrices of 2 to 80
// rows, half of them tie-heavy.
func TestGlobalMinCutMatrixMatchesParent(t *testing.T) {
	pr := rand.New(rand.NewPCG(22, 0x3c6ef372fe94f82b))
	for k := 0; k < 240; k++ {
		n := 2 + pr.IntN(79)
		tied := k%2 == 0
		requireMinCutMatchesParent(t, fmt.Sprintf("matrix %d (n %d, tied %v)", k, n, tied), randomSymmetric(pr, n, tied))
	}
}

// FuzzGlobalMinCutMatrixMatchesParent is TestGlobalMinCutMatrixMatchesParent
// on fuzzed seeds and sizes up to 64 rows.
func FuzzGlobalMinCutMatrixMatchesParent(f *testing.F) {
	f.Add(uint64(1), uint8(2), true)
	f.Add(uint64(2), uint8(7), true)
	f.Add(uint64(3), uint8(33), true)
	f.Add(uint64(4), uint8(62), true)
	f.Add(uint64(5), uint8(20), false)
	f.Fuzz(func(t *testing.T, seed uint64, size uint8, tied bool) {
		pr := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
		n := 2 + int(size)%63
		requireMinCutMatchesParent(t, fmt.Sprintf("n %d, tied %v", n, tied), randomSymmetric(pr, n, tied))
	})
}
