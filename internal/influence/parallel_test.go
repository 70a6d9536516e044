package influence

import (
	"context"
	"errors"
	"math"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"
)

// testMatrix builds a deterministic dense-ish influence matrix: weights
// derived from index arithmetic, with a sprinkle of exact zeros to
// exercise the reach-vector skip.
func testMatrix(n int) [][]float64 {
	p := make([][]float64, n)
	for i := range p {
		p[i] = make([]float64, n)
		for j := range p[i] {
			if i == j || (i+2*j)%5 == 0 {
				continue
			}
			p[i][j] = math.Mod(0.13*float64(i+1)+0.29*float64(j+1), 0.9)
		}
	}
	return p
}

// sparseTestMatrix builds an n-row influence matrix with three nonzeros
// per row: above 2·minRowsPerWorker rows the row rule shards its sweep,
// and it stays cheap to sweep.
func sparseTestMatrix(n int) [][]float64 {
	p := make([][]float64, n)
	for i := range p {
		p[i] = make([]float64, n)
		for _, d := range []int{1, 7, 31} {
			p[i][(i+d)%n] = math.Mod(0.13*float64(i+1)+0.29*float64(d), 0.9)
		}
	}
	return p
}

// shardedRows is a matrix size the row rule sweeps on up to four workers.
const shardedRows = 4*minRowsPerWorker + 3

// TestSeparationMatrixWorkersBitIdentical: the row-parallel sweep must be
// DeepEqual-identical for every worker count, and both it and Separation
// must equal the per-pair reference at every order 1–8. The small
// matrices run serially at every width under the row rule; the sparse one
// is sharded, and too large for the per-pair reference.
func TestSeparationMatrixWorkersBitIdentical(t *testing.T) {
	for _, p := range [][][]float64{testMatrix(1), testMatrix(3), testMatrix(17), sparseTestMatrix(shardedRows)} {
		n := len(p)
		for order := 1; order <= 8; order++ {
			want, err := SeparationMatrixWorkers(nil, p, order, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 4, 7} {
				got, err := SeparationMatrixWorkers(nil, p, order, workers)
				if err != nil {
					t.Fatalf("n=%d workers=%d: %v", n, workers, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("n=%d order=%d workers=%d matrix differs from serial", n, order, workers)
				}
			}
			if n > 17 {
				continue
			}
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					ref := refSeparation(p, i, j, order)
					if want[i][j] != ref {
						t.Errorf("n=%d order=%d: row kernel (%d,%d) = %v, reference = %v", n, order, i, j, want[i][j], ref)
					}
					s, err := Separation(p, i, j, order)
					if err != nil {
						t.Fatal(err)
					}
					if s != ref {
						t.Errorf("n=%d order=%d: Separation(%d,%d) = %v, reference = %v", n, order, i, j, s, ref)
					}
				}
			}
		}
	}
}

// TestSeparationMatrixCtxDefaultsParallel: with a context and workers = 0
// the sweep shards over GOMAXPROCS (a matrix above the row rule's bound)
// but must still match the serial sweep.
func TestSeparationMatrixCtxDefaultsParallel(t *testing.T) {
	p := sparseTestMatrix(shardedRows)
	want, err := SeparationMatrixWorkers(nil, p, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := SeparationMatrixWorkers(context.Background(), p, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("default-width sweep differs from serial sweep")
	}
}

// TestSeparationMatrixWorkersCancelled: a dead context aborts the sweep
// from every worker with the row-tagged error wrapping ctx.Err().
func TestSeparationMatrixWorkersCancelled(t *testing.T) {
	p := sparseTestMatrix(shardedRows)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		if _, err := SeparationMatrixWorkers(ctx, p, 0, workers); !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d err = %v, want context.Canceled", workers, err)
		}
	}
}

// TestSeparationRejectsBadMatrix: a ragged row, or a negative, NaN or
// infinite entry, is an error naming the row from both entry points and on
// the serial and parallel paths, never a panic (a ragged row used to crash
// the process from a worker goroutine).
func TestSeparationRejectsBadMatrix(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    [][]float64
	}{
		{"ragged", [][]float64{{0, 0.5, 0.1}, {0.2, 0}, {0.3, 0.1, 0}}},
		{"negative", [][]float64{{0, 0.5, 0}, {0, 0, -0.1}, {0, 0, 0}}},
		{"NaN", [][]float64{{0, 0.5, 0}, {0, 0, math.NaN()}, {0, 0, 0}}},
		{"infinite", [][]float64{{0, 0.5, 0}, {math.Inf(1), 0, 0}, {0, 0, 0}}},
	} {
		check := func(where string, err error) {
			t.Helper()
			if !errors.Is(err, ErrMatrix) || !strings.Contains(err.Error(), "row 1") {
				t.Errorf("%s %s: err = %v, want ErrMatrix naming row 1", tc.name, where, err)
			}
		}
		for _, workers := range []int{1, 4} {
			_, err := SeparationMatrixWorkers(nil, tc.p, 3, workers)
			check("SeparationMatrixWorkers", err)
		}
		for _, j := range []int{1, 2} {
			_, err := Separation(tc.p, 0, j, 3)
			check("Separation", err)
		}
	}
}

// TestSeparationMatrixAllocsIndependentOfOrder pins the serial sweep's
// allocations: the result rows, one buffer for their floats and the
// scratch, the sweep state and the nonzero copy, however many orders the
// series runs.
func TestSeparationMatrixAllocsIndependentOfOrder(t *testing.T) {
	const bound = 5
	p := testMatrix(17)
	var first float64
	for _, order := range []int{1, 2, 8, 40} {
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := SeparationMatrixWorkers(nil, p, order, 1); err != nil {
				t.Fatal(err)
			}
		})
		if order == 1 {
			first = allocs
		}
		if allocs > bound || allocs != first {
			t.Errorf("order %d: %.0f allocations, want %.0f (as at order 1) and at most %d", order, allocs, first, bound)
		}
	}
}

// FuzzSeparationMatchesReference holds the sparse sweep to the dense
// per-pair reference on random sparsity patterns — empty rows, rows with
// one nonzero, dense rows and rows of mixed density, with tied and
// random weights — at orders 1–10: SeparationMatrixWorkers (at widths 1
// and 3, both serial at these sizes under the row rule; the sharded sweep
// is held to the serial one in TestSeparationMatrixWorkersBitIdentical)
// and Separation must equal refSeparation bit for bit.
func FuzzSeparationMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint8(5), uint8(8))
	f.Add(uint64(2), uint8(1), uint8(1))
	f.Add(uint64(3), uint8(12), uint8(10))
	f.Add(uint64(4), uint8(0), uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, size, maxOrder uint8) {
		pr := rand.New(rand.NewPCG(seed, seed^0xda942042e4dd58b5))
		n := int(size) % 13
		order := int(maxOrder)%10 + 1
		weight := func() float64 {
			if pr.IntN(2) == 0 {
				return float64(pr.IntN(5)) / 4
			}
			return pr.Float64()
		}
		p := make([][]float64, n)
		for i := range p {
			p[i] = make([]float64, n)
			switch kind := pr.IntN(4); {
			case kind == 0 || n == 0: // empty
			case kind == 1:
				p[i][pr.IntN(n)] = weight()
			case kind == 2:
				for j := range p[i] {
					p[i][j] = weight()
				}
			default:
				for j := range p[i] {
					if pr.IntN(3) == 0 {
						p[i][j] = weight()
					}
				}
			}
		}
		for _, workers := range []int{1, 3} {
			m, err := SeparationMatrixWorkers(nil, p, order, workers)
			if err != nil {
				t.Fatal(err)
			}
			for i := range p {
				for j := range p {
					want := refSeparation(p, i, j, order)
					if math.Float64bits(m[i][j]) != math.Float64bits(want) {
						t.Fatalf("n=%d order=%d workers=%d: (%d,%d) = %v, reference %v", n, order, workers, i, j, m[i][j], want)
					}
					if workers > 1 {
						continue
					}
					s, err := Separation(p, i, j, order)
					if err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(s) != math.Float64bits(want) {
						t.Fatalf("n=%d order=%d: Separation(%d,%d) = %v, reference %v", n, order, i, j, s, want)
					}
				}
			}
		}
	})
}
