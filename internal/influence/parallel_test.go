package influence

import (
	"context"
	"errors"
	"math"
	"reflect"
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

// TestSeparationMatrixWorkersBitIdentical: the row-parallel sweep must be
// DeepEqual-identical for every worker count, and both it and Separation
// must equal the per-pair reference at every order 1–8.
func TestSeparationMatrixWorkersBitIdentical(t *testing.T) {
	for _, n := range []int{1, 3, 17} {
		p := testMatrix(n)
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
// the sweep shards over GOMAXPROCS but must still match the serial sweep.
func TestSeparationMatrixCtxDefaultsParallel(t *testing.T) {
	p := testMatrix(9)
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
	p := testMatrix(12)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		if _, err := SeparationMatrixWorkers(ctx, p, 0, workers); !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d err = %v, want context.Canceled", workers, err)
		}
	}
}
