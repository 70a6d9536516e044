package influence_test

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/influence"
	"repro/internal/scengen"
)

// BenchmarkSeparationSweep measures one Eq. 3 separation sweep, the
// influence stage's, over the initial influence graph of a generated
// scenario at each size and pool width. The sizes bracket the row rule
// that sizes the pool: at n ≤ 2·minRowsPerWorker every width runs the
// same serial sweep, above it width 2 shards the rows.
func BenchmarkSeparationSweep(b *testing.B) {
	for _, n := range []int{12, 24, 60, 120, 240} {
		m := scenarioMatrix(b, scengen.Mesh, n)
		for _, w := range []int{1, 2} {
			b.Run(fmt.Sprintf("n%d/w%d", n, w), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := influence.SeparationSparse(nil, m, 0, w); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// scenarioMatrix returns the compressed influence matrix of the n-process
// scenario of family fam at seed 1998.
func scenarioMatrix(tb testing.TB, fam scengen.Family, n int) graph.Sparse {
	tb.Helper()
	sc, err := scengen.Generate(scengen.Config{Family: fam, Processes: n, Seed: 1998})
	if err != nil {
		tb.Fatal(err)
	}
	g, err := sc.System.Graph()
	if err != nil {
		tb.Fatal(err)
	}
	return g.SparseMatrix()
}
