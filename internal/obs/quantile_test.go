package obs

import (
	"math"
	"testing"
)

// snapQuantile estimates the q-quantile of the registry's only histogram
// from its snapshot, as the snapshot's P50/P95/P99 are computed.
func snapQuantile(t *testing.T, r *Registry, q float64) float64 {
	t.Helper()
	snap := r.Snapshot()
	if len(snap.Histograms) != 1 {
		t.Fatalf("got %d histograms, want 1", len(snap.Histograms))
	}
	hs := snap.Histograms[0]
	return bucketQuantile(hs.Bounds, hs.Buckets, hs.Count, q)
}

func TestQuantileUniform(t *testing.T) {
	// 10k samples uniform on (0, 100] against decade-spaced buckets: the
	// interpolated quantile must land within one bucket's resolution.
	r := NewRegistry()
	bounds := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	h := r.Histogram("u", "", bounds)
	for i := 0; i < 10000; i++ {
		h.Observe(float64(i%10000) / 100.0000001) // (0, 100)
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.5, 50}, {0.95, 95}, {0.99, 99}, {0.25, 25},
	} {
		got := snapQuantile(t, r, tc.q)
		if math.Abs(got-tc.want) > 1 {
			t.Errorf("Quantile(%g) = %g, want %g ± 1", tc.q, got, tc.want)
		}
	}
}

func TestQuantileExponentialish(t *testing.T) {
	// A point mass distribution with known exact quantiles: 900 samples at
	// 0.5 (bucket (0,1]), 90 at 5 (bucket (1,10]), 10 at 50 (bucket
	// (10,100]). Ranks: p50 falls in the first bucket, p95 in the second,
	// p99.5 in the third.
	r := NewRegistry()
	h := r.Histogram("e", "", []float64{1, 10, 100})
	for i := 0; i < 900; i++ {
		h.Observe(0.5)
	}
	for i := 0; i < 90; i++ {
		h.Observe(5)
	}
	for i := 0; i < 10; i++ {
		h.Observe(50)
	}
	// p50: rank 500 of 900 in (0,1] → 0 + 1*(500/900) ≈ 0.556.
	if got, want := snapQuantile(t, r, 0.50), 500.0/900; math.Abs(got-want) > 1e-9 {
		t.Errorf("p50 = %g, want %g", got, want)
	}
	// p95: rank 950; 900 below, 50 of 90 into (1,10] → 1 + 9*(50/90) = 6.
	if got := snapQuantile(t, r, 0.95); math.Abs(got-6) > 1e-9 {
		t.Errorf("p95 = %g, want 6", got)
	}
	// p99.5: rank 995; 5 of 10 into (10,100] → 10 + 90*0.5 = 55.
	if got := snapQuantile(t, r, 0.995); math.Abs(got-55) > 1e-9 {
		t.Errorf("p99.5 = %g, want 55", got)
	}
}

func TestQuantileOverflowClampsToHighestBound(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("o", "", []float64{1, 2})
	for i := 0; i < 100; i++ {
		h.Observe(1000) // all in +Inf
	}
	if got := snapQuantile(t, r, 0.5); got != 2 {
		t.Errorf("overflow Quantile(0.5) = %g, want 2 (highest finite bound)", got)
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("empty", "", DefBuckets)
	if !math.IsNaN(snapQuantile(t, r, 0.5)) {
		t.Error("empty histogram quantile not NaN")
	}
	h.Observe(0.3)
	for _, q := range []float64{0, 1, -0.5, 1.5, math.NaN()} {
		if !math.IsNaN(snapQuantile(t, r, q)) {
			t.Errorf("quantile(%g) not NaN", q)
		}
	}
	// Without finite bounds every sample overflows: nothing to clamp to.
	if got := bucketQuantile(nil, []uint64{3}, 3, 0.5); !math.IsNaN(got) {
		t.Errorf("bound-less quantile = %g, want NaN", got)
	}
}

func TestSnapshotQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("s", "", []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100})
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i) / 10.000001)
	}
	snap := r.Snapshot()
	if len(snap.Histograms) != 1 {
		t.Fatalf("got %d histograms", len(snap.Histograms))
	}
	hs := snap.Histograms[0]
	if math.Abs(hs.P50-50) > 1 || math.Abs(hs.P95-95) > 1 || math.Abs(hs.P99-99) > 1 {
		t.Errorf("snapshot quantiles p50=%g p95=%g p99=%g, want ≈50/95/99", hs.P50, hs.P95, hs.P99)
	}
	if got := snapQuantile(t, r, 0.5); got != hs.P50 {
		t.Errorf("bucketQuantile(0.5) = %g, snapshot P50 = %g", got, hs.P50)
	}
	// An empty histogram keeps zero quantiles (omitted from JSON), not NaN.
	r2 := NewRegistry()
	r2.Histogram("empty", "", DefBuckets)
	if hs := r2.Snapshot().Histograms[0]; hs.P50 != 0 || hs.P95 != 0 || hs.P99 != 0 {
		t.Errorf("empty histogram snapshot quantiles = %g/%g/%g, want zeros", hs.P50, hs.P95, hs.P99)
	}
}
