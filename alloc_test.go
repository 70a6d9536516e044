//go:build !race

// The race detector allocates on its own account, so these limits hold
// only in a normal build.

package depint

import (
	"runtime"
	"strconv"
	"testing"

	"repro/internal/scengen"
)

// TestIntegrateAllocBudget pins what one Integrate call allocates on a
// 60-process scengen scenario (seed 1998) of every family, at
// WithWorkers(1) so that no sweep runs beside the call: allocations per
// call by testing.AllocsPerRun, bytes per call by the growth of
// runtime.MemStats.TotalAlloc over 20 calls. Each limit is the level
// measured with go1.24.0 on linux/amd64, plus at most 5% headroom: the
// counts move by a few between runs, as map growth depends on hash seeds.
func TestIntegrateAllocBudget(t *testing.T) {
	if strconv.IntSize != 64 {
		t.Skip("limits measured on a 64-bit platform")
	}
	limits := map[scengen.Family]struct{ allocs, bytes float64 }{
		// measured: 655 allocations, 318.6 kB
		scengen.Ladder: {685, 334_000},
		// measured: 587 allocations, 286.5 kB
		scengen.Mesh: {615, 300_000},
		// measured: 679 allocations, 318.4 kB
		scengen.Layered: {710, 334_000},
		// measured: 541 allocations, 253.9 kB
		scengen.SensorVoter: {565, 266_000},
	}
	for _, fam := range scengen.Families() {
		sc, err := scengen.Generate(scengen.Config{Family: fam, Processes: 60, Seed: 1998})
		if err != nil {
			t.Fatal(err)
		}
		call := func() {
			if _, err := Integrate(sc.System, WithWorkers(1)); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(20, call)
		const calls = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			call()
		}
		runtime.ReadMemStats(&after)
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / calls
		limit := limits[fam]
		t.Logf("%s: %.0f allocations, %.0f bytes per call", fam, allocs, bytes)
		if allocs > limit.allocs || bytes > limit.bytes {
			t.Errorf("%s: Integrate makes %.0f allocations and %.0f bytes per call, want at most %.0f and %.0f",
				fam, allocs, bytes, limit.allocs, limit.bytes)
		}
	}
}
