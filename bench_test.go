package depint

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (the §6 worked example) and one per extension experiment
// (E1–E15, indexed in DESIGN.md). Each benchmark regenerates its artifact
// on every iteration and reports the headline quantity via b.ReportMetric,
// so `go test -bench=. -benchmem` reproduces the paper's numbers alongside
// the cost of computing them.
//
// Run a single artifact with e.g. `go test -bench=Fig6 -benchmem`.

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/faultsim"
	"repro/internal/influence"
	"repro/internal/obs"
	"repro/internal/scengen"
)

func BenchmarkTable1Attributes(b *testing.B) {
	var n int
	for i := 0; i < b.N; i++ {
		txt, err := experiments.Table1()
		if err != nil {
			b.Fatal(err)
		}
		n = strings.Count(txt, "\n")
	}
	b.ReportMetric(float64(n-2), "processes")
}

func BenchmarkFig1Hierarchy(b *testing.B) {
	var fcms int
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig1()
		if err != nil {
			b.Fatal(err)
		}
		fcms = r.FCMCount
	}
	b.ReportMetric(float64(fcms), "FCMs")
}

func BenchmarkFig2ClusterInfluence(b *testing.B) {
	var v float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig2()
		if err != nil {
			b.Fatal(err)
		}
		v = r.CombinedOnN6
	}
	b.ReportMetric(v, "combined-influence")
}

func BenchmarkFig3InitialGraph(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig3(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4Replication(b *testing.B) {
	var nodes int
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig4()
		if err != nil {
			b.Fatal(err)
		}
		nodes = r.Nodes
	}
	b.ReportMetric(float64(nodes), "replicated-nodes")
}

func BenchmarkFig5InfluenceCombine(b *testing.B) {
	var r experiments.Fig5Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.Fig5()
		if err != nil {
			b.Fatal(err)
		}
	}
	if err := experiments.CheckFig5(r); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(r.V76, "v76")
	b.ReportMetric(r.V37, "v37")
}

func BenchmarkFig6ApproachA(b *testing.B) {
	var clusters int
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig6()
		if err != nil {
			b.Fatal(err)
		}
		clusters = len(r.Clusters)
	}
	b.ReportMetric(float64(clusters), "clusters")
}

func BenchmarkFig7ApproachB(b *testing.B) {
	want := "{p1a,p8} {p1b,p7} {p1c,p5} {p2a,p6} {p2b,p3b} {p3a,p4}"
	var got string
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig7()
		if err != nil {
			b.Fatal(err)
		}
		got = strings.Join(r.Clusters, " ")
	}
	if got != want {
		b.Fatalf("Fig. 7 clusters drifted:\n got %s\nwant %s", got, want)
	}
}

func BenchmarkFig8TimingGrouping(b *testing.B) {
	var clusters int
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig8()
		if err != nil {
			b.Fatal(err)
		}
		clusters = len(r.Clusters)
	}
	b.ReportMetric(float64(clusters), "clusters")
}

func BenchmarkE1InfluenceAlgebra(b *testing.B) {
	var eq2 float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.E1()
		if err != nil {
			b.Fatal(err)
		}
		eq2 = r.Eq2
	}
	b.ReportMetric(eq2, "eq2")
}

func BenchmarkE2HeuristicContainment(b *testing.B) {
	var h1 float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.E2([]int{12, 24}, 7)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			if row.Heuristic == "H1" && row.N == 24 {
				h1 = row.Contain
			}
		}
	}
	b.ReportMetric(h1, "H1-containment-n24")
}

func BenchmarkE3FaultInjection(b *testing.B) {
	var h1 float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.E3(5000, 21)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			if row.Heuristic == "H1" {
				h1 = row.Escape
			}
		}
	}
	b.ReportMetric(h1, "H1-escape-rate")
}

func BenchmarkE4SeparationConvergence(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.E4(8)
		if err != nil {
			b.Fatal(err)
		}
		last = r.Rows[len(r.Rows)-1].Separation
	}
	b.ReportMetric(last, "separation-order8")
}

func BenchmarkE5IntegrationTradeoff(b *testing.B) {
	var floor int
	for i := 0; i < b.N; i++ {
		r, err := experiments.E5(2000, 31)
		if err != nil {
			b.Fatal(err)
		}
		floor = r.Floor
	}
	b.ReportMetric(float64(floor), "integration-floor")
}

func BenchmarkE6RetestCost(b *testing.B) {
	var savings float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.E6(4, 3, 4, 25, 5)
		if err != nil {
			b.Fatal(err)
		}
		savings = r.Model.Savings()
	}
	b.ReportMetric(savings, "R5-savings")
}

func BenchmarkE7Replication(b *testing.B) {
	var tmr float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.E7(10000, 3)
		if err != nil {
			b.Fatal(err)
		}
		tmr = r.Rows[2].TMRVal // p = 0.1
	}
	b.ReportMetric(tmr, "TMR-unavailability-p0.1")
}

func BenchmarkE8TaskContainment(b *testing.B) {
	var guarded int
	for i := 0; i < b.N; i++ {
		r, err := experiments.E8()
		if err != nil {
			b.Fatal(err)
		}
		guarded = r.GuardedTainted
	}
	b.ReportMetric(float64(guarded), "guarded-tainted")
}

func BenchmarkE9TimingFaults(b *testing.B) {
	var np int
	for i := 0; i < b.N; i++ {
		r, err := experiments.E9()
		if err != nil {
			b.Fatal(err)
		}
		np = r.NonPreemptiveVictims
	}
	b.ReportMetric(float64(np), "nonpreemptive-victims")
}

// BenchmarkIntegratePipeline measures the end-to-end public API on the
// worked example (not a paper artifact; a library-performance benchmark).
func BenchmarkIntegratePipeline(b *testing.B) {
	sys := PaperExample()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Integrate(sys); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIntegrateNilObserver measures the pipeline with the observer
// option present but nil — the fast path WithObserver documents. Compare
// against BenchmarkIntegratePipeline: the two should be within noise.
func BenchmarkIntegrateNilObserver(b *testing.B) {
	sys := PaperExample()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Integrate(sys, WithObserver(nil)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIntegrateWithObserver measures the fully instrumented pipeline
// (spans, merge events, sched counters) to quantify telemetry overhead.
func BenchmarkIntegrateWithObserver(b *testing.B) {
	sys := PaperExample()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Integrate(sys, WithObserver(obs.New())); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIntegrateSynthetic48 measures the pipeline on a 48-process
// synthetic suite, the scale point of experiment E2.
func BenchmarkIntegrateSynthetic48(b *testing.B) {
	sys, err := experiments.Synthesize(experiments.SynthConfig{
		Processes: 48, EdgesPerNode: 2.5, ReplicatedFraction: 0.25,
		Seed: 4242, HWNodes: 16,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Integrate(sys); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE10InfluenceEstimation(b *testing.B) {
	var agree float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.E10([]int{10000}, 13)
		if err != nil {
			b.Fatal(err)
		}
		agree = r.Rows[0].Agreement
	}
	b.ReportMetric(agree, "agreement-10k-trials")
}

func BenchmarkE11DilationRefinement(b *testing.B) {
	var ringAfter float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.E11()
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			if row.Topology == "ring6" {
				ringAfter = row.After
			}
		}
	}
	b.ReportMetric(ringAfter, "ring6-dilation-after")
}

func BenchmarkE12HierarchyDepth(b *testing.B) {
	var deepCost float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.E12(200, 7)
		if err != nil {
			b.Fatal(err)
		}
		deepCost = r.Rows[len(r.Rows)-1].MeanRetest
	}
	b.ReportMetric(deepCost, "4level-retest-cost")
}

func BenchmarkE13CommFaults(b *testing.B) {
	var h1AllComm float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.E13(5000, 11)
		if err != nil {
			b.Fatal(err)
		}
		h1AllComm = r.Rows[len(r.Rows)-1].H1Escape
	}
	b.ReportMetric(h1AllComm, "H1-escape-all-comm")
}

func BenchmarkE14TopologySensitivity(b *testing.B) {
	var starH1 float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.E14(24, 5)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			if row.Shape == "star" {
				starH1 = row.H1Contain
			}
		}
	}
	b.ReportMetric(starH1, "H1-containment-star")
}

// BenchmarkIntegrateScaling measures pipeline wall time across problem
// sizes (the engineering-scalability series).
func BenchmarkIntegrateScaling(b *testing.B) {
	for _, n := range []int{24, 48, 96} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			sys, err := experiments.Synthesize(experiments.SynthConfig{
				Processes: n, EdgesPerNode: 2.5, ReplicatedFraction: 0.25,
				Seed: uint64(n), HWNodes: n / 3,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Integrate(sys); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkE15Availability(b *testing.B) {
	var tmr float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.E15(2e5, 7)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			if row.Module == "p1" {
				tmr = row.Simulated
			}
		}
	}
	b.ReportMetric(tmr, "p1-TMR-availability")
}

// BenchmarkCampaignParallel measures the worker-pool faultsim at widths
// 1, 2, 4 and 8 over the 48-process synthetic system. The results are
// bit-identical at every width (the determinism suite proves it), so the
// sub-benchmarks differ only in wall-clock: on an 8-core runner /8 should
// land at several times /1, while a single-core runner collapses them all
// to serial speed. Run it with
// `go test -run NONE -bench CampaignParallel .` to see the curve.
func BenchmarkCampaignParallel(b *testing.B) {
	sys, err := experiments.Synthesize(experiments.SynthConfig{
		Processes: 48, EdgesPerNode: 2.5, ReplicatedFraction: 0.25,
		Seed: 4242, HWNodes: 16,
	})
	if err != nil {
		b.Fatal(err)
	}
	res, err := Integrate(sys)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("%d", workers), func(b *testing.B) {
			var escape float64
			for i := 0; i < b.N; i++ {
				fi, err := faultsim.Run(faultsim.Campaign{
					Graph: res.Expanded, HWOf: res.HWOf(),
					Trials: 50000, Seed: 7, CriticalThreshold: 10,
					Workers: workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				escape = fi.EscapeRate()
			}
			b.ReportMetric(escape, "escape-rate")
		})
	}
}

// BenchmarkAdversarialSearch measures the worst-case scenario search —
// the new hot path layered on the worker pool: each hill-climb evaluation
// is a full campaign sharded across the given width, so the curve tracks
// BenchmarkCampaignParallel with the climb's bookkeeping on top. The
// found worst case is bit-identical at every width.
func BenchmarkAdversarialSearch(b *testing.B) {
	sys, err := experiments.Synthesize(experiments.SynthConfig{
		Processes: 48, EdgesPerNode: 2.5, ReplicatedFraction: 0.25,
		Seed: 4242, HWNodes: 16,
	})
	if err != nil {
		b.Fatal(err)
	}
	res, err := Integrate(sys)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("%d", workers), func(b *testing.B) {
			var worst float64
			for i := 0; i < b.N; i++ {
				sr, err := faultsim.Search(faultsim.SearchConfig{
					Graph: res.Expanded, HWOf: res.HWOf(),
					Trials: 2000, Seed: 7, CriticalThreshold: 10,
					Workers: workers, MaxEvals: 12,
				})
				if err != nil {
					b.Fatal(err)
				}
				worst = sr.Best.Score
			}
			b.ReportMetric(worst, "worst-weighted-escape")
		})
	}
}

// BenchmarkSeparationParallel measures the row-parallel Eq. 3 kernel at
// the same widths over the expanded 48-process influence matrix.
func BenchmarkSeparationParallel(b *testing.B) {
	sys, err := experiments.Synthesize(experiments.SynthConfig{
		Processes: 48, EdgesPerNode: 2.5, ReplicatedFraction: 0.25,
		Seed: 4242, HWNodes: 16,
	})
	if err != nil {
		b.Fatal(err)
	}
	res, err := Integrate(sys)
	if err != nil {
		b.Fatal(err)
	}
	p, _ := res.Expanded.Matrix()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := influence.SeparationMatrixWorkers(
					context.Background(), p, 0, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScenarioGen measures the corpus generator at the large preset
// (120 processes): the cost of producing a whole scenario — topology,
// sharded attribute synthesis, hierarchy — per family. The generator is
// the workload source for every other benchmark family, so its own cost
// must stay negligible next to the pipeline's.
func BenchmarkScenarioGen(b *testing.B) {
	for _, fam := range scengen.Families() {
		b.Run(string(fam), func(b *testing.B) {
			var edges int
			for i := 0; i < b.N; i++ {
				sc, err := scengen.Generate(scengen.Config{Family: fam, Processes: 120, Seed: 7})
				if err != nil {
					b.Fatal(err)
				}
				edges = len(sc.System.Influences)
			}
			b.ReportMetric(float64(edges), "edges")
		})
	}
}

// BenchmarkIntegrateGenerated runs the full pipeline on a generated
// medium scenario per family — the honest end-to-end workload numbers
// the worked example (8 processes) cannot provide.
func BenchmarkIntegrateGenerated(b *testing.B) {
	for _, fam := range scengen.Families() {
		sc, err := scengen.Generate(scengen.Config{Family: fam, Processes: 36, Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(string(fam), func(b *testing.B) {
			var cross float64
			for i := 0; i < b.N; i++ {
				res, err := Integrate(sc.System.Clone())
				if err != nil {
					b.Fatal(err)
				}
				cross = res.Report.CrossInfluence
			}
			b.ReportMetric(cross, "cross-influence")
		})
	}
}
