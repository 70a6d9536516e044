// Faultinjection compares the fault containment achieved by each
// condensation heuristic, on the paper's worked example and on a larger
// synthetic avionics suite, using seeded Monte-Carlo injection.
//
// This is the measurement loop the paper marks as its continuing work:
// "developing techniques to determine and measure actual parameters such
// as 'influence' across FCMs is crucial for the techniques to be applied
// to real systems."
//
// Run with: go run ./examples/faultinjection
package main

import (
	"fmt"
	"log"

	"repro"
	"repro/internal/experiments"
	"repro/internal/faultsim"
	"repro/internal/obs"
)

func main() {
	const trials = 30000

	fmt.Println("== worked example (8 processes, 12 replicas, 6 HW nodes) ==")
	compare(depint.PaperExample(), trials)

	synth, err := experiments.Synthesize(experiments.SynthConfig{
		Processes:          36,
		EdgesPerNode:       2.5,
		ReplicatedFraction: 0.25,
		Seed:               2024,
		HWNodes:            12,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n== synthetic suite (%d processes, %d replicas, %d HW nodes) ==\n",
		len(synth.Processes), synth.TotalReplicas(), synth.HWNodes)
	compare(synth, trials)

	fmt.Println("\nreading the table: escape-rate is the fraction of injected faults")
	fmt.Println("that reached an FCM on a different processor; the influence-driven")
	fmt.Println("heuristics (H1/H2/H3) should sit below the criticality-driven and")
	fmt.Println("timing-driven reductions, which optimise for different goals.")

	fmt.Println("\n== campaign progress: H1 on the worked example, observed ==")
	observed(depint.PaperExample(), trials)

	fmt.Println("\n== correlated vs independent faults: H1 on the worked example ==")
	correlated(depint.PaperExample(), trials)
}

// correlated contrasts the paper's single-fault model with the
// common-mode model on the p1..p8 example: when every FCM colocated with
// the seed faults together, the single-fault containment argument of
// Eq. (1)-(4) no longer bounds the damage — the whole seed node's
// criticality is lost up front and more mass escapes across HW
// boundaries.
func correlated(sys *depint.System, trials int) {
	res, err := depint.Integrate(sys)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("fault model   escape-rate  mean-affected  escaped-crit/trial")
	for _, m := range []faultsim.FaultModel{faultsim.SingleFault(), faultsim.Correlated()} {
		inj, err := faultsim.Run(faultsim.Campaign{
			Graph:             res.Expanded,
			HWOf:              res.HWOf(),
			Trials:            trials,
			Seed:              7,
			CriticalThreshold: 10,
			Model:             m,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s  %11.4f  %13.3f  %18.3f\n",
			m.Name(), inj.EscapeRate(), inj.MeanAffected(), inj.CriticalityWeightedEscapeRate())
	}
	fmt.Println("\nthe correlated row injects every FCM sharing the seed's processor at")
	fmt.Println("once (a power-supply or hypervisor failure), so more criticality-")
	fmt.Println("weighted fault mass escapes the node than under independent faults.")
}

// observed runs one instrumented campaign and prints the telemetry
// checkpoints emitted every 10% of trials, showing the running escape-rate
// estimator converge toward its final value.
func observed(sys *depint.System, trials int) {
	o := obs.New()
	res, err := depint.Integrate(sys, depint.WithObserver(o))
	if err != nil {
		log.Fatal(err)
	}
	span := o.StartSpan("campaign")
	inj, err := faultsim.Run(faultsim.Campaign{
		Graph:             res.Expanded,
		HWOf:              res.HWOf(),
		Trials:            trials,
		Seed:              7,
		CriticalThreshold: 10,
		Span:              span,
	})
	span.End()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("  trials  escape-rate  mean-affected   (running estimates)")
	for _, ev := range span.Events() {
		if ev.Name != "campaign_checkpoint" {
			continue
		}
		attrs := map[string]any{}
		for _, a := range ev.Attrs {
			attrs[a.Key] = a.Value
		}
		fmt.Printf("  %6d  %11.4f  %13.4f\n",
			attrs["trials_done"], attrs["escape_rate"], attrs["mean_affected"])
	}
	fmt.Printf("   final  %11.4f  %13.4f\n", inj.EscapeRate(), inj.MeanAffected())
}

func compare(sys *depint.System, trials int) {
	fmt.Println("strategy      escape-rate  cross-transmissions  mean-crit-loss")
	for _, s := range []depint.Strategy{
		depint.H1, depint.H1PairAll, depint.H2, depint.H3,
		depint.Criticality, depint.TimingOrder,
	} {
		res, err := depint.Integrate(sys, depint.WithStrategy(s))
		if err != nil {
			fmt.Printf("%-12s  unable to integrate: %v\n", s, err)
			continue
		}
		inj, err := res.InjectFaults(trials, 7)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s  %11.4f  %19d  %14.2f\n",
			s, inj.EscapeRate(), inj.CrossNodeTransmissions, inj.MeanCriticalityLoss())
	}
}
