package main

import (
	"strings"
	"testing"

	depint "repro"
	"repro/internal/faultsim"
)

func TestDemandFeasible(t *testing.T) {
	// The paper's example: <0,5,3> and <3,6,4> cannot share a processor.
	if demandFeasible([]demandJob{{0, 5, 3}, {3, 6, 4}}) {
		t.Error("<0,5,3> + <3,6,4> judged feasible")
	}
	if !demandFeasible([]demandJob{{0, 5, 3}, {3, 10, 4}}) {
		t.Error("<0,5,3> + <3,10,4> judged infeasible")
	}
}

// TestAssignmentCheckCatchesCorruption passes a real assignment and fails
// each way of corrupting it.
func TestAssignmentCheckCatchesCorruption(t *testing.T) {
	sys := depint.PaperExample()
	res, err := depint.Integrate(sys)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkAssignment(sys, res.Assignment); err != nil {
		t.Fatalf("real assignment rejected: %v", err)
	}
	clusters := res.Assignment.Clusters()
	corrupt := func(name string, edit func(a depint.Assignment), want string) {
		t.Helper()
		a := depint.Assignment{}
		for k, v := range res.Assignment {
			a[k] = v
		}
		edit(a)
		if err := checkAssignment(sys, a); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: got %v, want an error containing %q", name, err, want)
		}
	}
	corrupt("two clusters on one node", func(a depint.Assignment) {
		a[clusters[1]] = a[clusters[0]]
	}, "hosts two clusters")
	corrupt("cluster dropped", func(a depint.Assignment) {
		delete(a, clusters[0])
	}, "not assigned")
	corrupt("replicas merged", func(a depint.Assignment) {
		// p1 has three replicas spread over three clusters; fold the
		// cluster holding p1b into the one holding p1a.
		var withA, withB string
		for _, c := range clusters {
			for _, m := range clusterMembers(c) {
				switch m {
				case "p1a":
					withA = c
				case "p1b":
					withB = c
				}
			}
		}
		merged := "{" + strings.Join(append(clusterMembers(withA), clusterMembers(withB)...), ",") + "}"
		a[merged] = a[withA]
		delete(a, withA)
		delete(a, withB)
	}, "share node")
	corrupt("unknown node", func(a depint.Assignment) {
		a[clusters[0]] = "hw99"
	}, "unknown node")
}

// TestGoldenCheckCatchesFlippedByte re-runs one corpus entry by the
// golden's recipe, then flips a byte of the golden.
func TestGoldenCheckCatchesFlippedByte(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	m, specs, err := loadCorpus(root)
	if err != nil {
		t.Fatal(err)
	}
	if errs := verifyCorpus(root, &corpusManifest{Trials: m.Trials, CampaignSeed: m.CampaignSeed,
		CriticalThreshold: m.CriticalThreshold, Scenarios: m.Scenarios[:1]}, specs); len(errs) > 0 {
		t.Fatalf("corpus entry does not match its golden: %v", errs)
	}
	e := m.Scenarios[0]
	got, err := goldenLedger(m, e, specs[e.Name])
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), got...)
	flipped[len(flipped)/2] ^= 1
	if err := checkGolden(e.Name, got, flipped); err == nil {
		t.Error("a flipped golden byte went unnoticed")
	}
}

// TestCampaignCheckCatchesPerturbedCounter passes a real result and fails
// each perturbed counter.
func TestCampaignCheckCatchesPerturbedCounter(t *testing.T) {
	res, err := depint.Integrate(depint.PaperExample())
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range faultModels {
		c := faultsim.Campaign{Graph: res.Expanded, HWOf: res.HWOf(), Trials: 2000, Seed: 3,
			Workers: 1, CriticalThreshold: 10, CommFaultFraction: 0.3, Model: model}
		r, err := faultsim.Run(c)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkCampaign(c, r); err != nil {
			t.Fatalf("%s: real result rejected: %v", model.Name(), err)
		}
		for name, perturb := range map[string]func(r *faultsim.Result){
			"total affected":   func(r *faultsim.Result) { r.TotalAffected++ },
			"trials":           func(r *faultsim.Result) { r.Trials-- },
			"escapes":          func(r *faultsim.Result) { r.TrialsWithEscape = r.CrossNodeTransmissions + 1 },
			"critical":         func(r *faultsim.Result) { r.CriticalAffected = r.TotalAffected + 1 },
			"comm faults":      func(r *faultsim.Result) { r.CommFaultTrials = r.Trials },
			"transmission key": func(r *faultsim.Result) { r.TransmissionCount["x>y"] = 1 },
		} {
			p := r
			p.AffectedCount = copyCounts(r.AffectedCount)
			p.TransmissionCount = copyCounts(r.TransmissionCount)
			perturb(&p)
			if err := checkCampaign(c, p); err == nil {
				t.Errorf("%s: perturbed %s went unnoticed", model.Name(), name)
			}
		}
	}
}

func copyCounts(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
