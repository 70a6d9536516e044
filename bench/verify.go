package main

// Output checks. None of them calls the code under test to decide whether
// an output is right: replica naming, cluster ids and the processor-demand
// criterion are re-derived here from the specification, campaign results
// are held to counting identities, and ledgers are compared to committed
// goldens.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	depint "repro"
	"repro/internal/faultsim"
	"repro/internal/ledger"
	"repro/internal/scengen"
	"repro/internal/spec"
)

// replicaNames lists the ids replication expansion gives process p: the
// base name when FT ≤ 1, else the name suffixed a, b, c, … (and _rN past
// the 26th replica).
func replicaNames(p spec.Process) []string {
	if p.FT <= 1 {
		return []string{p.Name}
	}
	out := make([]string, p.FT)
	for i := range out {
		if i < 26 {
			out[i] = fmt.Sprintf("%s%c", p.Name, 'a'+i)
		} else {
			out[i] = fmt.Sprintf("%s_r%d", p.Name, i+1)
		}
	}
	return out
}

// clusterMembers splits a cluster id "{a,b,c}" into its members; a plain
// id is its own single member.
func clusterMembers(id string) []string {
	if len(id) >= 2 && id[0] == '{' && id[len(id)-1] == '}' {
		return strings.Split(id[1:len(id)-1], ",")
	}
	return []string{id}
}

// demandJob is the timing triple the processor-demand check reads.
type demandJob struct{ est, tcd, ct float64 }

// demandFeasible decides whether single-shot jobs fit one preemptive
// processor: for every window [s, d) between a release and a deadline, the
// computation of the jobs lying wholly inside it must fit in d − s.
func demandFeasible(jobs []demandJob) bool {
	for _, a := range jobs {
		for _, b := range jobs {
			s, d := a.est, b.tcd
			if d <= s {
				continue
			}
			demand := 0.0
			for _, j := range jobs {
				if j.est >= s && j.tcd <= d {
					demand += j.ct
				}
			}
			if demand > d-s+1e-9 {
				return false
			}
		}
	}
	return true
}

// checkAssignment holds an Integrate assignment to the framework's
// feasibility rules: at most HWNodes clusters on distinct default-platform
// nodes, every replica of every process placed exactly once, replicas of
// one process on distinct nodes, and every node's jobs schedulable.
func checkAssignment(sys *spec.System, asg depint.Assignment) error {
	if len(asg) == 0 || len(asg) > sys.HWNodes {
		return fmt.Errorf("%s: %d clusters for %d HW nodes", sys.Name, len(asg), sys.HWNodes)
	}
	validNode := map[string]bool{}
	for i := 1; i <= sys.HWNodes; i++ {
		validNode[fmt.Sprintf("hw%d", i)] = true
	}
	nodeOf := map[string]string{} // replica -> HW node
	jobsOn := map[string][]demandJob{}
	usedNode := map[string]bool{}
	timing := map[string]demandJob{}
	baseOf := map[string]string{}
	for _, p := range sys.Processes {
		for _, r := range replicaNames(p) {
			baseOf[r] = p.Name
			timing[r] = demandJob{p.EST, p.TCD, p.CT}
		}
	}
	for id, node := range asg {
		if !validNode[node] {
			return fmt.Errorf("%s: cluster %s on unknown node %q", sys.Name, id, node)
		}
		if usedNode[node] {
			return fmt.Errorf("%s: node %s hosts two clusters", sys.Name, node)
		}
		usedNode[node] = true
		for _, m := range clusterMembers(id) {
			if _, ok := baseOf[m]; !ok {
				return fmt.Errorf("%s: cluster %s holds unknown replica %q", sys.Name, id, m)
			}
			if prev, dup := nodeOf[m]; dup {
				return fmt.Errorf("%s: replica %s placed twice (%s, %s)", sys.Name, m, prev, node)
			}
			nodeOf[m] = node
			jobsOn[node] = append(jobsOn[node], timing[m])
		}
	}
	for _, p := range sys.Processes {
		seen := map[string]string{}
		for _, r := range replicaNames(p) {
			node, ok := nodeOf[r]
			if !ok {
				return fmt.Errorf("%s: replica %s of %s is not assigned", sys.Name, r, p.Name)
			}
			if other, clash := seen[node]; clash {
				return fmt.Errorf("%s: replicas %s and %s share node %s", sys.Name, other, r, node)
			}
			seen[node] = r
		}
	}
	for node, jobs := range jobsOn {
		if !demandFeasible(jobs) {
			return fmt.Errorf("%s: jobs on %s fail the processor-demand test", sys.Name, node)
		}
	}
	return nil
}

// checkCampaign holds a campaign result to the identities every correct
// run satisfies, whatever its random draws.
func checkCampaign(c faultsim.Campaign, r faultsim.Result) error {
	var errs []error
	bad := func(format string, a ...any) { errs = append(errs, fmt.Errorf(format, a...)) }
	t := r.Trials
	if t != c.Trials || r.EarlyStopped {
		bad("ran %d trials (early stop %v), configured %d", t, r.EarlyStopped, c.Trials)
	}
	if r.TrialsWithEscape < 0 || r.TrialsWithEscape > t {
		bad("%d escaping trials out of %d", r.TrialsWithEscape, t)
	}
	if r.InitialFaults < t {
		bad("%d initial faults for %d trials", r.InitialFaults, t)
	}
	if r.TransientFaults != 0 {
		bad("%d transient faults under a permanent-fault model", r.TransientFaults)
	}
	sumAffected, transmissions := 0, 0
	for n, v := range r.AffectedCount {
		if !c.Graph.HasNode(n) || v <= 0 || v > t {
			bad("affected count %s=%d", n, v)
		}
		sumAffected += v
	}
	if sumAffected != r.TotalAffected {
		bad("per-FCM affected counts sum to %d, total says %d", sumAffected, r.TotalAffected)
	}
	if r.TotalAffected < t || r.TotalAffected > t*c.Graph.NumNodes() {
		bad("%d affected FCMs over %d trials of %d nodes", r.TotalAffected, t, c.Graph.NumNodes())
	}
	for k, v := range r.TransmissionCount {
		if v < 0 || v > r.EdgeTrials[k] {
			bad("edge %s transmitted %d times in %d trials", k, v, r.EdgeTrials[k])
		}
		transmissions += v
	}
	if r.CrossNodeTransmissions < r.TrialsWithEscape || r.CrossNodeTransmissions > transmissions+r.CommFaultTrials {
		bad("%d cross-node transmissions for %d escapes, %d transmissions and %d comm faults",
			r.CrossNodeTransmissions, r.TrialsWithEscape, transmissions, r.CommFaultTrials)
	}
	if r.CriticalAffected > r.TotalAffected {
		bad("%d critical of %d affected", r.CriticalAffected, r.TotalAffected)
	}
	if r.EscapedCriticalityLoss < 0 || r.EscapedCriticalityLoss > r.CriticalityLoss*(1+1e-9) {
		bad("escaped criticality loss %g of %g", r.EscapedCriticalityLoss, r.CriticalityLoss)
	}
	// Comm faults are drawn per trial with probability CommFaultFraction
	// under the single-fault model and never under the correlated one; the
	// ±0.1 window is over 20 standard deviations wide at 1,000 trials.
	model, want := "single", c.CommFaultFraction
	if c.Model != nil && c.Model.Name() != model {
		model, want = c.Model.Name(), 0
	}
	if got := float64(r.CommFaultTrials) / float64(max(t, 1)); t >= 1000 && (got < want-0.1 || got > want+0.1) {
		bad("comm-fault share %.3f, configured %.3f", got, want)
	}
	if len(errs) > 0 {
		return fmt.Errorf("campaign %s (%s): %w", c.Label, model, errors.Join(errs...))
	}
	return nil
}

// corpusEntry is one scenario of testdata/corpus/manifest.json.
type corpusEntry struct {
	Name     string `json:"name"`
	Scenario string `json:"scenario"`
}

// corpusManifest is the subset of the manifest the golden re-run needs.
type corpusManifest struct {
	Trials            int           `json:"trials"`
	CampaignSeed      uint64        `json:"campaign_seed"`
	CriticalThreshold float64       `json:"critical_threshold"`
	Scenarios         []corpusEntry `json:"scenarios"`
}

// goldenLedger re-runs one corpus entry with the recipe that wrote its
// golden (cmd/scenariocheck: Integrate and a short campaign into one
// ledger) and returns the ledger bytes.
func goldenLedger(m *corpusManifest, e corpusEntry, sys *spec.System) ([]byte, error) {
	cfg, err := scengen.Parse(e.Scenario)
	if err != nil {
		return nil, err
	}
	led := ledger.New(ledger.Header{Tool: "scenariocheck"})
	led.Append(ledger.Record{
		Kind:   ledger.KindScenario,
		Detail: fmt.Sprintf("%s:%d:%d", cfg.Family, cfg.Processes, cfg.Seed),
		Result: sys.Name,
	})
	res, err := depint.Integrate(sys.Clone(),
		depint.WithLedger(led), depint.WithCriticalThreshold(m.CriticalThreshold))
	if err != nil {
		return nil, fmt.Errorf("integrate: %w", err)
	}
	if _, err := faultsim.Run(faultsim.Campaign{
		Graph:             res.Expanded,
		HWOf:              res.HWOf(),
		Trials:            m.Trials,
		Seed:              m.CampaignSeed,
		Workers:           workers,
		CriticalThreshold: m.CriticalThreshold,
		Ledger:            led,
	}); err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	var buf bytes.Buffer
	if err := led.WriteJSONL(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// checkGolden compares re-run ledger bytes with the committed golden.
func checkGolden(name string, got, golden []byte) error {
	if bytes.Equal(got, golden) {
		return nil
	}
	i := 0
	for i < len(got) && i < len(golden) && got[i] == golden[i] {
		i++
	}
	return fmt.Errorf("%s: ledger differs from its golden at byte %d (%d vs %d bytes)", name, i, len(got), len(golden))
}

// verifyCorpus re-runs every corpus entry and compares it with its golden.
func verifyCorpus(root string, m *corpusManifest, specs map[string]*spec.System) []error {
	var errs []error
	for _, e := range m.Scenarios {
		golden, err := os.ReadFile(filepath.Join(root, corpusDir, e.Name+".golden.jsonl"))
		if err == nil {
			var got []byte
			if got, err = goldenLedger(m, e, specs[e.Name]); err == nil {
				err = checkGolden(e.Name, got, golden)
			}
		}
		if err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}
