package experiments

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"

	"repro/internal/attrs"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/faultsim"
	"repro/internal/ftsw"
	"repro/internal/graph"
	"repro/internal/influence"
	"repro/internal/metrics"
	"repro/internal/spec"
	"repro/internal/verify"
)

// E1Result verifies the probability algebra of Eqs. (1)–(4).
type E1Result struct {
	Eq1  float64 // 0.5·0.4·0.25
	Eq2  float64 // combine(0.7, 0.2)
	Eq4  float64 // cluster combine(0.3, 0.1)
	Text string
}

// E1 exercises the influence algebra on the paper's own numbers.
func E1() (E1Result, error) {
	f := influence.Factor{Name: "demo", POccur: 0.5, PTransmit: 0.4, PManifest: 0.25}
	eq2, err := influence.Combine([]float64{0.7, 0.2})
	if err != nil {
		return E1Result{}, err
	}
	eq4, err := influence.ClusterInfluence([]float64{0.3, 0.1})
	if err != nil {
		return E1Result{}, err
	}
	r := E1Result{Eq1: f.P(), Eq2: eq2, Eq4: eq4}
	r.Text = fmt.Sprintf(
		"E1: influence algebra\n  Eq.(1) p=p1*p2*p3: 0.5*0.4*0.25 = %.4g\n"+
			"  Eq.(2) 1-(1-0.7)(1-0.2) = %.4g (Fig. 5's 0.76)\n"+
			"  Eq.(4) 1-(1-0.3)(1-0.1) = %.4g (Fig. 5's 0.37)\n",
		r.Eq1, r.Eq2, r.Eq4)
	return r, nil
}

// E2Row is one heuristic-comparison measurement.
type E2Row struct {
	N         int
	Heuristic string
	Cross     float64 // residual cross-node influence (lower = better)
	Contain   float64 // contained fraction
	Err       string  // non-empty when the heuristic failed
}

// E2Result carries the comparison table.
type E2Result struct {
	Rows []E2Row
	Text string
}

// E2 compares the condensation heuristics on synthetic graphs of growing
// size, measuring the §5.3 containment metric. Expected shape: H1 and H2
// contain clearly more influence than a random feasible partition; H3
// tracks them.
func E2(sizes []int, seed uint64) (E2Result, error) {
	if len(sizes) == 0 {
		sizes = []int{12, 24, 48}
	}
	dw, err := attrs.DefaultWeights()
	if err != nil {
		return E2Result{}, err
	}
	var res E2Result
	var b strings.Builder
	b.WriteString("E2: heuristic containment comparison (synthetic workloads)\n")
	b.WriteString("   n  heuristic     cross-influence  contained\n")
	for _, n := range sizes {
		sys, err := Synthesize(SynthConfig{
			Processes: n, EdgesPerNode: 2.5, ReplicatedFraction: 0.25,
			Seed: seed + uint64(n), HWNodes: maxInt(2, n/3),
		})
		if err != nil {
			return res, err
		}
		g, err := sys.Graph()
		if err != nil {
			return res, err
		}
		exp, err := cluster.Expand(g, sys.Jobs())
		if err != nil {
			return res, err
		}
		full := exp.Graph
		total := 0.0
		for _, e := range full.Edges() {
			if !e.Replica {
				total += e.Weight
			}
		}
		run := func(name string, reduce func(c *cluster.Condenser) error) {
			c := cluster.NewCondenser(full.Clone(), exp.Jobs)
			row := E2Row{N: n, Heuristic: name}
			if err := reduce(c); err != nil {
				row.Err = err.Error()
			} else {
				row.Cross = full.CrossWeight(c.Partition())
				if total > 0 {
					row.Contain = 1 - row.Cross/total
				}
			}
			res.Rows = append(res.Rows, row)
			if row.Err != "" {
				fmt.Fprintf(&b, "%4d  %-12s  FAILED: %s\n", n, name, row.Err)
			} else {
				fmt.Fprintf(&b, "%4d  %-12s  %15.3f  %9.3f\n", n, name, row.Cross, row.Contain)
			}
		}
		target := sys.HWNodes
		run("H1", func(c *cluster.Condenser) error { return c.ReduceByInfluence(target) })
		run("H1-pair-all", func(c *cluster.Condenser) error { return c.ReduceByInfluencePairAll(target) })
		run("H2-min-cut", func(c *cluster.Condenser) error { return c.ReduceByMinCut(target) })
		run("H3-spheres", func(c *cluster.Condenser) error { return c.ReduceBySpheres(target, dw) })
		run("criticality", func(c *cluster.Condenser) error { return c.ReduceByCriticality(target) })
		run("random", func(c *cluster.Condenser) error { return randomReduce(c, target, seed+uint64(n)) })
	}
	res.Text = b.String()
	return res, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// randomReduce is the baseline: merge uniformly random feasible pairs.
func randomReduce(c *cluster.Condenser, target int, seed uint64) error {
	rng := rand.New(rand.NewPCG(seed, seed^0xabcdef))
	for c.G.NumNodes() > target {
		nodes := c.G.Nodes()
		merged := false
		// Up to n² random probes, then a deterministic sweep.
		for try := 0; try < len(nodes)*len(nodes); try++ {
			a := nodes[rng.IntN(len(nodes))]
			b := nodes[rng.IntN(len(nodes))]
			if a == b {
				continue
			}
			if ok, _ := c.CanCombine(a, b); !ok {
				continue
			}
			if _, err := c.Combine(a, b, "random"); err != nil {
				return err
			}
			merged = true
			break
		}
		if !merged {
			for i, a := range nodes {
				for _, b := range nodes[i+1:] {
					if ok, _ := c.CanCombine(a, b); ok {
						if _, err := c.Combine(a, b, "random"); err != nil {
							return err
						}
						merged = true
						break
					}
				}
				if merged {
					break
				}
			}
		}
		if !merged {
			return cluster.ErrCannotReduce
		}
	}
	return nil
}

// E3Row is one fault-injection measurement.
type E3Row struct {
	Heuristic string
	Escape    float64 // fraction of trials crossing a HW boundary
	CritLoss  float64 // mean criticality affected per trial
}

// E3Result carries the injection comparison.
type E3Result struct {
	Rows []E3Row
	Text string
}

// E3 injects faults into the worked example under each reduction strategy
// and measures containment empirically. Expected shape: influence-driven
// H1 yields the lowest escape rate; criticality-driven Approach B yields
// the lowest criticality-weighted loss per escape; random is worst.
func E3(trials int, seed uint64) (E3Result, error) {
	if trials <= 0 {
		trials = 20000
	}
	sys := spec.PaperExample()
	g, err := sys.Graph()
	if err != nil {
		return E3Result{}, err
	}
	exp, err := cluster.Expand(g, sys.Jobs())
	if err != nil {
		return E3Result{}, err
	}
	full := exp.Graph
	dw, err := attrs.DefaultWeights()
	if err != nil {
		return E3Result{}, err
	}

	var res E3Result
	var b strings.Builder
	b.WriteString("E3: fault injection over mappings of the worked example\n")
	fmt.Fprintf(&b, "  trials=%d seed=%d\n", trials, seed)
	b.WriteString("  heuristic     escape-rate  mean-criticality-loss\n")
	strategies := []struct {
		name   string
		reduce func(c *cluster.Condenser) error
	}{
		{"H1", func(c *cluster.Condenser) error { return c.ReduceByInfluence(6) }},
		{"H2-min-cut", func(c *cluster.Condenser) error { return c.ReduceByMinCut(6) }},
		{"H3-spheres", func(c *cluster.Condenser) error { return c.ReduceBySpheres(6, dw) }},
		{"criticality", func(c *cluster.Condenser) error { return c.ReduceByCriticality(6) }},
		{"random", func(c *cluster.Condenser) error { return randomReduce(c, 6, seed) }},
	}
	for _, s := range strategies {
		c := cluster.NewCondenser(full.Clone(), exp.Jobs)
		if err := s.reduce(c); err != nil {
			return res, fmt.Errorf("experiments: E3 %s: %w", s.name, err)
		}
		hwOf := map[string]string{}
		for _, id := range c.G.Nodes() {
			for _, m := range graph.Members(id) {
				hwOf[m] = id
			}
		}
		r, err := faultsim.Run(faultsim.Campaign{
			Graph: full, HWOf: hwOf, Trials: trials, Seed: seed,
			CriticalThreshold: 10,
		})
		if err != nil {
			return res, err
		}
		row := E3Row{Heuristic: s.name, Escape: r.EscapeRate(), CritLoss: r.MeanCriticalityLoss()}
		res.Rows = append(res.Rows, row)
		fmt.Fprintf(&b, "  %-12s  %11.4f  %21.3f\n", row.Heuristic, row.Escape, row.CritLoss)
	}
	res.Text = b.String()
	return res, nil
}

// E4Row is one truncation-order measurement.
type E4Row struct {
	Order      int
	Separation float64
	Delta      float64 // |change| vs previous order
}

// E4Result carries the convergence curve.
type E4Result struct {
	Pair [2]string
	Rows []E4Row
	Text string
}

// E4 sweeps the Eq. (3) truncation order for a transitively coupled pair
// of the worked example, showing geometric convergence ("higher-order
// terms are likely to be small enough to be neglected").
func E4(maxOrder int) (E4Result, error) {
	if maxOrder < 2 {
		maxOrder = 8
	}
	sys := spec.PaperExample()
	g, err := sys.Graph()
	if err != nil {
		return E4Result{}, err
	}
	p, ids := g.Matrix()
	idx := map[string]int{}
	for i, id := range ids {
		idx[id] = i
	}
	from, to := "p1", "p5" // no direct edge; coupled via p2->p3->p5
	res := E4Result{Pair: [2]string{from, to}}
	var b strings.Builder
	fmt.Fprintf(&b, "E4: separation-series convergence for (%s,%s)\n", from, to)
	b.WriteString("  order  separation      delta\n")
	prev := math.NaN()
	for k := 1; k <= maxOrder; k++ {
		s, err := influence.Separation(p, idx[from], idx[to], k)
		if err != nil {
			return res, err
		}
		row := E4Row{Order: k, Separation: s}
		if !math.IsNaN(prev) {
			row.Delta = math.Abs(s - prev)
		}
		prev = s
		res.Rows = append(res.Rows, row)
		fmt.Fprintf(&b, "  %5d  %10.6f  %9.6f\n", row.Order, row.Separation, row.Delta)
	}
	res.Text = b.String()
	return res, nil
}

// E5Row is one integration-level measurement.
type E5Row struct {
	Target   int
	Feasible bool
	Cross    float64
	Escape   float64
}

// E5Result carries the tradeoff sweep.
type E5Result struct {
	Rows []E5Row
	// Floor is the smallest feasible target reached.
	Floor int
	Text  string
}

// E5 answers the paper's closing question — "Is there a limit to the level
// of integration one should design for?" — by sweeping the HW-node target
// downward on the worked example. Containment improves monotonically until
// the replica/timing constraints make further integration infeasible.
func E5(trials int, seed uint64) (E5Result, error) {
	if trials <= 0 {
		trials = 10000
	}
	sys := spec.PaperExample()
	g, err := sys.Graph()
	if err != nil {
		return E5Result{}, err
	}
	exp, err := cluster.Expand(g, sys.Jobs())
	if err != nil {
		return E5Result{}, err
	}
	full := exp.Graph
	res := E5Result{Floor: full.NumNodes()}
	var b strings.Builder
	b.WriteString("E5: integration-level tradeoff (H1, worked example)\n")
	b.WriteString("  target  feasible  cross-influence  escape-rate\n")
	for target := full.NumNodes(); target >= 1; target-- {
		c := cluster.NewCondenser(full.Clone(), exp.Jobs)
		row := E5Row{Target: target}
		if err := c.ReduceByInfluence(target); err != nil {
			row.Feasible = false
			res.Rows = append(res.Rows, row)
			fmt.Fprintf(&b, "  %6d  %8v  %15s  %11s\n", target, false, "-", "-")
			continue
		}
		row.Feasible = true
		if target < res.Floor {
			res.Floor = target
		}
		row.Cross = full.CrossWeight(c.Partition())
		hwOf := map[string]string{}
		for _, id := range c.G.Nodes() {
			for _, m := range graph.Members(id) {
				hwOf[m] = id
			}
		}
		r, err := faultsim.Run(faultsim.Campaign{
			Graph: full, HWOf: hwOf, Trials: trials, Seed: seed,
		})
		if err != nil {
			return res, err
		}
		row.Escape = r.EscapeRate()
		res.Rows = append(res.Rows, row)
		fmt.Fprintf(&b, "  %6d  %8v  %15.3f  %11.4f\n", target, true, row.Cross, row.Escape)
	}
	res.Text = b.String()
	return res, nil
}

// E6Result carries the recertification-cost comparison.
type E6Result struct {
	Model verify.CostModel
	Text  string
}

// E6 compares R5's parent-only retesting against whole-system retesting
// over a modification sequence on a mid-sized hierarchy.
func E6(processes, tasksPer, procsPer, mods int, seed uint64) (E6Result, error) {
	if processes <= 0 {
		processes, tasksPer, procsPer, mods = 4, 3, 4, 25
	}
	var procedures []string
	build := func() (*core.Hierarchy, error) {
		h := core.NewHierarchy()
		procedures = procedures[:0]
		for p := 0; p < processes; p++ {
			pname := fmt.Sprintf("P%d", p)
			if _, err := h.AddProcess(pname, attrs.Set{}); err != nil {
				return nil, err
			}
			for t := 0; t < tasksPer; t++ {
				tname := fmt.Sprintf("P%dT%d", p, t)
				if _, err := h.AddTask(pname, tname, attrs.Set{}); err != nil {
					return nil, err
				}
				for f := 0; f < procsPer; f++ {
					fname := fmt.Sprintf("P%dT%df%d", p, t, f)
					if _, err := h.AddProcedure(tname, fname, attrs.Set{}, true); err != nil {
						return nil, err
					}
					procedures = append(procedures, fname)
				}
			}
		}
		return h, nil
	}
	// Probe build to enumerate procedures for the modification sequence.
	if _, err := build(); err != nil {
		return E6Result{}, err
	}
	rng := rand.New(rand.NewPCG(seed, seed^0x5555))
	sequence := make([]string, 0, mods)
	for i := 0; i < mods; i++ {
		sequence = append(sequence, procedures[rng.IntN(len(procedures))])
	}
	model, err := verify.CompareCosts(build, sequence)
	if err != nil {
		return E6Result{}, err
	}
	var b strings.Builder
	b.WriteString("E6: recertification cost, R5 (parent-only) vs naive (whole system)\n")
	fmt.Fprintf(&b, "  hierarchy: %d processes x %d tasks x %d procedures; %d modifications\n",
		processes, tasksPer, procsPer, mods)
	fmt.Fprintf(&b, "  R5:    %5d FCM retests, %5d interface retests\n", model.R5FCMs, model.R5Interfaces)
	fmt.Fprintf(&b, "  naive: %5d FCM retests, %5d interface retests\n", model.NaiveFCMs, model.NaiveInterfaces)
	fmt.Fprintf(&b, "  savings: %.1f%%\n", model.Savings()*100)
	return E6Result{Model: model, Text: b.String()}, nil
}

// E7Row is one replication measurement.
type E7Row struct {
	FailureProb float64
	Simplex     float64
	Duplex      float64 // 1-of-2 standby
	TMRVal      float64 // 2-of-3 majority
	TMRAnalytic float64
}

// E7Result carries the replication sweep.
type E7Result struct {
	Rows []E7Row
	Text string
}

// E7 sweeps the per-node failure probability and measures module
// unavailability for simplex/duplex/TMR deployments, against the analytic
// k-of-n values. Shape: TMR < simplex for p < 0.5; duplex standby best.
func E7(trials int, seed uint64) (E7Result, error) {
	if trials <= 0 {
		trials = 30000
	}
	var res E7Result
	var b strings.Builder
	b.WriteString("E7: replication effectiveness under HW node failures\n")
	b.WriteString("  p-fail  simplex  duplex(1of2)  TMR(2of3)  TMR-analytic\n")
	for _, p := range []float64{0.02, 0.05, 0.1, 0.2, 0.3} {
		c := faultsim.HWFaultCampaign{
			HWOf: map[string]string{
				"s": "h1", "da": "h2", "db": "h3",
				"ta": "h4", "tb": "h5", "tc": "h6",
			},
			ReplicasOf: map[string][]string{
				"simplex": {"s"}, "duplex": {"da", "db"}, "tmr": {"ta", "tb", "tc"},
			},
			FailureProb: p, MajorityRequired: true,
			Trials: trials, Seed: seed,
		}
		// Majority semantics apply per module replica count: 1-of-1,
		// 2-of-2? For duplex standby we want 1-of-2 — run a second
		// campaign with standby semantics for the duplex module.
		rMaj, err := faultsim.RunHW(c)
		if err != nil {
			return res, err
		}
		c2 := c
		c2.MajorityRequired = false
		rStandby, err := faultsim.RunHW(c2)
		if err != nil {
			return res, err
		}
		analytic, err := metrics.TMR(1 - p)
		if err != nil {
			return res, err
		}
		row := E7Row{
			FailureProb: p,
			Simplex:     rMaj.Unavailability("simplex"),
			Duplex:      rStandby.Unavailability("duplex"),
			TMRVal:      rMaj.Unavailability("tmr"),
			TMRAnalytic: 1 - analytic,
		}
		res.Rows = append(res.Rows, row)
		fmt.Fprintf(&b, "  %6.2f  %7.4f  %12.4f  %9.4f  %12.4f\n",
			row.FailureProb, row.Simplex, row.Duplex, row.TMRVal, row.TMRAnalytic)
	}
	res.Text = b.String()
	return res, nil
}

// E8Result carries the task-level containment measurement.
type E8Result struct {
	UnguardedTainted int
	GuardedTainted   int
	RBContainment    float64
	Text             string
}

// E8 measures task-level containment: a corrupting producer feeds a
// pipeline of consumers through messages and shared memory; recovery-block
// guards (acceptance tests) cut fault propagation. A recovery block over
// faulty variants demonstrates the mechanism's containment rate directly.
func E8() (E8Result, error) {
	pipeline := func(guarded bool) (int, error) {
		tasks := []exec.Task{
			{Name: "sensor", Process: "IO", Processor: "cpu0", Deadline: 10, Budget: 2,
				Writes: []string{"frame"}, SendsTo: []string{"filter"}, CorruptsOutputs: true},
			{Name: "filter", Process: "DSP", Processor: "cpu0", Deadline: 20, Budget: 2,
				Reads: []string{"frame"}, WaitsFor: []string{"sensor"},
				SendsTo: []string{"fuse"}, Guarded: guarded},
			{Name: "fuse", Process: "DSP", Processor: "cpu1", Deadline: 30, Budget: 2,
				WaitsFor: []string{"filter"}, SendsTo: []string{"display"}},
			{Name: "display", Process: "UI", Processor: "cpu1", Deadline: 40, Budget: 2,
				WaitsFor: []string{"fuse"}},
		}
		rep, err := exec.Run(exec.Config{Policy: exec.Preemptive, Tasks: tasks})
		if err != nil {
			return 0, err
		}
		return len(rep.Tainted()), nil
	}
	unguarded, err := pipeline(false)
	if err != nil {
		return E8Result{}, err
	}
	guarded, err := pipeline(true)
	if err != nil {
		return E8Result{}, err
	}

	// Direct recovery-block measurement: primary wrong on 1 input in 4.
	primary := func(in int) (int, error) {
		if in%4 == 0 {
			return -1, nil
		}
		return in * in, nil
	}
	backup := func(in int) (int, error) { return in * in, nil }
	accept := func(in, out int) bool { return out >= 0 }
	rb, err := ftsw.NewRecoveryBlock(accept, primary, backup)
	if err != nil {
		return E8Result{}, err
	}
	stats := ftsw.MeasureRecoveryBlock(rb, 1000,
		func(i int) (int, bool) { return i, i%4 == 0 },
		func(in, out int) bool { return out == in*in })

	res := E8Result{
		UnguardedTainted: unguarded,
		GuardedTainted:   guarded,
		RBContainment:    stats.ContainmentRate(),
	}
	res.Text = fmt.Sprintf(
		"E8: task-level containment mechanisms\n"+
			"  message/shared-memory pipeline: %d of 4 tasks tainted unguarded, %d with a guard after the source\n"+
			"  recovery block over faulty primary: containment rate %.3f (%d recoveries in %d calls)\n",
		res.UnguardedTainted, res.GuardedTainted, res.RBContainment, rb.Recoveries, stats.Calls)
	return res, nil
}

// E9Result carries the scheduling-policy comparison.
type E9Result struct {
	NonPreemptiveVictims int
	PreemptiveVictims    int
	Text                 string
}

// E9 demonstrates §3.4.3 / §4.2.3: an infinite-loop task under
// non-preemptive scheduling takes every colocated task down; preemptive
// budget enforcement contains the fault to its source.
func E9() (E9Result, error) {
	mk := func() []exec.Task {
		tasks := []exec.Task{{
			Name: "stuck", Process: "BAD", Processor: "cpu0",
			Deadline: 10, Budget: 2, Demand: math.Inf(1),
		}}
		for i := 0; i < 5; i++ {
			tasks = append(tasks, exec.Task{
				Name: fmt.Sprintf("victim%d", i), Process: "OK", Processor: "cpu0",
				Release: float64(i), Deadline: 30 + float64(i)*5, Budget: 2,
			})
		}
		return tasks
	}
	count := func(policy exec.Policy) (int, error) {
		rep, err := exec.Run(exec.Config{Policy: policy, Tasks: mk(), Horizon: 1000})
		if err != nil {
			return 0, err
		}
		victims := 0
		for _, m := range rep.Misses() {
			if strings.HasPrefix(m, "victim") {
				victims++
			}
		}
		return victims, nil
	}
	np, err := count(exec.NonPreemptive)
	if err != nil {
		return E9Result{}, err
	}
	p, err := count(exec.Preemptive)
	if err != nil {
		return E9Result{}, err
	}
	res := E9Result{NonPreemptiveVictims: np, PreemptiveVictims: p}
	res.Text = fmt.Sprintf(
		"E9: timing-fault transmission by scheduling policy\n"+
			"  infinite-loop task + 5 victims on one processor\n"+
			"  non-preemptive: %d victims missed deadlines\n"+
			"  preemptive (budget enforcement): %d victims missed\n",
		np, p)
	return res, nil
}
