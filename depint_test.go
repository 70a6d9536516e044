package depint

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/attrs"
	"repro/internal/graph"
	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/spec"
)

func TestIntegrateDefaultsOnPaperExample(t *testing.T) {
	res, err := Integrate(PaperExample())
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != H1 || res.ApproachUsed != ByImportance {
		t.Errorf("defaults: strategy=%s approach=%d", res.Strategy, res.ApproachUsed)
	}
	if res.Initial.NumNodes() != 8 || res.Expanded.NumNodes() != 12 {
		t.Errorf("graph sizes: initial=%d expanded=%d",
			res.Initial.NumNodes(), res.Expanded.NumNodes())
	}
	if res.Condensed.NumNodes() != 6 {
		t.Errorf("condensed nodes = %d, want 6", res.Condensed.NumNodes())
	}
	if len(res.Assignment) != 6 {
		t.Errorf("assignment size = %d", len(res.Assignment))
	}
	if !res.Report.ConstraintsOK {
		t.Errorf("violations: %v", res.Report.Violations)
	}
	if len(res.Trace) == 0 {
		t.Error("empty reduction trace")
	}
	// The Fig. 6 clusters appear.
	got := strings.Join(res.Condensed.Nodes(), " ")
	want := "p1c p3b {p1a,p2a} {p1b,p2b} {p3a,p4,p5} {p6,p7,p8}"
	if got != want {
		t.Errorf("clusters:\n got %s\nwant %s", got, want)
	}
	// Reliability: p1 TMR at r=0.9 → 0.972 module reliability.
	if r := res.Reliability.ModuleReliability["p1"]; r < 0.97 || r > 0.975 {
		t.Errorf("p1 reliability = %g", r)
	}
}

func TestIntegrateNilAndInvalid(t *testing.T) {
	if _, err := Integrate(nil); !errors.Is(err, ErrNilSystem) {
		t.Errorf("err = %v, want ErrNilSystem", err)
	}
	bad := &System{Name: "empty", HWNodes: 1}
	if _, err := Integrate(bad); err == nil {
		t.Error("invalid system accepted")
	}
}

// TestIntegrateRejectsClusterIDSyntaxNames checks that a process name
// containing a character of the cluster-id syntax ({a,b}) is refused up
// front. graph.Members splits cluster ids on commas, so a process named
// "p3,x" would otherwise be read back as two base nodes: Integrate
// reported a false violation and a wrong cross-influence instead.
func TestIntegrateRejectsClusterIDSyntaxNames(t *testing.T) {
	for _, name := range []string{"p3,x", "{p3", "p3}"} {
		sys := PaperExample()
		for i := range sys.Processes {
			if sys.Processes[i].Name == "p3" {
				sys.Processes[i].Name = name
			}
		}
		for i := range sys.Influences {
			if sys.Influences[i].From == "p3" {
				sys.Influences[i].From = name
			}
			if sys.Influences[i].To == "p3" {
				sys.Influences[i].To = name
			}
		}
		if _, err := Integrate(sys); !errors.Is(err, spec.ErrBadValue) {
			t.Errorf("process %q: err = %v, want spec.ErrBadValue", name, err)
		}
	}
}

func TestIntegrateAllStrategies(t *testing.T) {
	for _, s := range []Strategy{H1, H1PairAll, H2, H3, Criticality, TimingOrder} {
		t.Run(s.String(), func(t *testing.T) {
			res, err := Integrate(PaperExample(), WithStrategy(s))
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Condensed.NumNodes(); got > 6 {
				t.Errorf("condensed nodes = %d, want <= 6", got)
			}
			if !res.Report.ConstraintsOK {
				t.Errorf("violations: %v", res.Report.Violations)
			}
			// Replica separation invariant under every strategy.
			hwOf := res.HWOf()
			for _, pair := range [][2]string{{"p1a", "p1b"}, {"p1b", "p1c"}, {"p2a", "p2b"}, {"p3a", "p3b"}} {
				if hwOf[pair[0]] == hwOf[pair[1]] {
					t.Errorf("%s and %s colocated under %s", pair[0], pair[1], s)
				}
			}
		})
	}
}

func TestIntegrateCriticalityMatchesFig7(t *testing.T) {
	res, err := Integrate(PaperExample(), WithStrategy(Criticality))
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(res.Condensed.Nodes(), " ")
	want := "{p1a,p8} {p1b,p7} {p1c,p5} {p2a,p6} {p2b,p3b} {p3a,p4}"
	if got != want {
		t.Errorf("Fig. 7 clusters:\n got %s\nwant %s", got, want)
	}
}

func TestIntegrateApproachB(t *testing.T) {
	res, err := Integrate(PaperExample(),
		WithApproach(Lexicographic),
		WithLexicographicKinds(attrs.Criticality, attrs.Deadline))
	if err != nil {
		t.Fatal(err)
	}
	if res.ApproachUsed != Lexicographic {
		t.Error("approach not recorded")
	}
	if !res.Report.ConstraintsOK {
		t.Errorf("violations: %v", res.Report.Violations)
	}
}

func TestIntegrateCustomPlatform(t *testing.T) {
	ring, err := hw.Ring(6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Integrate(PaperExample(), WithPlatform(ring))
	if err != nil {
		t.Fatal(err)
	}
	// Dilation on a ring exceeds the complete-graph dilation for the same
	// partition (distances >= 1).
	complete, err := Integrate(PaperExample())
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.CommCost < complete.Report.CommCost {
		t.Errorf("ring comm cost %g below complete-graph cost %g",
			res.Report.CommCost, complete.Report.CommCost)
	}
}

func TestIntegrateFlightControlWithResources(t *testing.T) {
	res, err := Integrate(FlightControl())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.ConstraintsOK {
		t.Errorf("violations: %v", res.Report.Violations)
	}
	_ = res
}

func TestResultHWOfCoversAllReplicas(t *testing.T) {
	res, err := Integrate(PaperExample())
	if err != nil {
		t.Fatal(err)
	}
	hwOf := res.HWOf()
	if len(hwOf) != 12 {
		t.Errorf("HWOf size = %d, want 12", len(hwOf))
	}
	for base, node := range hwOf {
		if node == "" {
			t.Errorf("%s unassigned", base)
		}
	}
}

func TestResultInjectFaults(t *testing.T) {
	res, err := Integrate(PaperExample())
	if err != nil {
		t.Fatal(err)
	}
	fi, err := res.InjectFaults(2000, 99)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Trials != 2000 {
		t.Errorf("trials = %d", fi.Trials)
	}
	if rate := fi.EscapeRate(); rate <= 0 || rate >= 1 {
		t.Errorf("escape rate = %g, want in (0,1)", rate)
	}
}

func TestResultHWOfConsistentWithAssignment(t *testing.T) {
	res, err := Integrate(PaperExample())
	if err != nil {
		t.Fatal(err)
	}
	hwOf := res.HWOf()
	// Every member of every assigned cluster must map to that cluster's
	// node, and nothing else may appear in the flattened view.
	want := 0
	for clusterID, node := range res.Assignment {
		for _, m := range graph.Members(clusterID) {
			want++
			if hwOf[m] != node {
				t.Errorf("HWOf[%s] = %q, want %q (cluster %s)", m, hwOf[m], node, clusterID)
			}
		}
	}
	if len(hwOf) != want {
		t.Errorf("HWOf has %d entries, assignment members total %d", len(hwOf), want)
	}
	// Replica separation must be visible in the flattened map: p1a/p1b/p1c
	// live on three distinct nodes.
	seen := map[string]string{}
	for _, rep := range []string{"p1a", "p1b", "p1c"} {
		node, ok := hwOf[rep]
		if !ok {
			t.Fatalf("replica %s missing from HWOf", rep)
		}
		if prev, dup := seen[node]; dup {
			t.Errorf("replicas %s and %s share node %s", prev, rep, node)
		}
		seen[node] = rep
	}
}

func TestResultInjectFaultsDeterministicBySeed(t *testing.T) {
	res, err := Integrate(PaperExample())
	if err != nil {
		t.Fatal(err)
	}
	a, err := res.InjectFaults(1500, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := res.InjectFaults(1500, 42)
	if err != nil {
		t.Fatal(err)
	}
	if a.TrialsWithEscape != b.TrialsWithEscape || a.CrossNodeTransmissions != b.CrossNodeTransmissions {
		t.Errorf("same seed diverged: %+v vs %+v", a, b)
	}
	c, err := res.InjectFaults(1500, 43)
	if err != nil {
		t.Fatal(err)
	}
	if a.TrialsWithEscape == c.TrialsWithEscape && a.CrossNodeTransmissions == c.CrossNodeTransmissions {
		t.Error("different seeds produced identical campaign statistics")
	}
}

func TestResultInjectFaultsRejectsBadTrials(t *testing.T) {
	res, err := Integrate(PaperExample())
	if err != nil {
		t.Fatal(err)
	}
	for _, trials := range []int{0, -5} {
		if _, err := res.InjectFaults(trials, 7); err == nil {
			t.Errorf("trials=%d accepted", trials)
		}
	}
}

func TestSeparationQueries(t *testing.T) {
	res, err := Integrate(PaperExample())
	if err != nil {
		t.Fatal(err)
	}
	// p1 -> p2 has direct influence 0.7, so separation < 0.3 is impossible
	// upward; exact: 1 - (0.7 + transitive terms) <= 0.3.
	s, err := res.SeparationOf("p1", "p2")
	if err != nil {
		t.Fatal(err)
	}
	if s > 0.3 {
		t.Errorf("separation(p1,p2) = %g, want <= 0.3", s)
	}
	// p7 reaches p4 only through the long weak path p7→p8→p6→p1→p2→p3→p4,
	// so its separation from p4 is near (but below) 1 and far above the
	// strongly coupled (p1,p2) pair's.
	s2, err := res.SeparationOf("p7", "p4")
	if err != nil {
		t.Fatal(err)
	}
	if s2 >= 1 || s2 < 0.99 {
		t.Errorf("separation(p7,p4) = %g, want in [0.99,1)", s2)
	}
	if s2 <= s {
		t.Errorf("weakly coupled pair separation %g not above strongly coupled %g", s2, s)
	}
	if _, err := res.SeparationOf("p1", "zz"); err == nil {
		t.Error("unknown process accepted")
	}
}

func TestSeparationOfEdgeCases(t *testing.T) {
	res, err := Integrate(PaperExample())
	if err != nil {
		t.Fatal(err)
	}
	// Unknown on either side (and both sides) must error.
	for _, q := range [][2]string{{"zz", "p1"}, {"p1", "zz"}, {"zz", "yy"}} {
		if _, err := res.SeparationOf(q[0], q[1]); err == nil {
			t.Errorf("SeparationOf(%q,%q) accepted unknown process", q[0], q[1])
		}
	}
	// Self-queries resolve to the matrix diagonal, not an error.
	s, err := res.SeparationOf("p1", "p1")
	if err != nil {
		t.Fatalf("self separation: %v", err)
	}
	if s < 0 || s > 1 {
		t.Errorf("separation(p1,p1) = %g, want in [0,1]", s)
	}
	// Every pairwise value sits in [0,1].
	for _, a := range res.SeparationIndex {
		for _, b := range res.SeparationIndex {
			v, err := res.SeparationOf(a, b)
			if err != nil {
				t.Fatalf("SeparationOf(%s,%s): %v", a, b, err)
			}
			if v < 0 || v > 1 {
				t.Errorf("separation(%s,%s) = %g out of [0,1]", a, b, v)
			}
		}
	}
}

func TestIntegrateWithObserverRecordsStages(t *testing.T) {
	o := obs.New()
	if _, err := Integrate(PaperExample(), WithObserver(o)); err != nil {
		t.Fatal(err)
	}
	roots := o.Roots()
	if len(roots) != 1 || roots[0].Name() != "integrate" {
		t.Fatalf("roots = %v, want single integrate span", roots)
	}
	want := []string{"partition", "influence", "replicate", "condense", "map", "evaluate"}
	children := roots[0].Children()
	if len(children) != len(want) {
		t.Fatalf("got %d stage spans, want %d", len(children), len(want))
	}
	var condense *obs.Span
	for i, c := range children {
		if c.Name() != want[i] {
			t.Errorf("stage %d = %q, want %q", i, c.Name(), want[i])
		}
		if c.Name() == "condense" {
			condense = c
		}
	}
	// The influence span ends with its sweep, which may run beside the
	// later stages, and keeps the graph's size.
	influence := children[1].Export()
	if influence.End == nil {
		t.Error("influence span has not ended")
	}
	if influence.Attrs["nodes"] != 8 || influence.Attrs["edges"] == nil {
		t.Errorf("influence span attrs = %v, want nodes 8 and edges", influence.Attrs)
	}
	// The worked example condenses via six H1 merges; one has the paper's
	// 0.76 mutual influence (Fig. 5).
	merges, saw76 := 0, false
	for _, ev := range condense.Events() {
		if ev.Name != "merge" {
			continue
		}
		merges++
		for _, a := range ev.Attrs {
			if a.Key == "mutual" && a.Value == 0.76 {
				saw76 = true
			}
		}
	}
	if merges != 6 {
		t.Errorf("condense recorded %d merges, want 6", merges)
	}
	if !saw76 {
		t.Error("no merge event carries the Fig. 5 mutual influence 0.76")
	}
	// The feasibility oracle's counters were installed and ticked.
	snap := o.Metrics().Snapshot()
	calls := int64(-1)
	for _, c := range snap.Counters {
		if c.Name == "sched_feasible_calls_total" {
			calls = c.Value
		}
	}
	if calls <= 0 {
		t.Errorf("sched_feasible_calls_total = %d, want > 0", calls)
	}
}

// TestObservedIntegrateUninstallsSchedInstruments: an observed run
// removes the feasibility oracle's process-global instruments when it
// returns, so a later un-observed run books nothing into its registry.
func TestObservedIntegrateUninstallsSchedInstruments(t *testing.T) {
	o := obs.New()
	calls := func() int64 {
		for _, c := range o.Metrics().Snapshot().Counters {
			if c.Name == "sched_feasible_calls_total" {
				return c.Value
			}
		}
		return -1
	}
	if _, err := Integrate(PaperExample(), WithObserver(o)); err != nil {
		t.Fatal(err)
	}
	before := calls()
	if before <= 0 {
		t.Fatalf("observed run booked sched_feasible_calls_total = %d, want > 0", before)
	}
	if _, err := Integrate(PaperExample()); err != nil {
		t.Fatal(err)
	}
	if after := calls(); after != before {
		t.Errorf("un-observed run moved the observer's sched_feasible_calls_total from %d to %d", before, after)
	}
}

// TestCondenserCountersPinned pins the condenser's candidate-pair counters
// on the worked example for every strategy, at the values the full-rescan
// H1 and the witness-building oracle produced: the pair table and the
// O(k) feasibility proof change how a verdict is reached, never which
// pairs are asked about or what the answer is. The oracle may be asked
// fewer times than before, never more.
func TestCondenserCountersPinned(t *testing.T) {
	type counts struct{ candidate, feasible, replica, timing, maxSched int64 }
	want := map[Strategy]counts{
		H1:               {27, 24, 3, 0, 24},
		H1PairAll:        {12, 12, 0, 0, 12},
		H2:               {6, 6, 0, 0, 18},
		H3:               {6, 6, 0, 0, 41},
		Criticality:      {14, 13, 1, 0, 13},
		TimingOrder:      {9, 9, 0, 0, 23},
		SeparationGuided: {29, 25, 4, 0, 25},
		H2SourceTarget:   {6, 6, 0, 0, 36},
	}
	for s, w := range want {
		o := obs.New()
		if _, err := Integrate(PaperExample(), WithObserver(o), WithStrategy(s)); err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		m := map[string]int64{}
		for _, c := range o.Metrics().Snapshot().Counters {
			m[c.Name] = c.Value
		}
		got := counts{
			m["cluster_candidate_pairs_total"], m["cluster_feasible_pairs_total"],
			m["cluster_rejected_replica_total"], m["cluster_rejected_timing_total"],
			m["sched_feasible_calls_total"],
		}
		if got.maxSched > w.maxSched {
			t.Errorf("%v: sched_feasible_calls_total = %d, want at most %d", s, got.maxSched, w.maxSched)
		}
		got.maxSched = w.maxSched
		if got != w {
			t.Errorf("%v: candidate/feasible/replica/timing = %d/%d/%d/%d, want %d/%d/%d/%d", s,
				got.candidate, got.feasible, got.replica, got.timing,
				w.candidate, w.feasible, w.replica, w.timing)
		}
	}
}

func TestIntegrateNilObserverIsNoop(t *testing.T) {
	res, err := Integrate(PaperExample(), WithObserver(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assignment) == 0 {
		t.Error("nil-observer run produced no assignment")
	}
}

func TestSeparationOrderOption(t *testing.T) {
	r1, err := Integrate(PaperExample(), WithSeparationOrder(1))
	if err != nil {
		t.Fatal(err)
	}
	r8, err := Integrate(PaperExample(), WithSeparationOrder(8))
	if err != nil {
		t.Fatal(err)
	}
	// Higher order accounts for more transitive paths: separation can only
	// shrink or stay.
	s1, err := r1.SeparationOf("p1", "p5")
	if err != nil {
		t.Fatal(err)
	}
	s8, err := r8.SeparationOf("p1", "p5")
	if err != nil {
		t.Fatal(err)
	}
	if s8 > s1 {
		t.Errorf("order-8 separation %g above order-1 %g", s8, s1)
	}
	// p1 has no direct edge to p5; at order 1 they are fully separated,
	// at order >= 2 the p1->p2->p3->p5 path bites.
	if s1 != 1 {
		t.Errorf("order-1 separation(p1,p5) = %g, want 1", s1)
	}
	if s8 >= 1 {
		t.Errorf("order-8 separation(p1,p5) = %g, want < 1", s8)
	}
}

func TestWithRequirementsConflict(t *testing.T) {
	// Demand a resource no default platform node offers.
	_, err := Integrate(PaperExample(), WithRequirements(map[string][]string{
		"p4": {"quantum-accelerator"},
	}))
	if err == nil {
		t.Error("unsatisfiable requirement accepted")
	}
}

func TestStrategyString(t *testing.T) {
	names := map[Strategy]string{
		H1: "H1", H1PairAll: "H1-pair-all", H2: "H2-min-cut",
		H3: "H3-spheres", Criticality: "criticality", TimingOrder: "timing-order",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), want)
		}
	}
	if Strategy(99).String() != "Strategy(99)" {
		t.Error("unknown strategy string")
	}
}

func TestIntegrateUnknownStrategyAndApproach(t *testing.T) {
	if _, err := Integrate(PaperExample(), WithStrategy(Strategy(99))); err == nil {
		t.Error("unknown strategy accepted")
	}
	if _, err := Integrate(PaperExample(), WithApproach(Approach(99))); err == nil {
		t.Error("unknown approach accepted")
	}
}

func TestIntegrateSeparationGuidedStrategy(t *testing.T) {
	res, err := Integrate(PaperExample(), WithStrategy(SeparationGuided))
	if err != nil {
		t.Fatal(err)
	}
	if res.Condensed.NumNodes() != 6 {
		t.Errorf("condensed nodes = %d, want 6", res.Condensed.NumNodes())
	}
	if !res.Report.ConstraintsOK {
		t.Errorf("violations: %v", res.Report.Violations)
	}
	if SeparationGuided.String() != "separation" {
		t.Errorf("strategy name = %q", SeparationGuided)
	}
	// Replica separation invariant.
	hwOf := res.HWOf()
	if hwOf["p1a"] == hwOf["p1b"] || hwOf["p3a"] == hwOf["p3b"] {
		t.Error("replicas colocated under separation-guided reduction")
	}
}

func TestIntegrateWithRefinementOnRing(t *testing.T) {
	ring, err := hw.Ring(6)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Integrate(PaperExample(), WithPlatform(ring))
	if err != nil {
		t.Fatal(err)
	}
	ring2, err := hw.Ring(6)
	if err != nil {
		t.Fatal(err)
	}
	refined, err := Integrate(PaperExample(), WithPlatform(ring2), WithRefinement(-1))
	if err != nil {
		t.Fatal(err)
	}
	if refined.Report.CommCost > plain.Report.CommCost {
		t.Errorf("refined comm cost %g above unrefined %g",
			refined.Report.CommCost, plain.Report.CommCost)
	}
	if !refined.Report.ConstraintsOK {
		t.Errorf("violations after refinement: %v", refined.Report.Violations)
	}
}

func TestSummaryRendersDossier(t *testing.T) {
	res, err := Integrate(PaperExample())
	if err != nil {
		t.Fatal(err)
	}
	s := res.Summary()
	for _, want := range []string{
		"system \"icdcs98-worked-example\"",
		"strategy H1",
		"reduction trace:",
		"p1a + p2a (mutual 1.2)",
		"mapping (HW node <- members):",
		"constraints satisfied:    true",
		"influence cycles",
		"two-hop feedback 0.350",
		"weakest:",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("Summary missing %q:\n%s", want, s)
		}
	}
}

func TestMappingTableSorted(t *testing.T) {
	res, err := Integrate(PaperExample())
	if err != nil {
		t.Fatal(err)
	}
	rows := res.MappingTable()
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i-1].Node >= rows[i].Node {
			t.Errorf("rows not sorted: %v", rows)
		}
	}
	total := 0
	for _, r := range rows {
		total += len(r.Members)
	}
	if total != 12 {
		t.Errorf("total members = %d, want 12", total)
	}
}

func TestIntegrateBrakeByWireAllStrategies(t *testing.T) {
	for _, s := range []Strategy{H1, H2, H3, Criticality, TimingOrder, SeparationGuided} {
		t.Run(s.String(), func(t *testing.T) {
			res, err := Integrate(BrakeByWire(), WithStrategy(s))
			if err != nil {
				t.Fatalf("brake-by-wire under %s: %v", s, err)
			}
			if !res.Report.ConstraintsOK {
				t.Errorf("violations: %v", res.Report.Violations)
			}
			hwOf := res.HWOf()
			for _, pair := range [][2]string{
				{"pedal-sensora", "pedal-sensorb"},
				{"stability-ctla", "stability-ctlb"},
			} {
				if hwOf[pair[0]] == hwOf[pair[1]] {
					t.Errorf("replicas %v colocated", pair)
				}
			}
		})
	}
}

func TestIntegrateIndustrialControlTMRSeparation(t *testing.T) {
	res, err := Integrate(IndustrialControl())
	if err != nil {
		t.Fatal(err)
	}
	hwOf := res.HWOf()
	nodes := map[string]bool{}
	for _, rep := range []string{"safety-interlocka", "safety-interlockb", "safety-interlockc"} {
		n := hwOf[rep]
		if n == "" {
			t.Fatalf("%s unassigned", rep)
		}
		if nodes[n] {
			t.Errorf("TMR replicas share node %s", n)
		}
		nodes[n] = true
	}
	// The TMR module dominates the reliability report.
	if r := res.Reliability.ModuleReliability["safety-interlock"]; r < 0.97 {
		t.Errorf("safety interlock reliability = %g", r)
	}
}

func TestIntegrateH2SourceTarget(t *testing.T) {
	res, err := Integrate(PaperExample(), WithStrategy(H2SourceTarget))
	if err != nil {
		t.Fatal(err)
	}
	if res.Condensed.NumNodes() != 6 || !res.Report.ConstraintsOK {
		t.Errorf("nodes=%d ok=%v violations=%v",
			res.Condensed.NumNodes(), res.Report.ConstraintsOK, res.Report.Violations)
	}
	if H2SourceTarget.String() != "H2-source-target" {
		t.Error("strategy name wrong")
	}
}

func TestCompareStrategiesAll(t *testing.T) {
	cmp, err := CompareStrategies(PaperExample(), CompareConfig{InjectTrials: 3000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Outcomes) != 8 {
		t.Fatalf("outcomes = %d, want 8", len(cmp.Outcomes))
	}
	ok := 0
	for _, o := range cmp.Outcomes {
		if o.Err == nil {
			ok++
			if o.Escape <= 0 || o.Escape >= 1 {
				t.Errorf("%s escape = %g", o.Strategy, o.Escape)
			}
		}
	}
	if ok < 6 {
		t.Errorf("only %d strategies succeeded", ok)
	}
	best := cmp.Best()
	if best == nil {
		t.Fatal("no best outcome")
	}
	// H1 should be the containment winner on the worked example.
	if best.Strategy != H1 {
		t.Errorf("best = %s (containment %.3f), expected H1",
			best.Strategy, best.Result.Report.Containment)
	}
	tbl := cmp.Table()
	for _, want := range []string{"strategy", "H1", "criticality", "0."} {
		if !strings.Contains(tbl, want) {
			t.Errorf("table missing %q:\n%s", want, tbl)
		}
	}
}

func TestCompareStrategiesNilAndSubset(t *testing.T) {
	if _, err := CompareStrategies(nil, CompareConfig{}); !errors.Is(err, ErrNilSystem) {
		t.Errorf("err = %v", err)
	}
	cmp, err := CompareStrategies(PaperExample(), CompareConfig{
		Strategies: []Strategy{Criticality},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Outcomes) != 1 || cmp.Outcomes[0].Strategy != Criticality {
		t.Errorf("outcomes = %+v", cmp.Outcomes)
	}
	if cmp.Outcomes[0].Escape != 0 {
		t.Error("escape recorded without injection")
	}
}

func TestComparisonBestAllFailed(t *testing.T) {
	cmp := Comparison{Outcomes: []StrategyOutcome{{Strategy: H1, Err: ErrNilSystem}}}
	if cmp.Best() != nil {
		t.Error("Best over failures should be nil")
	}
	if !strings.Contains(cmp.Table(), "failed") {
		t.Error("table missing failure row")
	}
}

func TestIntegrateFCRAwareApproach(t *testing.T) {
	// Platform with 3 cabinets of 2 nodes each: FCR-aware placement keeps
	// the p1 replicas (critical, C=15) in distinct cabinets.
	p := hw.NewPlatform()
	for i := 1; i <= 6; i++ {
		name := "n" + string(rune('0'+i))
		fcr := "cab" + string(rune('0'+(i+1)/2))
		if err := p.AddNode(hw.Node{Name: name, FCR: fcr}); err != nil {
			t.Fatal(err)
		}
	}
	names := p.Nodes()
	for i := range names {
		for j := i + 1; j < len(names); j++ {
			if err := p.Link(names[i], names[j], 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	res, err := Integrate(PaperExample(), WithPlatform(p), WithApproach(FCRAware))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.ConstraintsOK {
		t.Fatalf("violations: %v", res.Report.Violations)
	}
	hwOf := res.HWOf()
	fcrOf := func(base string) string {
		node, err := p.Node(hwOf[base])
		if err != nil {
			t.Fatal(err)
		}
		return node.FCR
	}
	fcrs := map[string]bool{}
	for _, rep := range []string{"p1a", "p1b", "p1c"} {
		f := fcrOf(rep)
		if fcrs[f] {
			t.Errorf("p1 replicas share FCR %s", f)
		}
		fcrs[f] = true
	}
	if res.Report.CriticalPairsSharedFCR > res.Report.CriticalPairsColocated+3 {
		t.Errorf("shared-FCR pairs = %d vs colocated %d",
			res.Report.CriticalPairsSharedFCR, res.Report.CriticalPairsColocated)
	}
}

func TestMeasureInfluenceClosesLoop(t *testing.T) {
	m, err := MeasureInfluence(PaperExample(), 50000, 17)
	if err != nil {
		t.Fatal(err)
	}
	if m.MeanAbsError > 0.03 {
		t.Errorf("mean abs error = %g", m.MeanAbsError)
	}
	if len(m.System.Influences) != len(PaperExample().Influences) {
		t.Errorf("measured edges = %d, want %d",
			len(m.System.Influences), len(PaperExample().Influences))
	}
	// The measured system integrates and yields the same cluster count and
	// similar containment.
	truth, err := Integrate(PaperExample())
	if err != nil {
		t.Fatal(err)
	}
	meas, err := Integrate(m.System)
	if err != nil {
		t.Fatal(err)
	}
	if meas.Condensed.NumNodes() != truth.Condensed.NumNodes() {
		t.Errorf("cluster counts differ: %d vs %d",
			meas.Condensed.NumNodes(), truth.Condensed.NumNodes())
	}
	if d := meas.Report.Containment - truth.Report.Containment; d > 0.1 || d < -0.1 {
		t.Errorf("containment drifted: %g vs %g",
			meas.Report.Containment, truth.Report.Containment)
	}
}

func TestMeasureInfluenceValidation(t *testing.T) {
	if _, err := MeasureInfluence(nil, 100, 1); !errors.Is(err, ErrNilSystem) {
		t.Errorf("err = %v", err)
	}
	if _, err := MeasureInfluence(PaperExample(), 0, 1); err == nil {
		t.Error("zero trials accepted")
	}
}

func TestFacadeHierarchyWorkflow(t *testing.T) {
	h := NewHierarchy()
	if _, err := h.AddProcess("nav", attrs.Set{}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.AddTask("nav", "guidance", attrs.Set{}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.AddProcedure("guidance", "kalman", attrs.Set{}, true); err != nil {
		t.Fatal(err)
	}
	if _, err := h.AddProcedure("guidance", "waypoint", attrs.Set{}, true); err != nil {
		t.Fatal(err)
	}
	// R2 through the facade.
	if _, err := h.Group("t2", []string{"kalman"}); !errors.Is(err, ErrRuleR2) {
		t.Errorf("err = %v, want ErrRuleR2", err)
	}
	c := NewCertifier(h)
	c.CertifyAll()
	if err := c.RegisterCheck("kalman", func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	if failures := c.ModifyAndVerify("kalman"); len(failures) != 0 {
		t.Errorf("failures: %v", failures)
	}
	if err := c.Status("kalman"); err != nil {
		t.Errorf("status: %v", err)
	}
}

func TestAnalyzeTradeoffPaperExample(t *testing.T) {
	res, err := AnalyzeTradeoff(PaperExample(), TradeoffConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Levels) != 12 {
		t.Fatalf("levels = %d, want 12 (replicas down to 1)", len(res.Levels))
	}
	// Floor matches E5's finding (3 or 4).
	if res.Floor < 3 || res.Floor > 4 {
		t.Errorf("floor = %d", res.Floor)
	}
	// Recommendation lies between the floor and the fully-split level.
	if res.Recommended < res.Floor || res.Recommended > 12 {
		t.Errorf("recommended = %d", res.Recommended)
	}
	// Containment grows monotonically with integration over feasible rows.
	var prev float64 = -1
	for _, l := range res.Levels {
		if !l.Feasible {
			continue
		}
		if l.Containment < prev-1e-9 {
			t.Errorf("containment fell at target %d: %g -> %g", l.Target, prev, l.Containment)
		}
		prev = l.Containment
	}
	tbl := res.Table()
	for _, want := range []string{"target", "floor=", "recommended="} {
		if !strings.Contains(tbl, want) {
			t.Errorf("table missing %q", want)
		}
	}
	// The caller's spec is untouched.
	if PaperExample().HWNodes != 6 {
		t.Error("sweep mutated the canonical example")
	}
}

func TestAnalyzeTradeoffValidation(t *testing.T) {
	if _, err := AnalyzeTradeoff(nil, TradeoffConfig{}); !errors.Is(err, ErrNilSystem) {
		t.Errorf("err = %v", err)
	}
	bad := &System{Name: "x", HWNodes: 1}
	if _, err := AnalyzeTradeoff(bad, TradeoffConfig{}); err == nil {
		t.Error("invalid system accepted")
	}
}

func TestAnalyzeTradeoffBounds(t *testing.T) {
	res, err := AnalyzeTradeoff(PaperExample(), TradeoffConfig{MaxTarget: 8, MinTarget: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Levels) != 4 {
		t.Errorf("levels = %d, want 4", len(res.Levels))
	}
	if res.Levels[0].Target != 8 || res.Levels[3].Target != 5 {
		t.Errorf("sweep bounds wrong: %+v", res.Levels)
	}
}
