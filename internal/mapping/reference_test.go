package mapping

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/attrs"
	"repro/internal/graph"
	"repro/internal/hw"
)

// resourceNames are the resources random platforms offer and random
// requirements ask for.
var resourceNames = []string{"io", "dsp", "net"}

// refPlacementDecisions is the string-keyed greedy placement the shared
// kernel replaced, kept as the oracle for the standard rule: per cluster
// it re-reads the platform's node list, looks every mutual influence and
// distance up by name, and sums the cost over the sorted placed clusters.
func refPlacementDecisions(order []string, g *graph.Graph, p *hw.Platform, req Requirements) (Assignment, []Decision, error) {
	if len(order) > p.NumNodes() {
		return nil, nil, fmt.Errorf("%w: %d clusters, %d nodes", ErrTooManyClusters, len(order), p.NumNodes())
	}
	asg := make(Assignment, len(order))
	used := map[string]bool{}
	decisions := make([]Decision, 0, len(order))
	for _, cluster := range order {
		needs := req.forCluster(cluster)
		placed := asg.Clusters()
		bestNode, bestCost, bestRes := "", 0.0, 0
		var feasible []Alternative
		for _, nodeName := range p.Nodes() {
			if used[nodeName] {
				continue
			}
			node, err := p.Node(nodeName)
			if err != nil {
				return nil, nil, err
			}
			ok := true
			for _, res := range needs {
				if !node.HasResource(res) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			cost := 0.0
			for _, pc := range placed {
				m := g.MutualInfluence(cluster, pc)
				if m <= 0 {
					continue
				}
				d, conn := p.Distance(nodeName, asg[pc])
				if !conn {
					d = float64(p.NumNodes())
				}
				cost += m * d
			}
			feasible = append(feasible, Alternative{Node: nodeName, Cost: cost})
			if bestNode == "" || cost < bestCost ||
				(cost == bestCost && len(node.Resources) < bestRes) {
				bestNode, bestCost, bestRes = nodeName, cost, len(node.Resources)
			}
		}
		if bestNode == "" {
			return nil, nil, fmt.Errorf("%w: cluster %s needs %v", ErrNoFeasibleNode, cluster, needs)
		}
		asg[cluster] = bestNode
		used[bestNode] = true
		decisions = append(decisions, Decision{
			Cluster:      cluster,
			Node:         bestNode,
			Cost:         bestCost,
			Alternatives: refBeaten(feasible, bestNode),
		})
	}
	return asg, decisions, nil
}

// refCriticalityAware is the FCR-aware placement loop the shared kernel
// replaced, over a given cluster order: the oracle for the FCR-aware rule.
func refCriticalityAware(order []string, g *graph.Graph, p *hw.Platform, req Requirements, threshold float64) (Assignment, []Decision, error) {
	if len(order) > p.NumNodes() {
		return nil, nil, fmt.Errorf("%w: %d clusters, %d nodes", ErrTooManyClusters, len(order), p.NumNodes())
	}
	asg := make(Assignment, len(order))
	used := map[string]bool{}
	criticalFCRs := map[string]bool{}
	decisions := make([]Decision, 0, len(order))
	for _, cluster := range order {
		critical := g.Attrs(cluster).Value(attrs.Criticality) >= threshold
		needs := req.forCluster(cluster)
		placed := asg.Clusters()
		bestNode := ""
		bestFresh := false
		bestCost := 0.0
		var feasible []Alternative
		for _, nodeName := range p.Nodes() {
			if used[nodeName] {
				continue
			}
			node, err := p.Node(nodeName)
			if err != nil {
				return nil, nil, err
			}
			ok := true
			for _, res := range needs {
				if !node.HasResource(res) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			fresh := !criticalFCRs[node.FCR]
			cost := 0.0
			for _, pc := range placed {
				m := g.MutualInfluence(cluster, pc)
				if m <= 0 {
					continue
				}
				d, conn := p.Distance(nodeName, asg[pc])
				if !conn {
					d = float64(p.NumNodes())
				}
				cost += m * d
			}
			feasible = append(feasible, Alternative{Node: nodeName, Cost: cost})
			better := false
			switch {
			case bestNode == "":
				better = true
			case critical && fresh != bestFresh:
				better = fresh
			case cost < bestCost:
				better = true
			}
			if better {
				bestNode, bestFresh, bestCost = nodeName, fresh, cost
			}
		}
		if bestNode == "" {
			return nil, nil, fmt.Errorf("%w: cluster %s needs %v", ErrNoFeasibleNode, cluster, needs)
		}
		asg[cluster] = bestNode
		used[bestNode] = true
		decisions = append(decisions, Decision{
			Cluster:      cluster,
			Node:         bestNode,
			Cost:         bestCost,
			Alternatives: refBeaten(feasible, bestNode),
		})
		if critical {
			node, err := p.Node(bestNode)
			if err != nil {
				return nil, nil, err
			}
			criticalFCRs[node.FCR] = true
		}
	}
	return asg, decisions, nil
}

// refBeaten is the alternatives filter the references used.
func refBeaten(feasible []Alternative, chosen string) []Alternative {
	var out []Alternative
	for _, alt := range feasible {
		if alt.Node != chosen {
			out = append(out, alt)
		}
	}
	return out
}

// requireSamePlacement fails unless two placements agree exactly: the
// same assignment, decisions with bit-equal costs and alternatives in the
// same order (nil where the other is nil), and the same error.
func requireSamePlacement(t *testing.T, label string,
	asg Assignment, dec []Decision, err error,
	wantAsg Assignment, wantDec []Decision, wantErr error) {
	t.Helper()
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("%s: error %v, reference %v", label, err, wantErr)
	}
	if !reflect.DeepEqual(asg, wantAsg) {
		t.Fatalf("%s: assignment %v, reference %v", label, asg, wantAsg)
	}
	if len(dec) != len(wantDec) || (dec == nil) != (wantDec == nil) {
		t.Fatalf("%s: %d decisions, reference %d", label, len(dec), len(wantDec))
	}
	for i, d := range dec {
		w := wantDec[i]
		if d.Cluster != w.Cluster || d.Node != w.Node || math.Float64bits(d.Cost) != math.Float64bits(w.Cost) {
			t.Fatalf("%s: decision %d = %s→%s at %v, reference %s→%s at %v",
				label, i, d.Cluster, d.Node, d.Cost, w.Cluster, w.Node, w.Cost)
		}
		if len(d.Alternatives) != len(w.Alternatives) || (d.Alternatives == nil) != (w.Alternatives == nil) {
			t.Fatalf("%s: decision %d alternatives %v, reference %v", label, i, d.Alternatives, w.Alternatives)
		}
		for j, a := range d.Alternatives {
			if a.Node != w.Alternatives[j].Node || math.Float64bits(a.Cost) != math.Float64bits(w.Alternatives[j].Cost) {
				t.Fatalf("%s: decision %d alternatives %v, reference %v", label, i, d.Alternatives, w.Alternatives)
			}
		}
	}
}

// randomPlacementInput builds a placement problem from pr: a graph of up
// to 12 clusters (some composite "{a,b}" ids) with weights drawn from a
// tied or a continuous set and one removed node; a cluster order that
// shuffles the graph's nodes and may add ids the graph lacks; a Complete,
// Ring or randomly linked platform, the last possibly disconnected and
// with float link costs whose path sums round differently in each
// direction, its nodes given random FCRs and resources; and random
// requirements.
func randomPlacementInput(t *testing.T, pr *rand.Rand) ([]string, *graph.Graph, *hw.Platform, Requirements) {
	t.Helper()
	g := graph.New()
	k := 1 + pr.IntN(12)
	var ids []string
	for i := 0; i <= k; i++ {
		id := fmt.Sprintf("c%02d", i)
		if pr.IntN(3) == 0 {
			id = fmt.Sprintf("{b%02da,b%02db}", i, i)
		}
		a := attrs.New(map[attrs.Kind]float64{attrs.Criticality: float64(pr.IntN(20))})
		if err := g.AddNode(id, a); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// Free a slot among the live ones.
	gone := pr.IntN(len(ids))
	if err := g.RemoveNode(ids[gone]); err != nil {
		t.Fatal(err)
	}
	ids = append(ids[:gone], ids[gone+1:]...)
	tied := pr.IntN(2) == 0
	for _, from := range ids {
		for _, to := range ids {
			if from == to || pr.IntN(3) == 0 {
				continue
			}
			if pr.IntN(12) == 0 {
				if err := g.AddReplicaEdge(from, to); err != nil {
					t.Fatal(err)
				}
				continue
			}
			w := pr.Float64()
			if tied {
				w = float64(pr.IntN(5)) / 4
			}
			if err := g.SetEdge(from, to, w); err != nil {
				t.Fatal(err)
			}
		}
	}
	order := g.Nodes()
	for i := pr.IntN(3); i > 0; i-- {
		order = append(order, fmt.Sprintf("x%02d", i)) // absent from g
	}
	pr.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

	p := randomPlatform(t, pr)
	req := Requirements{}
	for _, id := range order {
		for _, m := range graph.Members(id) {
			if pr.IntN(4) == 0 {
				req[m] = append(req[m], resourceNames[pr.IntN(len(resourceNames))])
			}
		}
	}
	return order, g, p, req
}

// randomPlatform builds a Complete, Ring or randomly linked platform of 3
// to 14 nodes from pr, the last possibly disconnected and with float link
// costs whose path sums round differently in each direction, and gives
// its nodes random FCRs and resources.
func randomPlatform(t *testing.T, pr *rand.Rand) *hw.Platform {
	t.Helper()
	n := 3 + pr.IntN(12)
	var p *hw.Platform
	var err error
	switch pr.IntN(3) {
	case 0:
		p, err = hw.Complete(n)
	case 1:
		p, err = hw.Ring(n)
	default:
		p = hw.NewPlatform()
		for i := 0; i < n && err == nil; i++ {
			err = p.AddNode(hw.Node{Name: fmt.Sprintf("hw%02d", i)})
		}
		names := p.Nodes()
		for i, a := range names {
			for _, b := range names[i+1:] {
				if err == nil && pr.IntN(3) == 0 {
					err = p.Link(a, b, 0.1+pr.Float64())
				}
			}
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	fcrs := 1 + pr.IntN(4)
	for _, name := range p.Nodes() {
		node, err := p.Node(name)
		if err != nil {
			t.Fatal(err)
		}
		node.FCR = fmt.Sprintf("f%d", pr.IntN(fcrs))
		for _, r := range resourceNames {
			if pr.IntN(3) == 0 {
				node.Resources[r] = true
			}
		}
	}
	return p
}

// FuzzPlacementMatchesReference pins the int-indexed placement kernel to
// the string-keyed loops it replaced, under both rules: same assignment,
// same decisions with bit-equal costs and alternatives, same errors.
func FuzzPlacementMatchesReference(f *testing.F) {
	for seed := uint64(1); seed <= 8; seed++ {
		f.Add(seed, uint8(seed*7))
	}
	f.Fuzz(comparePlacement)
}

// TestPlacementMatchesReference runs the fuzz target's check over a fixed
// batch of seeds, so plain `go test` covers it too.
func TestPlacementMatchesReference(t *testing.T) {
	for seed := uint64(0); seed < 400; seed++ {
		comparePlacement(t, seed, uint8(seed))
	}
}

// comparePlacement runs both rules and their references on the input
// generated from seed, with criticality threshold th mod 24, first on the
// generated cluster order and then through Approach A and the FCR-aware
// entry point.
func comparePlacement(t *testing.T, seed uint64, th uint8) {
	pr := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	order, g, p, req := randomPlacementInput(t, pr)
	if pr.IntN(4) == 0 {
		req = nil
	}
	threshold := float64(th % 24)
	label := fmt.Sprintf("seed %d", seed)

	asg, dec, err := place(order, g, p, req, rule{})
	wantAsg, wantDec, wantErr := refPlacementDecisions(order, g, p, req)
	requireSamePlacement(t, label+" standard", asg, dec, err, wantAsg, wantDec, wantErr)

	asg, dec, err = place(order, g, p, req, rule{fcrAware: true, threshold: threshold})
	wantAsg, wantDec, wantErr = refCriticalityAware(order, g, p, req, threshold)
	requireSamePlacement(t, label+" fcr-aware", asg, dec, err, wantAsg, wantDec, wantErr)

	// The public entry points, over the graph's own nodes in their orders.
	w, err := attrs.DefaultWeights()
	if err != nil {
		t.Fatal(err)
	}
	byImportance := g.Nodes()
	sort.SliceStable(byImportance, func(i, j int) bool {
		ii, ij := w.Importance(g.Attrs(byImportance[i])), w.Importance(g.Attrs(byImportance[j]))
		if ii != ij {
			return ii > ij
		}
		return byImportance[i] < byImportance[j]
	})
	asg, dec, err = AssignByImportanceDetailed(g, p, w, req)
	wantAsg, wantDec, wantErr = refPlacementDecisions(byImportance, g, p, req)
	requireSamePlacement(t, label+" Approach A", asg, dec, err, wantAsg, wantDec, wantErr)

	byCriticality := g.Nodes()
	sort.SliceStable(byCriticality, func(i, j int) bool {
		ci := g.Attrs(byCriticality[i]).Value(attrs.Criticality)
		cj := g.Attrs(byCriticality[j]).Value(attrs.Criticality)
		if ci != cj {
			return ci > cj
		}
		return byCriticality[i] < byCriticality[j]
	})
	asg, dec, err = AssignCriticalityAwareDetailed(g, p, req, threshold)
	wantAsg, wantDec, wantErr = refCriticalityAware(byCriticality, g, p, req, threshold)
	requireSamePlacement(t, label+" criticality-aware", asg, dec, err, wantAsg, wantDec, wantErr)
}

// refEvaluate is Evaluate as it walked the string graph before it ran on
// slots, with one fix: a base listed in several clusters is placed by the
// first of them in id order and each repeat is reported. It is the oracle
// FuzzEvaluateMatchesReference holds Evaluate to.
func refEvaluate(full *graph.Graph, asg Assignment, p *hw.Platform, cfg EvalConfig) Report {
	rep := Report{ConstraintsOK: true}

	// Constraint pass: distinct nodes, resources available.
	seen := map[string]string{}
	for _, cluster := range asg.Clusters() {
		nodeName := asg[cluster]
		if prev, dup := seen[nodeName]; dup {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("HW node %s hosts both %s and %s", nodeName, prev, cluster))
		}
		seen[nodeName] = cluster
		node, err := p.Node(nodeName)
		if err != nil {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("cluster %s assigned to unknown node %s", cluster, nodeName))
			continue
		}
		if cfg.Requirements != nil {
			for _, res := range cfg.Requirements.forCluster(cluster) {
				if !node.HasResource(res) {
					rep.Violations = append(rep.Violations,
						fmt.Sprintf("cluster %s needs %s, absent on %s", cluster, res, nodeName))
				}
			}
		}
	}

	// Base-node -> HW-node map, first cluster in id order first; also
	// detect unassigned bases present in the full graph.
	hwOf := map[string]string{}
	ownerOf := map[string]string{}
	for _, cluster := range asg.Clusters() {
		for _, m := range graph.Members(cluster) {
			if prev, ok := ownerOf[m]; ok {
				if prev != cluster {
					rep.Violations = append(rep.Violations,
						fmt.Sprintf("base node %s in both %s and %s", m, prev, cluster))
				}
				continue
			}
			ownerOf[m] = cluster
			hwOf[m] = asg[cluster]
		}
	}
	for _, base := range full.Nodes() {
		if hwOf[base] == "" {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("base node %s unassigned", base))
		}
	}
	rep.ConstraintsOK = len(rep.Violations) == 0

	// Containment + dilation over the full graph.
	for _, e := range full.Edges() {
		if e.Replica {
			continue
		}
		hu, hv := hwOf[e.From], hwOf[e.To]
		if hu == "" || hv == "" {
			continue
		}
		if hu == hv {
			rep.InternalInfluence += e.Weight
			continue
		}
		rep.CrossInfluence += e.Weight
		d, conn := p.Distance(hu, hv)
		if !conn {
			d = float64(p.NumNodes())
		}
		rep.CommCost += e.Weight * d
	}
	if total := rep.InternalInfluence + rep.CrossInfluence; total > 0 {
		rep.Containment = rep.InternalInfluence / total
	} else {
		rep.Containment = 1
	}

	// Criticality dispersion, accumulated in sorted base order.
	critOf := func(base string) float64 { return full.Attrs(base).Value(attrs.Criticality) }
	bases := make([]string, 0, len(hwOf))
	for base := range hwOf {
		bases = append(bases, base)
	}
	sort.Strings(bases)
	perNode := map[string][]float64{}
	for _, base := range bases {
		perNode[hwOf[base]] = append(perNode[hwOf[base]], critOf(base))
	}
	for _, crits := range perNode {
		sum := 0.0
		critical := 0
		for _, c := range crits {
			sum += c
			if cfg.CriticalThreshold > 0 && c >= cfg.CriticalThreshold {
				critical++
			}
		}
		if sum > rep.MaxNodeCriticality {
			rep.MaxNodeCriticality = sum
		}
		if critical > 1 {
			rep.CriticalPairsColocated += critical * (critical - 1) / 2
		}
	}
	if cfg.CriticalThreshold > 0 {
		perFCR := map[string]int{}
		for nodeName, crits := range perNode {
			node, err := p.Node(nodeName)
			if err != nil {
				continue // unknown nodes already reported as violations
			}
			for _, c := range crits {
				if c >= cfg.CriticalThreshold {
					perFCR[node.FCR]++
				}
			}
		}
		for _, k := range perFCR {
			rep.CriticalPairsSharedFCR += k * (k - 1) / 2
		}
	}
	return rep
}

// requireSameReport fails unless two reports agree exactly: bit-equal
// floats, equal counts and the same violations in the same order.
func requireSameReport(t *testing.T, label string, got, want Report) {
	t.Helper()
	floats := []struct {
		name      string
		got, want float64
	}{
		{"CrossInfluence", got.CrossInfluence, want.CrossInfluence},
		{"InternalInfluence", got.InternalInfluence, want.InternalInfluence},
		{"Containment", got.Containment, want.Containment},
		{"MaxNodeCriticality", got.MaxNodeCriticality, want.MaxNodeCriticality},
		{"CommCost", got.CommCost, want.CommCost},
	}
	for _, f := range floats {
		if math.Float64bits(f.got) != math.Float64bits(f.want) {
			t.Fatalf("%s: %s = %v, reference %v", label, f.name, f.got, f.want)
		}
	}
	if got.ConstraintsOK != want.ConstraintsOK ||
		got.CriticalPairsColocated != want.CriticalPairsColocated ||
		got.CriticalPairsSharedFCR != want.CriticalPairsSharedFCR ||
		!reflect.DeepEqual(got.Violations, want.Violations) {
		t.Fatalf("%s: report %+v\nreference %+v", label, got, want)
	}
}

// randomEvalInput builds an evaluation problem from pr: a full graph of
// up to 30 bases, added out of id order, with weights from a tied or a continuous set, replica
// edges and possibly one removed node; an assignment of composite and
// plain cluster ids over most of the bases, with members the graph lacks,
// bases listed twice, unsorted and empty ids, and node names that repeat,
// are unknown or empty; a Complete, Ring or disconnected platform; and a
// configuration with a threshold of 0 or above and maybe requirements.
func randomEvalInput(t *testing.T, pr *rand.Rand) (*graph.Graph, Assignment, *hw.Platform, EvalConfig) {
	t.Helper()
	full := graph.New()
	nb := 1 + pr.IntN(30)
	var bases []string
	// Add the bases out of id order, so slot order differs from it.
	for _, i := range pr.Perm(nb) {
		id := fmt.Sprintf("b%02d", i)
		c := float64(pr.IntN(20))
		if pr.IntN(2) == 0 {
			c = pr.Float64() * 20
		}
		if err := full.AddNode(id, attrs.New(map[attrs.Kind]float64{attrs.Criticality: c})); err != nil {
			t.Fatal(err)
		}
		bases = append(bases, id)
	}
	if nb > 1 && pr.IntN(3) == 0 {
		gone := pr.IntN(nb)
		if err := full.RemoveNode(bases[gone]); err != nil {
			t.Fatal(err)
		}
		bases = append(bases[:gone], bases[gone+1:]...)
	}
	tied := pr.IntN(2) == 0
	for _, from := range bases {
		for _, to := range bases {
			switch k := pr.IntN(24); {
			case from == to || k > 7:
			case k == 0:
				if err := full.AddReplicaEdge(from, to); err != nil {
					t.Fatal(err)
				}
			default:
				w := pr.Float64()
				if tied {
					w = float64(pr.IntN(5)) / 4
				}
				if err := full.SetEdge(from, to, w); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	p := randomPlatform(t, pr)
	nodes := p.Nodes()
	groups := make([][]string, 1+pr.IntN(8))
	for _, b := range bases {
		if pr.IntN(8) == 0 {
			continue // unassigned
		}
		g := pr.IntN(len(groups))
		groups[g] = append(groups[g], b)
		if pr.IntN(12) == 0 {
			g2 := pr.IntN(len(groups))
			groups[g2] = append(groups[g2], b) // listed twice
		}
	}
	for i := pr.IntN(3); i > 0; i-- {
		g := pr.IntN(len(groups))
		groups[g] = append(groups[g], fmt.Sprintf("b%02dx", pr.IntN(32))) // absent from full
	}
	asg := Assignment{}
	for _, members := range groups {
		var id string
		switch {
		case len(members) == 1 && pr.IntN(2) == 0:
			id = members[0]
		case pr.IntN(4) == 0:
			pr.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
			id = "{" + strings.Join(members, ",") + "}"
		default:
			id = graph.ClusterID(members)
		}
		node := nodes[pr.IntN(len(nodes))]
		switch pr.IntN(16) {
		case 0:
			node = ""
		case 1:
			node = "hw-unknown"
		}
		asg[id] = node
	}

	var cfg EvalConfig
	if pr.IntN(2) == 0 {
		cfg.CriticalThreshold = float64(pr.IntN(20))
	}
	if pr.IntN(3) == 0 {
		cfg.Requirements = Requirements{}
		for _, b := range bases {
			if pr.IntN(4) == 0 {
				cfg.Requirements[b] = []string{resourceNames[pr.IntN(len(resourceNames))]}
			}
		}
	}
	return full, asg, p, cfg
}

// FuzzEvaluateMatchesReference pins the slot walk of Evaluate to the
// string walk it replaced (with the duplicate-base fix): the same report,
// bit for bit, with the same violations in the same order.
func FuzzEvaluateMatchesReference(f *testing.F) {
	for seed := uint64(1); seed <= 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(compareEvaluate)
}

// TestEvaluateMatchesReference runs the fuzz target's check over a fixed
// batch of seeds, and on the worked example's H1 assignment.
func TestEvaluateMatchesReference(t *testing.T) {
	for seed := uint64(0); seed < 400; seed++ {
		compareEvaluate(t, seed)
	}
	full, condensed := reducedPaper(t)
	p := completePlatform(t, 6)
	asg, _, err := AssignByImportanceDetailed(condensed, p, defaultWeights(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := EvalConfig{CriticalThreshold: 10}
	requireSameReport(t, "paper example", Evaluate(full, asg, p, cfg), refEvaluate(full, asg, p, cfg))
}

// compareEvaluate checks Evaluate against refEvaluate on the input
// generated from seed.
func compareEvaluate(t *testing.T, seed uint64) {
	pr := rand.New(rand.NewPCG(seed, seed^0x2545f4914f6cdd1d))
	full, asg, p, cfg := randomEvalInput(t, pr)
	requireSameReport(t, fmt.Sprintf("seed %d", seed), Evaluate(full, asg, p, cfg), refEvaluate(full, asg, p, cfg))
}
