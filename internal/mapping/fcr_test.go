package mapping

import (
	"errors"
	"testing"

	"repro/internal/attrs"
	"repro/internal/graph"
	"repro/internal/hw"
)

// cabinetPlatform builds 4 nodes in 2 FCRs: cab1{n1,n2}, cab2{n3,n4}.
func cabinetPlatform(t *testing.T) *hw.Platform {
	t.Helper()
	p := hw.NewPlatform()
	layout := map[string]string{"n1": "cab1", "n2": "cab1", "n3": "cab2", "n4": "cab2"}
	for _, n := range []string{"n1", "n2", "n3", "n4"} {
		if err := p.AddNode(hw.Node{Name: n, FCR: layout[n]}); err != nil {
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
	return p
}

func critGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New()
	crits := map[string]float64{"critA": 15, "critB": 14, "lo1": 2, "lo2": 1}
	for n, c := range crits {
		if err := g.AddNode(n, attrs.New(map[attrs.Kind]float64{attrs.Criticality: c})); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestAssignCriticalityAwareSeparatesFCRs(t *testing.T) {
	g := critGraph(t)
	p := cabinetPlatform(t)
	asg, _, err := AssignCriticalityAwareDetailed(g, p, nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	fcr := func(cluster string) string {
		node, err := p.Node(asg[cluster])
		if err != nil {
			t.Fatal(err)
		}
		return node.FCR
	}
	if fcr("critA") == fcr("critB") {
		t.Errorf("critical clusters share FCR %s", fcr("critA"))
	}
	if pairs := Evaluate(g, asg, p, EvalConfig{CriticalThreshold: 10}).CriticalPairsSharedFCR; pairs != 0 {
		t.Errorf("critical pairs sharing FCR = %d, want 0", pairs)
	}
}

func TestPlainImportancePlacementMayShareFCR(t *testing.T) {
	// The ablation: the standard placement (FCR-blind) puts the two
	// critical clusters on n1/n2 — the same cabinet.
	g := critGraph(t)
	p := cabinetPlatform(t)
	asg, _, err := AssignByImportanceDetailed(g, p, defaultWeights(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	pairs := Evaluate(g, asg, p, EvalConfig{CriticalThreshold: 10}).CriticalPairsSharedFCR
	if pairs == 0 {
		t.Skip("FCR-blind placement happened to separate FCRs on this layout")
	}
	if pairs != 1 {
		t.Errorf("shared-FCR pairs = %d", pairs)
	}
}

func TestAssignCriticalityAwareErrors(t *testing.T) {
	g := critGraph(t)
	small := hw.NewPlatform()
	if err := small.AddNode(hw.Node{Name: "only", FCR: "c"}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := AssignCriticalityAwareDetailed(g, small, nil, 10); !errors.Is(err, ErrTooManyClusters) {
		t.Errorf("err = %v", err)
	}
	p := cabinetPlatform(t)
	req := Requirements{"critA": {"nonexistent"}}
	if _, _, err := AssignCriticalityAwareDetailed(g, p, req, 10); !errors.Is(err, ErrNoFeasibleNode) {
		t.Errorf("err = %v", err)
	}
}
