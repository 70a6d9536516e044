package spec

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/attrs"
	"repro/internal/sched"
)

func TestPaperExampleValid(t *testing.T) {
	s := PaperExample()
	if err := s.Validate(); err != nil {
		t.Fatalf("paper example invalid: %v", err)
	}
	if len(s.Processes) != 8 {
		t.Errorf("processes = %d, want 8", len(s.Processes))
	}
	if s.HWNodes != 6 {
		t.Errorf("hw nodes = %d, want 6", s.HWNodes)
	}
	// Narrative facts: p1 TMR, p2/p3 duplex, p4..p8 simplex.
	wantFT := map[string]int{"p1": 3, "p2": 2, "p3": 2, "p4": 1, "p5": 1, "p6": 1, "p7": 1, "p8": 1}
	for name, ft := range wantFT {
		p, ok := s.Process(name)
		if !ok || p.FT != ft {
			t.Errorf("%s FT = %d (found=%v), want %d", name, p.FT, ok, ft)
		}
	}
	// Replication expands 8 processes to 12 nodes (Fig. 4).
	if got := s.TotalReplicas(); got != 12 {
		t.Errorf("TotalReplicas = %d, want 12", got)
	}
	// Criticality order must make Approach B produce Fig. 7's pairs:
	// ascending tail p8 < p7 < p5 < p6 < p4.
	ascending := []string{"p8", "p7", "p5", "p6", "p4"}
	for i := 1; i < len(ascending); i++ {
		a, _ := s.Process(ascending[i-1])
		b, _ := s.Process(ascending[i])
		if a.Criticality >= b.Criticality {
			t.Errorf("criticality order broken: %s (%g) >= %s (%g)",
				a.Name, a.Criticality, b.Name, b.Criticality)
		}
	}
}

func TestPaperExampleNarrativeTiming(t *testing.T) {
	s := PaperExample()
	job := func(n string) sched.Job {
		p, ok := s.Process(n)
		if !ok {
			t.Fatalf("no process %s", n)
		}
		return p.Job()
	}
	// "if p4 and p7 are scheduled on the same processor, then p2 cannot be
	// scheduled on that processor".
	if ok, err := sched.Check([]sched.Job{job("p4"), job("p7")}); err != nil || !ok {
		t.Error("{p4,p7} must be feasible")
	}
	if ok, err := sched.Check([]sched.Job{job("p2"), job("p4"), job("p7")}); err != nil || ok {
		t.Error("{p2,p4,p7} must be infeasible")
	}
}

func TestPaperExampleInfluenceAlgebra(t *testing.T) {
	// The two surviving Fig. 5 values: merging {p3,p4} gives a combined
	// influence on p5 of 0.76; p5's and {p7,p8}'s influences on p6 combine
	// to 0.37.
	s := PaperExample()
	w := map[string]float64{}
	for _, e := range s.Influences {
		w[e.From+">"+e.To] = e.Weight
	}
	v76 := 1 - (1-w["p3>p5"])*(1-w["p4>p5"])
	if math.Abs(v76-0.76) > 1e-12 {
		t.Errorf("{p3,p4}->p5 = %g, want 0.76", v76)
	}
	v37 := 1 - (1-w["p5>p6"])*(1-w["p8>p6"])
	if math.Abs(v37-0.37) > 1e-12 {
		t.Errorf("{p5,p7,p8}->p6 = %g, want 0.37", v37)
	}
}

func TestGraphConstruction(t *testing.T) {
	s := PaperExample()
	g, err := s.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 8 {
		t.Errorf("graph nodes = %d, want 8", g.NumNodes())
	}
	if g.NumEdges() != len(s.Influences) {
		t.Errorf("graph edges = %d, want %d", g.NumEdges(), len(s.Influences))
	}
	if got := g.Influence("p1", "p2"); got != 0.7 {
		t.Errorf("p1->p2 = %g, want 0.7", got)
	}
	a := g.Attrs("p1")
	if a.Value(attrs.Criticality) != 15 || a.Value(attrs.FaultTolerance) != 3 {
		t.Errorf("p1 attrs = %s", a)
	}
	// Mutual influence of (p1,p2) is the highest: 1.2 (drives the first H1
	// merge in Fig. 5's narration).
	best, bestPair := 0.0, ""
	for _, x := range g.Nodes() {
		for _, y := range g.Nodes() {
			if x < y {
				if m := g.MutualInfluence(x, y); m > best {
					best, bestPair = m, x+","+y
				}
			}
		}
	}
	if bestPair != "p1,p2" || math.Abs(best-1.2) > 1e-12 {
		t.Errorf("highest mutual influence = %s (%g), want p1,p2 (1.2)", bestPair, best)
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	base := func() *System {
		return &System{
			Name: "t",
			Processes: []Process{
				{Name: "a", Criticality: 1, FT: 1, EST: 0, TCD: 10, CT: 5},
				{Name: "b", Criticality: 1, FT: 1, EST: 0, TCD: 10, CT: 5},
			},
			HWNodes: 2,
		}
	}
	tests := []struct {
		name    string
		mutate  func(*System)
		wantErr error
	}{
		{"empty", func(s *System) { s.Processes = nil }, ErrEmptySystem},
		{"dup", func(s *System) { s.Processes[1].Name = "a" }, ErrDuplicate},
		{"empty name", func(s *System) { s.Processes[0].Name = "" }, ErrBadValue},
		{"comma in name", func(s *System) { s.Processes[0].Name = "a,c" }, ErrBadValue},
		{"open brace in name", func(s *System) { s.Processes[0].Name = "{a" }, ErrBadValue},
		{"close brace in name", func(s *System) { s.Processes[0].Name = "a}" }, ErrBadValue},
		{"bad ft", func(s *System) { s.Processes[0].FT = 0 }, ErrBadValue},
		{"neg criticality", func(s *System) { s.Processes[0].Criticality = -1 }, ErrBadValue},
		{"bad job", func(s *System) { s.Processes[0].CT = 100 }, sched.ErrBadJob},
		{"unknown from", func(s *System) {
			s.Influences = []Influence{{From: "zz", To: "a", Weight: 0.5}}
		}, ErrUnknownTarget},
		{"unknown to", func(s *System) {
			s.Influences = []Influence{{From: "a", To: "zz", Weight: 0.5}}
		}, ErrUnknownTarget},
		{"self influence", func(s *System) {
			s.Influences = []Influence{{From: "a", To: "a", Weight: 0.5}}
		}, ErrBadValue},
		{"bad weight", func(s *System) {
			s.Influences = []Influence{{From: "a", To: "b", Weight: 1.5}}
		}, ErrBadValue},
		{"nan weight", func(s *System) {
			s.Influences = []Influence{{From: "a", To: "b", Weight: math.NaN()}}
		}, ErrBadValue},
		{"nan criticality", func(s *System) { s.Processes[0].Criticality = math.NaN() }, ErrBadValue},
		{"inf criticality", func(s *System) { s.Processes[0].Criticality = math.Inf(1) }, ErrBadValue},
		{"nan timing", func(s *System) { s.Processes[0].TCD = math.NaN() }, sched.ErrBadJob},
		{"bad hw", func(s *System) { s.HWNodes = 0 }, ErrBadValue},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := base()
			tt.mutate(s)
			if err := s.Validate(); !errors.Is(err, tt.wantErr) {
				t.Errorf("err = %v, want %v", err, tt.wantErr)
			}
		})
	}
	if err := base().Validate(); err != nil {
		t.Errorf("base system invalid: %v", err)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	s := PaperExample()
	var buf bytes.Buffer
	if err := s.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != s.Name || len(got.Processes) != len(s.Processes) ||
		len(got.Influences) != len(s.Influences) || got.HWNodes != s.HWNodes {
		t.Errorf("round trip mismatch: %+v", got)
	}
	p, ok := got.Process("p2")
	if !ok || p.EST != 8 || p.TCD != 16 || p.CT != 5 {
		t.Errorf("p2 after round trip: %+v", p)
	}
}

func TestDecodeRejectsUnknownFieldsAndInvalid(t *testing.T) {
	if _, err := Decode(strings.NewReader(`{"name":"x","bogus":1}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := Decode(strings.NewReader(`{"name":"x","processes":[],"hw_nodes":1}`)); !errors.Is(err, ErrEmptySystem) {
		t.Errorf("err = %v, want ErrEmptySystem", err)
	}
	if _, err := Decode(strings.NewReader(`not json`)); err == nil {
		t.Error("garbage accepted")
	}
}

func TestJobsSorted(t *testing.T) {
	s := PaperExample()
	jobs := s.Jobs()
	if len(jobs) != 8 {
		t.Fatalf("jobs = %d", len(jobs))
	}
	for i := 1; i < len(jobs); i++ {
		if jobs[i-1].Name >= jobs[i].Name {
			t.Errorf("jobs not sorted: %v", jobs)
		}
	}
}

func TestFlightControlValid(t *testing.T) {
	s := FlightControl()
	if err := s.Validate(); err != nil {
		t.Fatalf("flight control example invalid: %v", err)
	}
	if s.TotalReplicas() <= len(s.Processes) {
		t.Error("flight control should include replication")
	}
	if _, err := s.Graph(); err != nil {
		t.Errorf("graph: %v", err)
	}
}

func TestProcessLookup(t *testing.T) {
	s := PaperExample()
	if _, ok := s.Process("p1"); !ok {
		t.Error("p1 not found")
	}
	if _, ok := s.Process("nope"); ok {
		t.Error("phantom process found")
	}
}

func TestBrakeByWireValid(t *testing.T) {
	s := BrakeByWire()
	if err := s.Validate(); err != nil {
		t.Fatalf("brake-by-wire invalid: %v", err)
	}
	if s.TotalReplicas() != 13 {
		t.Errorf("replicas = %d, want 13", s.TotalReplicas())
	}
	if _, err := s.Graph(); err != nil {
		t.Error(err)
	}
}

func TestIndustrialControlValid(t *testing.T) {
	s := IndustrialControl()
	if err := s.Validate(); err != nil {
		t.Fatalf("industrial-control invalid: %v", err)
	}
	p, ok := s.Process("safety-interlock")
	if !ok || p.FT != 3 {
		t.Errorf("safety interlock FT = %d, want TMR", p.FT)
	}
	if _, err := s.Graph(); err != nil {
		t.Error(err)
	}
}

func TestSystemClone(t *testing.T) {
	if (*System)(nil).Clone() != nil {
		t.Fatal("nil Clone should stay nil")
	}
	orig := PaperExample()
	orig.Processes[0].Resources = []string{"sensor"}
	orig.Influences[0].Factors = []string{"message-passing"}

	c := orig.Clone()
	var a, b bytes.Buffer
	if err := orig.Encode(&a); err != nil {
		t.Fatal(err)
	}
	if err := c.Encode(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("clone encodes differently from the original")
	}

	// Mutating every level of the clone must leave the original alone.
	c.Name = "mutant"
	c.HWNodes++
	c.Processes[0].Criticality = 99
	c.Processes[0].Resources[0] = "mutated"
	c.Influences[0].Weight = 0.123
	c.Influences[0].Factors[0] = "mutated"
	var after bytes.Buffer
	if err := orig.Encode(&after); err != nil {
		t.Fatal(err)
	}
	if a.String() != after.String() {
		t.Fatal("mutating the clone changed the original")
	}
}
