// Package spec defines the external system-specification format of the
// reproduction: the set of process-level FCMs with their Table-1 style
// attributes, the influence edges between them, and the target hardware
// size. Specifications round-trip through JSON and convert to the internal
// graph and job models.
//
// The canonical fixture, PaperExample, is the reconstruction of the worked
// example of ICDCS 1998 §6 (processes p1..p8, Table 1, Fig. 3); the
// reconstruction constraints are documented in DESIGN.md.
package spec

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"repro/internal/attrs"
	"repro/internal/graph"
	"repro/internal/sched"
)

// Errors returned by validation.
var (
	ErrEmptySystem   = errors.New("spec: system has no processes")
	ErrDuplicate     = errors.New("spec: duplicate process name")
	ErrUnknownTarget = errors.New("spec: influence references unknown process")
	ErrBadValue      = errors.New("spec: invalid attribute value")
)

// Process is one process-level FCM with the attribute tuple of Table 1.
type Process struct {
	Name string `json:"name"`
	// Criticality (C).
	Criticality float64 `json:"criticality"`
	// FT is the fault-tolerance replication degree: 1 = simplex,
	// 2 = duplex, 3 = TMR.
	FT int `json:"ft"`
	// EST, TCD, CT are the timing triple: earliest start time, task
	// completion deadline, computation time.
	EST float64 `json:"est"`
	TCD float64 `json:"tcd"`
	CT  float64 `json:"ct"`
	// Resources lists names of HW resources this process requires.
	Resources []string `json:"resources,omitempty"`
}

// Attrs converts the process attributes to the internal attribute set.
func (p Process) Attrs() attrs.Set {
	return attrs.Timing(p.Criticality, p.FT, p.EST, p.TCD, p.CT)
}

// Job converts the process to its single-shot scheduling job.
func (p Process) Job() sched.Job {
	return sched.Job{Name: p.Name, EST: p.EST, TCD: p.TCD, CT: p.CT}
}

// Influence is one directed influence edge of the SW graph (Fig. 3).
type Influence struct {
	From    string   `json:"from"`
	To      string   `json:"to"`
	Weight  float64  `json:"weight"`
	Factors []string `json:"factors,omitempty"`
}

// System is a complete integration problem: software processes, their
// influences, and the hardware target.
type System struct {
	Name       string      `json:"name"`
	Processes  []Process   `json:"processes"`
	Influences []Influence `json:"influences"`
	// HWNodes is the number of processors the SW graph must be reduced to.
	HWNodes int `json:"hw_nodes"`
}

// Validate checks internal consistency.
func (s *System) Validate() error {
	if len(s.Processes) == 0 {
		return ErrEmptySystem
	}
	seen := make(map[string]bool, len(s.Processes))
	for _, p := range s.Processes {
		if p.Name == "" {
			return fmt.Errorf("%w: empty process name", ErrBadValue)
		}
		// Cluster ids are written {a,b}; a name using that syntax would
		// be split back into other members by graph.Members.
		if strings.ContainsAny(p.Name, ",{}") {
			return fmt.Errorf("%w: process name %q contains one of ',{}'", ErrBadValue, p.Name)
		}
		if seen[p.Name] {
			return fmt.Errorf("%w: %q", ErrDuplicate, p.Name)
		}
		seen[p.Name] = true
		if p.FT < 1 {
			return fmt.Errorf("%w: %s has FT %d (must be >= 1)", ErrBadValue, p.Name, p.FT)
		}
		// The comparison alone lets NaN through (every comparison with
		// NaN is false); reject non-finite criticality explicitly so it
		// cannot poison the Eq. (2) products downstream.
		if p.Criticality < 0 || math.IsNaN(p.Criticality) || math.IsInf(p.Criticality, 0) {
			return fmt.Errorf("%w: %s has criticality %g", ErrBadValue, p.Name, p.Criticality)
		}
		if err := p.Job().Validate(); err != nil {
			return fmt.Errorf("spec: %s: %w", p.Name, err)
		}
	}
	for _, e := range s.Influences {
		if !seen[e.From] {
			return fmt.Errorf("%w: %q", ErrUnknownTarget, e.From)
		}
		if !seen[e.To] {
			return fmt.Errorf("%w: %q", ErrUnknownTarget, e.To)
		}
		if e.From == e.To {
			return fmt.Errorf("%w: self influence on %q", ErrBadValue, e.From)
		}
		if e.Weight < 0 || e.Weight > 1 || math.IsNaN(e.Weight) {
			return fmt.Errorf("%w: influence %s->%s weight %g", ErrBadValue, e.From, e.To, e.Weight)
		}
	}
	if s.HWNodes < 1 {
		return fmt.Errorf("%w: hw_nodes %d", ErrBadValue, s.HWNodes)
	}
	return nil
}

// Clone returns a deep copy of the system: mutating the copy (or any
// slice reachable from it) never aliases the original. Scenario tooling
// uses it to perturb a generated system without disturbing the source.
func (s *System) Clone() *System {
	if s == nil {
		return nil
	}
	c := &System{Name: s.Name, HWNodes: s.HWNodes}
	if s.Processes != nil {
		c.Processes = make([]Process, len(s.Processes))
		for i, p := range s.Processes {
			if p.Resources != nil {
				p.Resources = append([]string(nil), p.Resources...)
			}
			c.Processes[i] = p
		}
	}
	if s.Influences != nil {
		c.Influences = make([]Influence, len(s.Influences))
		for i, inf := range s.Influences {
			if inf.Factors != nil {
				inf.Factors = append([]string(nil), inf.Factors...)
			}
			c.Influences[i] = inf
		}
	}
	return c
}

// Process returns the named process.
func (s *System) Process(name string) (Process, bool) {
	for _, p := range s.Processes {
		if p.Name == name {
			return p, true
		}
	}
	return Process{}, false
}

// Graph builds the initial SW influence graph (Fig. 3): one node per
// process (no replication yet), one directed weighted edge per influence.
func (s *System) Graph() (*graph.Graph, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s.ValidGraph()
}

// ValidGraph is Graph for a system that has passed Validate, which it
// does not run again.
func (s *System) ValidGraph() (*graph.Graph, error) {
	g := graph.New()
	g.Grow(len(s.Processes))
	for _, p := range s.Processes {
		if err := g.AddNode(p.Name, p.Attrs()); err != nil {
			return nil, err
		}
	}
	for _, e := range s.Influences {
		if err := g.SetEdge(e.From, e.To, e.Weight, e.Factors...); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// Jobs returns the scheduling jobs of all processes, name-sorted.
func (s *System) Jobs() []sched.Job {
	out := make([]sched.Job, 0, len(s.Processes))
	for _, p := range s.Processes {
		out = append(out, p.Job())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// TotalReplicas returns the node count after replication expansion
// (Σ FT_i).
func (s *System) TotalReplicas() int {
	n := 0
	for _, p := range s.Processes {
		n += p.FT
	}
	return n
}

// Encode writes the system as indented JSON.
func (s *System) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		return fmt.Errorf("spec: encode: %w", err)
	}
	return nil
}

// Decode reads and validates a system from JSON.
func Decode(r io.Reader) (*System, error) {
	var s System
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("spec: decode: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// PaperExample returns the reconstructed worked example of §6: Table 1's
// eight processes and Fig. 3's influence edges, to be reduced onto the
// six-node strongly connected HW graph. See DESIGN.md §5 for the
// reconstruction constraints; the two surviving computed values of Fig. 5
// (0.76 and 0.37) are reproduced exactly by this edge set.
func PaperExample() *System {
	return &System{
		Name: "icdcs98-worked-example",
		Processes: []Process{
			{Name: "p1", Criticality: 15, FT: 3, EST: 0, TCD: 20, CT: 5},
			{Name: "p2", Criticality: 10, FT: 2, EST: 8, TCD: 16, CT: 5},
			{Name: "p3", Criticality: 10, FT: 2, EST: 0, TCD: 15, CT: 4},
			{Name: "p4", Criticality: 6, FT: 1, EST: 5, TCD: 15, CT: 4},
			{Name: "p5", Criticality: 3, FT: 1, EST: 0, TCD: 10, CT: 3},
			{Name: "p6", Criticality: 4, FT: 1, EST: 10, TCD: 18, CT: 4},
			{Name: "p7", Criticality: 2, FT: 1, EST: 10, TCD: 16, CT: 3},
			{Name: "p8", Criticality: 1, FT: 1, EST: 12, TCD: 20, CT: 3},
		},
		Influences: []Influence{
			{From: "p1", To: "p2", Weight: 0.7, Factors: []string{"shared-memory"}},
			{From: "p2", To: "p1", Weight: 0.5, Factors: []string{"shared-memory"}},
			{From: "p3", To: "p4", Weight: 0.6, Factors: []string{"message-passing"}},
			{From: "p4", To: "p3", Weight: 0.3, Factors: []string{"message-passing"}},
			{From: "p3", To: "p5", Weight: 0.7, Factors: []string{"shared-memory"}},
			{From: "p4", To: "p5", Weight: 0.2, Factors: []string{"message-passing"}},
			{From: "p2", To: "p3", Weight: 0.2, Factors: []string{"message-passing"}},
			{From: "p7", To: "p8", Weight: 0.3, Factors: []string{"timing"}},
			{From: "p8", To: "p7", Weight: 0.2, Factors: []string{"timing"}},
			{From: "p5", To: "p7", Weight: 0.2, Factors: []string{"message-passing"}},
			{From: "p5", To: "p6", Weight: 0.1, Factors: []string{"message-passing"}},
			{From: "p8", To: "p6", Weight: 0.3, Factors: []string{"resource-sharing"}},
			{From: "p6", To: "p1", Weight: 0.1, Factors: []string{"message-passing"}},
		},
		HWNodes: 6,
	}
}

// FlightControl returns the intro's motivating integration workload: "the
// integration for flight control SW involves display, sensor, collision
// avoidance, and navigation SW onto a shared platform" (the AIMS system of
// the Boeing 777). Values are illustrative; collision avoidance and
// navigation are critical and replicated.
func FlightControl() *System {
	return &System{
		Name: "flight-control",
		Processes: []Process{
			{Name: "collision-avoidance", Criticality: 20, FT: 3, EST: 0, TCD: 50, CT: 10},
			{Name: "navigation", Criticality: 15, FT: 2, EST: 0, TCD: 60, CT: 12},
			{Name: "sensor-fusion", Criticality: 12, FT: 2, EST: 0, TCD: 40, CT: 8},
			{Name: "autopilot", Criticality: 14, FT: 2, EST: 10, TCD: 80, CT: 15},
			{Name: "display", Criticality: 5, FT: 1, EST: 20, TCD: 120, CT: 20, Resources: []string{"framebuffer"}},
			{Name: "datalink", Criticality: 4, FT: 1, EST: 0, TCD: 100, CT: 10, Resources: []string{"radio"}},
			{Name: "maintenance-log", Criticality: 1, FT: 1, EST: 30, TCD: 200, CT: 15},
		},
		Influences: []Influence{
			{From: "sensor-fusion", To: "collision-avoidance", Weight: 0.6, Factors: []string{"message-passing"}},
			{From: "sensor-fusion", To: "navigation", Weight: 0.5, Factors: []string{"message-passing"}},
			{From: "navigation", To: "autopilot", Weight: 0.55, Factors: []string{"shared-memory"}},
			{From: "collision-avoidance", To: "autopilot", Weight: 0.4, Factors: []string{"message-passing"}},
			{From: "autopilot", To: "display", Weight: 0.3, Factors: []string{"message-passing"}},
			{From: "navigation", To: "display", Weight: 0.25, Factors: []string{"message-passing"}},
			{From: "datalink", To: "navigation", Weight: 0.15, Factors: []string{"message-passing"}},
			{From: "display", To: "maintenance-log", Weight: 0.2, Factors: []string{"shared-memory"}},
			{From: "autopilot", To: "maintenance-log", Weight: 0.1, Factors: []string{"message-passing"}},
			{From: "datalink", To: "maintenance-log", Weight: 0.3, Factors: []string{"shared-memory"}},
		},
		HWNodes: 4,
	}
}
