// Package attrs implements the FCM attribute system of the dependability-
// driven integration framework (Suri, Ghosh, Marlowe — ICDCS 1998, §4.3).
//
// Every fault containment module (FCM) carries a set of attributes such as
// criticality, fault-tolerance degree, timing constraints and throughput.
// When FCMs are integrated, their attributes combine: the resulting FCM
// usually takes the most stringent component value (max criticality, min
// deadline) or an aggregate (sum of throughputs). Each node also has an
// importance value, a weighted sum of its attribute values with predefined
// static relative weights (§5.1).
package attrs

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"strings"

	"repro/internal/stage"
)

// Kind identifies a standard attribute of an FCM.
type Kind int

// Standard attribute kinds. The set mirrors the attributes the paper uses
// in its worked example (Table 1) plus those it names in passing
// (throughput, communication rate, security, memory).
const (
	// Criticality is the application-assigned importance of the module.
	// Combination: max (most stringent).
	Criticality Kind = iota + 1
	// FaultTolerance is the required replication degree (FT); FT=3 means
	// TMR. Combination: max.
	FaultTolerance
	// EarliestStart (EST) is the earliest start time of the module's
	// single-shot job. Combination: min (the merged job may begin when the
	// earliest constituent may).
	EarliestStart
	// Deadline (TCD, task completion deadline). Combination: min.
	Deadline
	// ComputeTime (CT) is the worst-case computation time.
	// Combination: sum.
	ComputeTime
	// Throughput is the required processing throughput. Combination: sum.
	Throughput
	// CommRate is the required communication rate. Combination: sum.
	CommRate
	// Security is the information-security level. Combination: max.
	Security
	// Memory is the memory footprint. Combination: sum.
	Memory
	numKinds = iota // internal sentinel: count of defined kinds
)

// String returns the conventional short name of the attribute kind.
func (k Kind) String() string {
	switch k {
	case Criticality:
		return "C"
	case FaultTolerance:
		return "FT"
	case EarliestStart:
		return "EST"
	case Deadline:
		return "TCD"
	case ComputeTime:
		return "CT"
	case Throughput:
		return "TP"
	case CommRate:
		return "CR"
	case Security:
		return "SEC"
	case Memory:
		return "MEM"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Valid reports whether k is one of the defined attribute kinds.
func (k Kind) Valid() bool { return k >= Criticality && int(k) <= numKinds }

// Policy is the combination policy applied to an attribute when two FCMs
// are integrated (§4.3: "the resulting FCM will usually have the most
// stringent component values … or an aggregate").
type Policy int

// Combination policies.
const (
	// Max takes the larger value (e.g. criticality).
	Max Policy = iota + 1
	// Min takes the smaller value (e.g. deadline).
	Min
	// Sum aggregates (e.g. throughput, compute time).
	Sum
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case Max:
		return "max"
	case Min:
		return "min"
	case Sum:
		return "sum"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// PolicyFor returns the canonical combination policy for a standard kind.
func PolicyFor(k Kind) Policy {
	switch k {
	case Criticality, FaultTolerance, Security:
		return Max
	case EarliestStart, Deadline:
		return Min
	case ComputeTime, Throughput, CommRate, Memory:
		return Sum
	default:
		return Max
	}
}

// Combine applies policy p to two attribute values.
func (p Policy) Combine(a, b float64) float64 {
	switch p {
	case Max:
		return math.Max(a, b)
	case Min:
		return math.Min(a, b)
	case Sum:
		return a + b
	default:
		return math.Max(a, b)
	}
}

// Set is the attribute set of one FCM: a value of at most one number per
// standard kind. It is a plain value (copying it copies the attributes), so
// sets combine and clone without allocating. The zero value is an empty
// set, ready to use. Kinds outside the standard set are not stored.
type Set struct {
	has  uint16                // bit k is set when kind k is present
	vals [numKinds + 1]float64 // vals[k] is the value of kind k; vals[0] is unused
}

// New returns a Set populated from pairs of (Kind, value).
func New(pairs map[Kind]float64) Set {
	var s Set
	for k, v := range pairs {
		s.put(k, v)
	}
	return s
}

// put stores v under a standard kind k and ignores any other kind.
func (s *Set) put(k Kind, v float64) {
	if k.Valid() {
		s.has |= 1 << k
		s.vals[k] = v
	}
}

// Timing builds the Table-1 style attribute set ⟨C, FT, EST, TCD, CT⟩.
func Timing(criticality float64, ft int, est, tcd, ct float64) Set {
	var s Set
	s.put(Criticality, criticality)
	s.put(FaultTolerance, float64(ft))
	s.put(EarliestStart, est)
	s.put(Deadline, tcd)
	s.put(ComputeTime, ct)
	return s
}

// Get returns the value of kind k and whether it is present.
func (s Set) Get(k Kind) (float64, bool) {
	if !s.Has(k) {
		return 0, false
	}
	return s.vals[k], true
}

// Value returns the value of kind k, or 0 if absent.
func (s Set) Value(k Kind) float64 {
	v, _ := s.Get(k)
	return v
}

// Has reports whether kind k is present.
func (s Set) Has(k Kind) bool { return k.Valid() && s.has&(1<<k) != 0 }

// Set assigns value v to kind k, returning a new Set; the receiver is not
// modified (attribute sets are treated as values at module boundaries).
func (s Set) Set(k Kind, v float64) Set {
	s.put(k, v)
	return s
}

// Clone returns a copy of the set. A Set is a value, so this is the set
// itself; it is kept for callers that copy explicitly.
func (s Set) Clone() Set { return s }

// Len returns the number of attributes present.
func (s Set) Len() int { return bits.OnesCount16(s.has) }

// Kinds returns the kinds present, sorted for deterministic iteration.
func (s Set) Kinds() []Kind {
	ks := make([]Kind, 0, s.Len())
	for k := Criticality; int(k) <= numKinds; k++ {
		if s.Has(k) {
			ks = append(ks, k)
		}
	}
	return ks
}

// Combine merges two attribute sets under the canonical per-kind policies.
// A kind present in only one operand is carried through unchanged: combining
// with "no constraint" leaves the constraint in force.
func Combine(a, b Set) Set {
	out := a
	for k := Criticality; int(k) <= numKinds; k++ {
		if !b.Has(k) {
			continue
		}
		if a.Has(k) {
			out.vals[k] = PolicyFor(k).Combine(a.vals[k], b.vals[k])
		} else {
			out.put(k, b.vals[k])
		}
	}
	return out
}

// CombineAll folds Combine over a list of sets. An empty list yields the
// zero Set.
func CombineAll(sets ...Set) Set {
	var out Set
	for i, s := range sets {
		if i == 0 {
			out = s
			continue
		}
		out = Combine(out, s)
	}
	return out
}

// Equal reports whether two sets hold identical kinds and values.
func (s Set) Equal(o Set) bool {
	if s.has != o.has {
		return false
	}
	for k := Criticality; int(k) <= numKinds; k++ {
		if s.Has(k) && s.vals[k] != o.vals[k] {
			return false
		}
	}
	return true
}

// String renders the set as "C=15 FT=3 EST=0 TCD=20 CT=5" in kind order.
func (s Set) String() string {
	ks := s.Kinds()
	parts := make([]string, 0, len(ks))
	for _, k := range ks {
		parts = append(parts, fmt.Sprintf("%s=%g", k, s.vals[k]))
	}
	return strings.Join(parts, " ")
}

// ErrNegativeWeight is returned by NewWeights for a negative weight.
var ErrNegativeWeight = errors.New("attrs: importance weight must be non-negative")

// Weights holds the predefined static relative weights used to compute
// node importance (§5.1: "The importance I_i of node N_i is a weighted sum
// of its attribute values, using predefined static relative weights").
type Weights struct {
	w map[Kind]float64
}

// NewWeights validates and wraps a weight table.
func NewWeights(w map[Kind]float64) (Weights, error) {
	out := Weights{w: make(map[Kind]float64, len(w))}
	for k, v := range w {
		if v < 0 {
			return Weights{}, fmt.Errorf("%w: %s=%g", ErrNegativeWeight, k, v)
		}
		out.w[k] = v
	}
	return out, nil
}

// DefaultWeights returns the weight table used throughout the reproduction:
// criticality dominates, fault tolerance and deadline-tightness contribute.
// (The paper leaves the weights application-defined.) The error path is
// unreachable for the literal weights but reported through the stage
// taxonomy rather than panicking, so hardened callers stay panic-free.
func DefaultWeights() (Weights, error) {
	w, err := NewWeights(map[Kind]float64{
		Criticality:    1.0,
		FaultTolerance: 0.5,
		Throughput:     0.1,
		Security:       0.25,
	})
	if err != nil {
		return Weights{}, stage.Wrap("map", "default-weights", "", err)
	}
	return w, nil
}

// Importance computes I_i = Σ_k w_k · v_k over the kinds present in s,
// summed in kind order.
// Kinds without a weight contribute nothing.
func (ws Weights) Importance(s Set) float64 {
	var sum float64
	for k := Criticality; int(k) <= numKinds; k++ {
		if s.Has(k) {
			sum += ws.w[k] * s.vals[k]
		}
	}
	return sum
}

// Weight returns the weight assigned to kind k (0 if none).
func (ws Weights) Weight(k Kind) float64 { return ws.w[k] }
