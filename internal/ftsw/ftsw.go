// Package ftsw provides an executable software fault-tolerance mechanism,
// the recovery block — one of the task-level containment techniques the
// framework names in §3.2: "Well-known SW techniques such as N-version
// programming, or Recovery Blocks to contain faults, can be used at this
// level." Experiment E8 measures the recovery block; N-version voting is
// not implemented.
//
// A recovery block reduces the transmission probability p_i2 of Eq. (1):
// a fault occurring inside a variant is caught by the acceptance test
// before it can propagate to another FCM.
package ftsw

import (
	"errors"
	"fmt"
)

// Errors returned by the recovery block.
var (
	// ErrAllVariantsFailed means every alternate/variant produced an
	// unacceptable result.
	ErrAllVariantsFailed = errors.New("ftsw: all variants failed")
	// ErrNoVariants marks construction without any variant.
	ErrNoVariants = errors.New("ftsw: at least one variant is required")
)

// Variant is one implementation alternative: it maps an input to an output
// or an error.
type Variant[I, O any] func(I) (O, error)

// AcceptanceTest decides whether a result is acceptable for the given
// input (the recovery-block acceptance test of Randell's scheme, which the
// paper cites).
type AcceptanceTest[I, O any] func(input I, output O) bool

// RecoveryBlock executes alternates in order until one passes the
// acceptance test ("ensure by acceptance test, else by alternate …").
type RecoveryBlock[I, O any] struct {
	alternates []Variant[I, O]
	accept     AcceptanceTest[I, O]
	// Attempts counts variant executions across calls (observability for
	// the containment experiments).
	Attempts int
	// Recoveries counts calls saved by a non-primary alternate.
	Recoveries int
}

// NewRecoveryBlock builds a recovery block from a primary, alternates and
// an acceptance test.
func NewRecoveryBlock[I, O any](accept AcceptanceTest[I, O], alternates ...Variant[I, O]) (*RecoveryBlock[I, O], error) {
	if len(alternates) == 0 {
		return nil, ErrNoVariants
	}
	if accept == nil {
		return nil, fmt.Errorf("ftsw: nil acceptance test")
	}
	return &RecoveryBlock[I, O]{alternates: alternates, accept: accept}, nil
}

// Execute runs the block: each alternate in turn (with checkpoint/rollback
// semantics implied by passing the same input), returning the first
// accepted result.
func (rb *RecoveryBlock[I, O]) Execute(input I) (O, error) {
	var zero O
	for i, alt := range rb.alternates {
		rb.Attempts++
		out, err := alt(input)
		if err != nil {
			continue
		}
		if rb.accept(input, out) {
			if i > 0 {
				rb.Recoveries++
			}
			return out, nil
		}
	}
	return zero, ErrAllVariantsFailed
}

// Stats summarises mechanism effectiveness for the containment
// experiments.
type Stats struct {
	Calls     int
	Contained int // faults stopped by the mechanism
	Escaped   int // faulty results delivered
	Failed    int // calls with no deliverable result
}

// ContainmentRate returns Contained / (Contained + Escaped); 1 when no
// fault was presented.
func (s Stats) ContainmentRate() float64 {
	total := s.Contained + s.Escaped
	if total == 0 {
		return 1
	}
	return float64(s.Contained) / float64(total)
}

// MeasureRecoveryBlock drives a recovery block n times with a fault
// injector: inject(i) prepares the i-th input and reports whether the
// primary will misbehave; check(out) reports whether the delivered output
// is correct. It returns containment statistics — the empirical measure of
// how much recovery blocks reduce p_i2 (experiment E8).
func MeasureRecoveryBlock[I any, O any](
	rb *RecoveryBlock[I, O],
	n int,
	inject func(i int) (I, bool),
	check func(I, O) bool,
) Stats {
	var s Stats
	for i := 0; i < n; i++ {
		in, faulty := inject(i)
		s.Calls++
		out, err := rb.Execute(in)
		switch {
		case err != nil:
			s.Failed++
		case check(in, out):
			if faulty {
				s.Contained++
			}
		default:
			s.Escaped++
		}
	}
	return s
}
