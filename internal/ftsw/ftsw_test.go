package ftsw

import (
	"errors"
	"fmt"
	"testing"
)

func accept(in int, out int) bool { return out == in*2 }

func good(in int) (int, error)  { return in * 2, nil }
func bad(in int) (int, error)   { return in*2 + 1, nil }
func fails(in int) (int, error) { return 0, fmt.Errorf("variant error") }

func TestRecoveryBlockPrimarySucceeds(t *testing.T) {
	rb, err := NewRecoveryBlock(accept, good, bad)
	if err != nil {
		t.Fatal(err)
	}
	out, err := rb.Execute(21)
	if err != nil || out != 42 {
		t.Errorf("Execute = %d, %v", out, err)
	}
	if rb.Recoveries != 0 || rb.Attempts != 1 {
		t.Errorf("stats: attempts=%d recoveries=%d", rb.Attempts, rb.Recoveries)
	}
}

func TestRecoveryBlockFallsBackToAlternate(t *testing.T) {
	rb, err := NewRecoveryBlock(accept, bad, good)
	if err != nil {
		t.Fatal(err)
	}
	out, err := rb.Execute(10)
	if err != nil || out != 20 {
		t.Errorf("Execute = %d, %v", out, err)
	}
	if rb.Recoveries != 1 {
		t.Errorf("recoveries = %d, want 1", rb.Recoveries)
	}
}

func TestRecoveryBlockErroringPrimary(t *testing.T) {
	rb, err := NewRecoveryBlock(accept, fails, good)
	if err != nil {
		t.Fatal(err)
	}
	out, err := rb.Execute(5)
	if err != nil || out != 10 {
		t.Errorf("Execute = %d, %v", out, err)
	}
}

func TestRecoveryBlockAllFail(t *testing.T) {
	rb, err := NewRecoveryBlock(accept, bad, fails)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rb.Execute(5); !errors.Is(err, ErrAllVariantsFailed) {
		t.Errorf("err = %v, want ErrAllVariantsFailed", err)
	}
}

func TestRecoveryBlockConstructionErrors(t *testing.T) {
	if _, err := NewRecoveryBlock[int, int](accept); !errors.Is(err, ErrNoVariants) {
		t.Errorf("err = %v, want ErrNoVariants", err)
	}
	if _, err := NewRecoveryBlock[int, int](nil, good); err == nil {
		t.Error("nil acceptance test accepted")
	}
}

func TestStatsContainmentRate(t *testing.T) {
	s := Stats{Contained: 3, Escaped: 1}
	if got := s.ContainmentRate(); got != 0.75 {
		t.Errorf("rate = %g, want 0.75", got)
	}
	if got := (Stats{}).ContainmentRate(); got != 1 {
		t.Errorf("empty rate = %g, want 1", got)
	}
}

func TestMeasureRecoveryBlockContainsInjectedFaults(t *testing.T) {
	// Primary fails on every third input; the alternate is always right.
	i := 0
	primary := func(in int) (int, error) {
		if in%3 == 0 {
			return in*2 + 1, nil
		}
		return in * 2, nil
	}
	rb, err := NewRecoveryBlock(accept, primary, good)
	if err != nil {
		t.Fatal(err)
	}
	stats := MeasureRecoveryBlock(rb, 99,
		func(n int) (int, bool) { i = n; return n, n%3 == 0 },
		func(in, out int) bool { return out == in*2 })
	_ = i
	if stats.Calls != 99 {
		t.Errorf("calls = %d", stats.Calls)
	}
	if stats.Escaped != 0 || stats.Failed != 0 {
		t.Errorf("escaped=%d failed=%d, want 0/0", stats.Escaped, stats.Failed)
	}
	if stats.Contained != 33 {
		t.Errorf("contained = %d, want 33", stats.Contained)
	}
	if rate := stats.ContainmentRate(); rate != 1 {
		t.Errorf("containment rate = %g, want 1", rate)
	}
}

func TestMeasureRecoveryBlockWithoutAlternateEscapes(t *testing.T) {
	// Single faulty variant and a vacuous acceptance test: faults escape —
	// the baseline against which recovery blocks are measured (E8).
	primary := func(in int) (int, error) {
		if in%3 == 0 {
			return in*2 + 1, nil
		}
		return in * 2, nil
	}
	always := func(in, out int) bool { return true }
	rb, err := NewRecoveryBlock(always, primary)
	if err != nil {
		t.Fatal(err)
	}
	stats := MeasureRecoveryBlock(rb, 99,
		func(n int) (int, bool) { return n, n%3 == 0 },
		func(in, out int) bool { return out == in*2 })
	if stats.Escaped != 33 {
		t.Errorf("escaped = %d, want 33", stats.Escaped)
	}
	if rate := stats.ContainmentRate(); rate != 0 {
		t.Errorf("containment rate = %g, want 0", rate)
	}
}
