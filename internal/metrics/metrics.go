// Package metrics provides the reliability mathematics used to quantify
// the dependability of an integrated system: k-of-n combination (TMR =
// 2-of-3) and a whole-system dependability report.
//
// These computations give the framework the "measures to quantify the
// goodness of dependable system integration" promised in the paper's
// abstract.
package metrics

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrProbRange marks a probability outside [0,1].
var ErrProbRange = errors.New("metrics: probability must be in [0,1]")

func checkProb(p float64) error {
	if p < 0 || p > 1 || math.IsNaN(p) {
		return fmt.Errorf("%w: %g", ErrProbRange, p)
	}
	return nil
}

// KOfN returns the probability that at least k of n components with equal
// reliability r work. TMR voting is KOfN(2, 3, r).
func KOfN(k, n int, r float64) (float64, error) {
	if err := checkProb(r); err != nil {
		return 0, err
	}
	if k < 0 || n < 0 || k > n {
		return 0, fmt.Errorf("metrics: invalid k-of-n: %d of %d", k, n)
	}
	sum := 0.0
	for i := k; i <= n; i++ {
		sum += binom(n, i) * math.Pow(r, float64(i)) * math.Pow(1-r, float64(n-i))
	}
	return sum, nil
}

func binom(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	out := 1.0
	for i := 0; i < k; i++ {
		out = out * float64(n-i) / float64(i+1)
	}
	return out
}

// TMR is the classic 2-of-3 majority reliability.
func TMR(r float64) (float64, error) { return KOfN(2, 3, r) }

// SystemReport summarises dependability of an integrated system.
type SystemReport struct {
	// ModuleReliability per module (after replication).
	ModuleReliability map[string]float64
	// SystemReliability is the series combination over modules (all
	// modules needed).
	SystemReliability float64
	// WeakestModule has the lowest reliability.
	WeakestModule string
}

// ModuleSpec describes one module for the system report.
type ModuleSpec struct {
	Name string
	// FaultProb is the module's intrinsic per-mission fault probability.
	FaultProb float64
	// Replicas is the replication degree; Majority selects TMR-style
	// voting (majority needed) vs standby (one replica suffices).
	Replicas int
	Majority bool
}

// SystemReliability computes the report for a set of modules, treating the
// system as a series composition of (possibly replicated) modules.
func SystemReliability(mods []ModuleSpec) (SystemReport, error) {
	rep := SystemReport{ModuleReliability: map[string]float64{}, SystemReliability: 1}
	names := make([]string, 0, len(mods))
	for _, m := range mods {
		if err := checkProb(m.FaultProb); err != nil {
			return rep, fmt.Errorf("metrics: module %s: %w", m.Name, err)
		}
		n := m.Replicas
		if n < 1 {
			n = 1
		}
		r := 1 - m.FaultProb
		var mr float64
		var err error
		if m.Majority {
			mr, err = KOfN(n/2+1, n, r)
		} else {
			mr, err = KOfN(1, n, r)
		}
		if err != nil {
			return rep, err
		}
		rep.ModuleReliability[m.Name] = mr
		rep.SystemReliability *= mr
		names = append(names, m.Name)
	}
	sort.Strings(names)
	worst := math.Inf(1)
	for _, n := range names {
		if r := rep.ModuleReliability[n]; r < worst {
			worst = r
			rep.WeakestModule = n
		}
	}
	return rep, nil
}
