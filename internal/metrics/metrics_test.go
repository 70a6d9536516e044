package metrics

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestKOfN(t *testing.T) {
	// TMR with r = 0.9: 3(0.9)²(0.1) + (0.9)³ = 0.972.
	got, err := KOfN(2, 3, 0.9)
	if err != nil || !almost(got, 0.972) {
		t.Errorf("KOfN(2,3,0.9) = %g, %v", got, err)
	}
	// 1-of-n is the parallel combination: one working component suffices.
	k1, err := KOfN(1, 2, 0.9)
	if err != nil || !almost(k1, 1-(1-0.9)*(1-0.9)) {
		t.Errorf("KOfN(1,2,0.9) = %g, %v", k1, err)
	}
	// n-of-n is the series combination: every component must work.
	kn, err := KOfN(3, 3, 0.9)
	if err != nil || !almost(kn, 0.9*0.9*0.9) {
		t.Errorf("KOfN(3,3,0.9) = %g, %v", kn, err)
	}
	// 0-of-n is certain.
	k0, err := KOfN(0, 3, 0.5)
	if err != nil || !almost(k0, 1) {
		t.Errorf("KOfN(0,3,0.5) = %g, %v", k0, err)
	}
	if _, err := KOfN(4, 3, 0.5); err == nil {
		t.Error("k > n accepted")
	}
	if _, err := KOfN(2, 3, 1.5); !errors.Is(err, ErrProbRange) {
		t.Errorf("err = %v", err)
	}
}

func TestTMRCrossover(t *testing.T) {
	// Classic result: TMR beats simplex only when r > 0.5.
	hi, err := TMR(0.9)
	if err != nil {
		t.Fatal(err)
	}
	if hi <= 0.9 {
		t.Errorf("TMR(0.9) = %g, should exceed 0.9", hi)
	}
	lo, err := TMR(0.4)
	if err != nil {
		t.Fatal(err)
	}
	if lo >= 0.4 {
		t.Errorf("TMR(0.4) = %g, should be below 0.4", lo)
	}
	mid, err := TMR(0.5)
	if err != nil || !almost(mid, 0.5) {
		t.Errorf("TMR(0.5) = %g, want exactly 0.5", mid)
	}
}

func TestTMRMonotoneProperty(t *testing.T) {
	f := func(a, b uint8) bool {
		ra, rb := float64(a)/255, float64(b)/255
		ta, err1 := TMR(ra)
		tb, err2 := TMR(rb)
		if err1 != nil || err2 != nil {
			return false
		}
		if ra <= rb {
			return ta <= tb+1e-12
		}
		return ta+1e-12 >= tb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSystemReliability(t *testing.T) {
	rep, err := SystemReliability([]ModuleSpec{
		{Name: "p1", FaultProb: 0.1, Replicas: 3, Majority: true}, // TMR: 0.972
		{Name: "p4", FaultProb: 0.1, Replicas: 1},                 // simplex: 0.9
	})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(rep.ModuleReliability["p1"], 0.972) {
		t.Errorf("p1 reliability = %g", rep.ModuleReliability["p1"])
	}
	if !almost(rep.ModuleReliability["p4"], 0.9) {
		t.Errorf("p4 reliability = %g", rep.ModuleReliability["p4"])
	}
	if !almost(rep.SystemReliability, 0.972*0.9) {
		t.Errorf("system reliability = %g", rep.SystemReliability)
	}
	if rep.WeakestModule != "p4" {
		t.Errorf("weakest = %s, want p4", rep.WeakestModule)
	}
}

func TestSystemReliabilityStandby(t *testing.T) {
	rep, err := SystemReliability([]ModuleSpec{
		{Name: "d", FaultProb: 0.1, Replicas: 2}, // 1-of-2: 0.99
	})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(rep.ModuleReliability["d"], 0.99) {
		t.Errorf("duplex standby = %g, want 0.99", rep.ModuleReliability["d"])
	}
}

func TestSystemReliabilityValidation(t *testing.T) {
	if _, err := SystemReliability([]ModuleSpec{{Name: "x", FaultProb: 2}}); err == nil {
		t.Error("bad fault probability accepted")
	}
	// Zero replicas treated as simplex.
	rep, err := SystemReliability([]ModuleSpec{{Name: "x", FaultProb: 0.5}})
	if err != nil || !almost(rep.SystemReliability, 0.5) {
		t.Errorf("zero-replica module: %g, %v", rep.SystemReliability, err)
	}
}

func TestReplicationImprovesSystem(t *testing.T) {
	// E7 shape: replicating the weakest module lifts system reliability.
	base, err := SystemReliability([]ModuleSpec{{Name: "m", FaultProb: 0.2, Replicas: 1}})
	if err != nil {
		t.Fatal(err)
	}
	tmr, err := SystemReliability([]ModuleSpec{{Name: "m", FaultProb: 0.2, Replicas: 3, Majority: true}})
	if err != nil {
		t.Fatal(err)
	}
	standby, err := SystemReliability([]ModuleSpec{{Name: "m", FaultProb: 0.2, Replicas: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if !(base.SystemReliability < tmr.SystemReliability) {
		t.Errorf("TMR %g not above simplex %g", tmr.SystemReliability, base.SystemReliability)
	}
	if !(tmr.SystemReliability < standby.SystemReliability) {
		t.Errorf("1-of-2 standby %g should top TMR %g at r=0.8",
			standby.SystemReliability, tmr.SystemReliability)
	}
}
