package verify

import (
	"errors"
	"testing"

	"repro/internal/attrs"
	"repro/internal/core"
)

// buildTree builds: proc1{taskA{f1,f2}, taskB{f3}}, proc2{taskC{f4}}.
func buildTree() (*core.Hierarchy, error) {
	h := core.NewHierarchy()
	type step struct {
		fn func() error
	}
	steps := []func() error{
		func() error { _, err := h.AddProcess("proc1", attrs.Set{}); return err },
		func() error { _, err := h.AddTask("proc1", "taskA", attrs.Set{}); return err },
		func() error { _, err := h.AddProcedure("taskA", "f1", attrs.Set{}, true); return err },
		func() error { _, err := h.AddProcedure("taskA", "f2", attrs.Set{}, true); return err },
		func() error { _, err := h.AddTask("proc1", "taskB", attrs.Set{}); return err },
		func() error { _, err := h.AddProcedure("taskB", "f3", attrs.Set{}, true); return err },
		func() error { _, err := h.AddProcess("proc2", attrs.Set{}); return err },
		func() error { _, err := h.AddTask("proc2", "taskC", attrs.Set{}); return err },
		func() error { _, err := h.AddProcedure("taskC", "f4", attrs.Set{}, true); return err },
	}
	for _, s := range steps {
		if err := s(); err != nil {
			return nil, err
		}
	}
	return h, nil
}

func mustTree(t *testing.T) *core.Hierarchy {
	t.Helper()
	h, err := buildTree()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestCertifyAllThenStatus(t *testing.T) {
	h := mustTree(t)
	c := NewCertifier(h)
	if err := c.Status("f1"); !errors.Is(err, ErrNotCertified) {
		t.Errorf("pre-cert status = %v, want ErrNotCertified", err)
	}
	c.CertifyAll()
	if err := c.Status("f1"); err != nil {
		t.Errorf("post-cert status = %v", err)
	}
	if got := c.StaleSet(); len(got) != 0 {
		t.Errorf("stale after CertifyAll: %v", got)
	}
	// 9 FCMs certified.
	if c.FCMsRetested != 9 {
		t.Errorf("FCMs retested = %d, want 9", c.FCMsRetested)
	}
	// Sibling interfaces: f1-f2 (1), taskA-taskB (1), proc1-proc2 (1) = 3.
	if c.InterfacesRetested != 3 {
		t.Errorf("interfaces retested = %d, want 3", c.InterfacesRetested)
	}
}

func TestModifyR5RetestsParentOnly(t *testing.T) {
	h := mustTree(t)
	c := NewCertifier(h)
	c.CertifyAll()
	before := c.FCMsRetested
	if err := c.Modify("f1"); err != nil {
		t.Fatal(err)
	}
	// R5: retest f1 and taskA only (2 FCMs) plus the f1<->f2 interface.
	if got := c.FCMsRetested - before; got != 2 {
		t.Errorf("marginal FCM retests = %d, want 2", got)
	}
	if err := c.Status("f1"); err != nil {
		t.Errorf("f1 status after modify: %v", err)
	}
	if err := c.Modify("ghost"); err == nil {
		t.Error("modifying unknown FCM accepted")
	}
}

func TestStatusStaleness(t *testing.T) {
	h := mustTree(t)
	c := NewCertifier(h)
	c.CertifyAll()
	// Manually mark a modification without recertification.
	c.revision++
	c.modifiedAt["f1"] = c.revision
	if err := c.Status("f1"); !errors.Is(err, ErrStale) {
		t.Errorf("status = %v, want ErrStale", err)
	}
	stale := c.StaleSet()
	if len(stale) != 1 || stale[0] != "f1" {
		t.Errorf("stale set = %v", stale)
	}
	if err := c.Status("nope"); err == nil {
		t.Error("status of unknown FCM succeeded")
	}
}

func TestCompareCostsR5Saves(t *testing.T) {
	mods := []string{"f1", "f3", "f4", "f2", "f1", "taskA"}
	m, err := CompareCosts(buildTree, mods)
	if err != nil {
		t.Fatal(err)
	}
	if m.Modifications != len(mods) {
		t.Errorf("modifications = %d", m.Modifications)
	}
	if m.R5FCMs >= m.NaiveFCMs {
		t.Errorf("R5 FCM cost %d not below naive %d", m.R5FCMs, m.NaiveFCMs)
	}
	s := m.Savings()
	if s <= 0 || s >= 1 {
		t.Errorf("savings = %g, want in (0,1)", s)
	}
	// Naive cost: 9 FCMs + 3 interfaces per modification.
	if m.NaiveFCMs != 9*len(mods) {
		t.Errorf("naive FCMs = %d, want %d", m.NaiveFCMs, 9*len(mods))
	}
}

func TestCompareCostsErrors(t *testing.T) {
	if _, err := CompareCosts(buildTree, []string{"ghost"}); err == nil {
		t.Error("unknown modification target accepted")
	}
	bad := func() (*core.Hierarchy, error) { return nil, errors.New("boom") }
	if _, err := CompareCosts(bad, nil); err == nil {
		t.Error("builder error swallowed")
	}
}

func TestSavingsZeroWhenNoWork(t *testing.T) {
	var m CostModel
	if m.Savings() != 0 {
		t.Errorf("empty savings = %g", m.Savings())
	}
}

func TestModifyNaiveRecertifiesEverything(t *testing.T) {
	h := mustTree(t)
	c := NewCertifier(h)
	c.CertifyAll()
	base := c.FCMsRetested
	if err := c.ModifyNaive("f1"); err != nil {
		t.Fatal(err)
	}
	if got := c.FCMsRetested - base; got != 9 {
		t.Errorf("naive marginal retests = %d, want 9", got)
	}
}

func TestRegisterCheckValidation(t *testing.T) {
	h := mustTree(t)
	c := NewCertifier(h)
	if err := c.RegisterCheck("ghost", func() error { return nil }); err == nil {
		t.Error("unknown FCM accepted")
	}
	if err := c.RegisterCheck("f1", nil); err == nil {
		t.Error("nil check accepted")
	}
	if err := c.RegisterInterfaceCheck("f1", "ghost", func() error { return nil }); err == nil {
		t.Error("unknown interface member accepted")
	}
	if err := c.RegisterInterfaceCheck("f1", "f2", nil); err == nil {
		t.Error("nil interface check accepted")
	}
}

func TestModifyAndVerifyRunsRetestChecks(t *testing.T) {
	h := mustTree(t)
	c := NewCertifier(h)
	c.CertifyAll()
	ran := map[string]int{}
	mustReg := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	mustReg(c.RegisterCheck("f1", func() error { ran["f1"]++; return nil }))
	mustReg(c.RegisterCheck("taskA", func() error { ran["taskA"]++; return nil }))
	mustReg(c.RegisterCheck("f3", func() error { ran["f3"]++; return nil })) // different task: must NOT run
	mustReg(c.RegisterInterfaceCheck("f2", "f1", func() error { ran["iface"]++; return nil }))

	failures := c.ModifyAndVerify("f1")
	if len(failures) != 0 {
		t.Fatalf("failures: %v", failures)
	}
	if ran["f1"] != 1 || ran["taskA"] != 1 || ran["iface"] != 1 {
		t.Errorf("check runs = %v", ran)
	}
	if ran["f3"] != 0 {
		t.Error("out-of-scope check ran (R5 violated)")
	}
	if err := c.Status("f1"); err != nil {
		t.Errorf("f1 not certified after clean verify: %v", err)
	}
}

func TestModifyAndVerifyFailureLeavesStale(t *testing.T) {
	h := mustTree(t)
	c := NewCertifier(h)
	c.CertifyAll()
	boom := errors.New("acceptance test failed")
	if err := c.RegisterCheck("f1", func() error { return boom }); err != nil {
		t.Fatal(err)
	}
	failures := c.ModifyAndVerify("f1")
	if len(failures) != 1 || !errors.Is(failures[0], ErrCheckFailed) {
		t.Fatalf("failures = %v", failures)
	}
	if err := c.Status("f1"); !errors.Is(err, ErrStale) {
		t.Errorf("f1 status = %v, want ErrStale", err)
	}
}

func TestModifyAndVerifyUnknownFCM(t *testing.T) {
	h := mustTree(t)
	c := NewCertifier(h)
	if failures := c.ModifyAndVerify("ghost"); len(failures) != 1 {
		t.Errorf("failures = %v", failures)
	}
}
