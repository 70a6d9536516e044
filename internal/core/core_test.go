package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/attrs"
)

// buildFlight builds a small flight-control style hierarchy:
//
//	nav (process)
//	  guidance (task)
//	    kalman (procedure, stateless)
//	    waypoint (procedure, stateless)
//	  autopilot (task)
//	    pid (procedure, stateless)
//	display (process)
//	  render (task)
//	    blit (procedure, stateful)
func buildFlight(t *testing.T) *Hierarchy {
	t.Helper()
	h := NewHierarchy()
	steps := []func() error{
		func() error { _, err := h.AddProcess("nav", attrs.Timing(10, 2, 0, 20, 5)); return err },
		func() error { _, err := h.AddTask("nav", "guidance", attrs.Set{}); return err },
		func() error { _, err := h.AddProcedure("guidance", "kalman", attrs.Set{}, true); return err },
		func() error { _, err := h.AddProcedure("guidance", "waypoint", attrs.Set{}, true); return err },
		func() error { _, err := h.AddTask("nav", "autopilot", attrs.Set{}); return err },
		func() error { _, err := h.AddProcedure("autopilot", "pid", attrs.Set{}, true); return err },
		func() error { _, err := h.AddProcess("display", attrs.Timing(4, 1, 0, 30, 3)); return err },
		func() error { _, err := h.AddTask("display", "render", attrs.Set{}); return err },
		func() error { _, err := h.AddProcedure("render", "blit", attrs.Set{}, false); return err },
	}
	for i, s := range steps {
		if err := s(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if err := h.Validate(); err != nil {
		t.Fatalf("fixture invalid: %v", err)
	}
	return h
}

func TestHierarchyConstruction(t *testing.T) {
	h := buildFlight(t)
	if h.Len() != 9 {
		t.Errorf("Len = %d, want 9", h.Len())
	}
	nav, err := h.Lookup("nav")
	if err != nil {
		t.Fatal(err)
	}
	if nav.Level() != ProcessLevel {
		t.Errorf("nav level = %s", nav.Level())
	}
	kids := nav.Children()
	if len(kids) != 2 || kids[0].Name() != "autopilot" || kids[1].Name() != "guidance" {
		t.Errorf("nav children = %v", names(kids))
	}
	k, err := h.Lookup("kalman")
	if err != nil {
		t.Fatal(err)
	}
	if k.Parent().Name() != "guidance" || !k.Stateless() {
		t.Errorf("kalman parent=%s stateless=%v", k.Parent().Name(), k.Stateless())
	}
}

func names(fs []*FCM) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = f.Name()
	}
	return out
}

func TestDuplicateName(t *testing.T) {
	h := buildFlight(t)
	if _, err := h.AddProcess("nav", attrs.Set{}); !errors.Is(err, ErrDuplicateName) {
		t.Errorf("err = %v, want ErrDuplicateName", err)
	}
	// Task names are globally unique too ("tasks have unique static
	// names").
	if _, err := h.AddTask("display", "guidance", attrs.Set{}); !errors.Is(err, ErrDuplicateName) {
		t.Errorf("err = %v, want ErrDuplicateName", err)
	}
}

func TestRuleR1LevelMismatch(t *testing.T) {
	h := buildFlight(t)
	// Adding a task under a task violates R1.
	if _, err := h.AddTask("guidance", "subtask", attrs.Set{}); !errors.Is(err, ErrRuleR1) {
		t.Errorf("err = %v, want ErrRuleR1", err)
	}
	// Adding a procedure under a process violates R1.
	if _, err := h.AddProcedure("nav", "direct", attrs.Set{}, true); !errors.Is(err, ErrRuleR1) {
		t.Errorf("err = %v, want ErrRuleR1", err)
	}
}

func TestLookupUnknown(t *testing.T) {
	h := NewHierarchy()
	if _, err := h.Lookup("ghost"); !errors.Is(err, ErrUnknownFCM) {
		t.Errorf("err = %v, want ErrUnknownFCM", err)
	}
}

func TestGroupBottomUp(t *testing.T) {
	h := NewHierarchy()
	for _, n := range []string{"f1", "f2", "f3"} {
		if _, err := h.AddFree(n, ProcedureLevel, attrs.Set{}, true); err != nil {
			t.Fatal(err)
		}
	}
	task, err := h.Group("t1", []string{"f1", "f2", "f3"})
	if err != nil {
		t.Fatal(err)
	}
	if task.Level() != TaskLevel || len(task.Children()) != 3 {
		t.Errorf("group result: level=%s children=%d", task.Level(), len(task.Children()))
	}
	proc, err := h.Group("p1", []string{"t1"})
	if err != nil {
		t.Fatal(err)
	}
	if proc.Level() != ProcessLevel {
		t.Errorf("process level = %s", proc.Level())
	}
	if err := h.Validate(); err != nil {
		t.Error(err)
	}
}

func TestGroupAttributesCombine(t *testing.T) {
	h := NewHierarchy()
	if _, err := h.AddFree("a", TaskLevel, attrs.Timing(15, 3, 0, 20, 5), false); err != nil {
		t.Fatal(err)
	}
	if _, err := h.AddFree("b", TaskLevel, attrs.Timing(10, 2, 8, 16, 5), false); err != nil {
		t.Fatal(err)
	}
	p, err := h.Group("proc", []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	a := p.Attrs()
	if a.Value(attrs.Criticality) != 15 || a.Value(attrs.Deadline) != 16 || a.Value(attrs.ComputeTime) != 10 {
		t.Errorf("grouped attrs = %s", a)
	}
}

func TestGroupRejectsSecondParentR2(t *testing.T) {
	h := buildFlight(t)
	// kalman already belongs to guidance.
	if _, err := h.Group("t2", []string{"kalman"}); !errors.Is(err, ErrRuleR2) {
		t.Errorf("err = %v, want ErrRuleR2", err)
	}
}

func TestGroupRejectsMixedLevels(t *testing.T) {
	h := NewHierarchy()
	if _, err := h.AddFree("p", ProcedureLevel, attrs.Set{}, true); err != nil {
		t.Fatal(err)
	}
	if _, err := h.AddFree("t", TaskLevel, attrs.Set{}, false); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Group("x", []string{"p", "t"}); !errors.Is(err, ErrRuleR1) {
		t.Errorf("err = %v, want ErrRuleR1", err)
	}
}

func TestNewHierarchyDepthValidation(t *testing.T) {
	for _, levels := range []int{-1, 0, 1} {
		if _, err := NewHierarchyDepth(levels); !errors.Is(err, ErrLevel) {
			t.Errorf("NewHierarchyDepth(%d) err = %v, want ErrLevel", levels, err)
		}
	}
	h, err := NewHierarchyDepth(2)
	if err != nil {
		t.Fatal(err)
	}
	// Depth 2 has no process level: procedures group straight into tasks.
	if _, err := h.AddProcess("p", attrs.Set{}); !errors.Is(err, ErrLevel) {
		t.Errorf("AddProcess at depth 2: err = %v, want ErrLevel", err)
	}
}

// groupChain adds the named procedures as free FCMs, groups them into
// "l2", and then groups one level at a time up to the top of a hierarchy
// of the given depth. It returns the chain of FCM names from the first
// procedure up.
func groupChain(t *testing.T, h *Hierarchy, levels int, procs ...string) []string {
	t.Helper()
	for _, n := range procs {
		if _, err := h.AddFree(n, ProcedureLevel, attrs.Set{}, false); err != nil {
			t.Fatal(err)
		}
	}
	chain := []string{procs[0]}
	members := procs
	for l := 2; l <= levels; l++ {
		name := fmt.Sprintf("l%d", l)
		f, err := h.Group(name, members)
		if err != nil {
			t.Fatalf("Group to level %d: %v", l, err)
		}
		if f.Level() != Level(l) {
			t.Errorf("%s level = %d, want %d", name, f.Level(), l)
		}
		chain = append(chain, name)
		members = []string{name}
	}
	return chain
}

func TestGroupStopsAtTopLevelAnyDepth(t *testing.T) {
	for _, levels := range []int{2, 4} {
		h, err := NewHierarchyDepth(levels)
		if err != nil {
			t.Fatal(err)
		}
		chain := groupChain(t, h, levels, "l1")
		if _, err := h.Group("over", []string{chain[len(chain)-1]}); !errors.Is(err, ErrLevel) {
			t.Errorf("depth %d: grouping the top level: err = %v, want ErrLevel", levels, err)
		}
		if _, err := h.AddFree("high", Level(levels+1), attrs.Set{}, false); !errors.Is(err, ErrLevel) {
			t.Errorf("depth %d: AddFree above the top: err = %v, want ErrLevel", levels, err)
		}
		if err := h.Validate(); err != nil {
			t.Errorf("depth %d: %v", levels, err)
		}
	}
}

// TestRetestSetDepthIndependent: R5 localises a modification to the FCM,
// its parent and its sibling interfaces at any depth; a depth-4 leaf's
// grandparent is not retested.
func TestRetestSetDepthIndependent(t *testing.T) {
	h, err := NewHierarchyDepth(4)
	if err != nil {
		t.Fatal(err)
	}
	chain := groupChain(t, h, 4, "l1", "sib")
	fcms, ifaces, err := h.RetestSet(chain[0])
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(fcms, ","); got != "l1,l2" {
		t.Errorf("retest fcms = %s, want l1,l2 (grandparent l3 excluded)", got)
	}
	if got := strings.Join(ifaces, ","); got != "l1<->sib" {
		t.Errorf("retest interfaces = %s", got)
	}
}

func TestGroupRejectsProcessLevel(t *testing.T) {
	h := buildFlight(t)
	if _, err := h.Group("super", []string{"nav", "display"}); !errors.Is(err, ErrLevel) {
		t.Errorf("err = %v, want ErrLevel", err)
	}
}

func TestGroupEmptyAndUnknown(t *testing.T) {
	h := NewHierarchy()
	if _, err := h.Group("x", nil); err == nil {
		t.Error("empty group accepted")
	}
	if _, err := h.Group("x", []string{"ghost"}); !errors.Is(err, ErrUnknownFCM) {
		t.Errorf("err = %v", err)
	}
}

func TestMergeSiblings(t *testing.T) {
	h := buildFlight(t)
	merged, err := h.Merge("kw", []string{"kalman", "waypoint"})
	if err != nil {
		t.Fatal(err)
	}
	if merged.Level() != ProcedureLevel {
		t.Errorf("merged level = %s", merged.Level())
	}
	if merged.Parent().Name() != "guidance" {
		t.Errorf("merged parent = %s", merged.Parent().Name())
	}
	if _, err := h.Lookup("kalman"); !errors.Is(err, ErrUnknownFCM) {
		t.Error("kalman still present after merge")
	}
	from := merged.MergedFrom()
	if len(from) != 2 || from[0] != "kalman" || from[1] != "waypoint" {
		t.Errorf("MergedFrom = %v", from)
	}
	// R5: the parent is marked modified by the merge.
	g, err := h.Lookup("guidance")
	if err != nil {
		t.Fatal(err)
	}
	if !g.Modified() {
		t.Error("parent not marked modified after child merge")
	}
	if err := h.Validate(); err != nil {
		t.Error(err)
	}
}

func TestMergeTasksAdoptsChildren(t *testing.T) {
	h := buildFlight(t)
	merged, err := h.Merge("gct", []string{"guidance", "autopilot"})
	if err != nil {
		t.Fatal(err)
	}
	kids := names(merged.Children())
	want := []string{"kalman", "pid", "waypoint"}
	if strings.Join(kids, ",") != strings.Join(want, ",") {
		t.Errorf("merged children = %v, want %v", kids, want)
	}
	k, err := h.Lookup("kalman")
	if err != nil {
		t.Fatal(err)
	}
	if k.Parent().Name() != "gct" {
		t.Errorf("kalman parent = %s", k.Parent().Name())
	}
	if err := h.Validate(); err != nil {
		t.Error(err)
	}
}

func TestMergeRejectsNonSiblingsR3R4(t *testing.T) {
	h := buildFlight(t)
	// Different levels: R3.
	if _, err := h.Merge("x", []string{"guidance", "kalman"}); !errors.Is(err, ErrRuleR3) {
		t.Errorf("err = %v, want ErrRuleR3", err)
	}
	// Same level, different parents: R4 names the remedy.
	if _, err := h.Merge("x", []string{"guidance", "render"}); !errors.Is(err, ErrRuleR4) {
		t.Errorf("err = %v, want ErrRuleR4", err)
	}
}

func TestMergeRejectsStatefulProcedures(t *testing.T) {
	h := buildFlight(t)
	if _, err := h.AddProcedure("render", "shade", attrs.Set{}, true); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Merge("x", []string{"blit", "shade"}); !errors.Is(err, ErrNotStateless) {
		t.Errorf("err = %v, want ErrNotStateless", err)
	}
}

// snapshot renders every FCM with its parent, children and marks, so two
// snapshots are equal exactly when the hierarchy is unchanged.
func snapshot(h *Hierarchy) string {
	var b strings.Builder
	for _, f := range h.All() {
		fmt.Fprintf(&b, "%s %s parent=%s children=%v modified=%v\n",
			f.Name(), f.Level(), parentName(f), names(f.Children()), f.Modified())
	}
	return b.String()
}

func TestMergeNameCollisionRestores(t *testing.T) {
	h := buildFlight(t)
	before := snapshot(h)
	// "nav" is taken and is not a member: the merge must fail before it
	// detaches anything. An empty name fails the same way.
	for _, name := range []string{"nav", ""} {
		if _, err := h.Merge(name, []string{"kalman", "waypoint"}); err == nil {
			t.Errorf("Merge(%q) accepted", name)
		} else if name == "nav" && !errors.Is(err, ErrDuplicateName) {
			t.Errorf("err = %v, want ErrDuplicateName", err)
		}
		if after := snapshot(h); after != before {
			t.Errorf("hierarchy changed by failed Merge(%q):\n%s\nwant:\n%s", name, after, before)
		}
	}
	if err := h.Validate(); err != nil {
		t.Errorf("hierarchy invalid after failed merge: %v", err)
	}
	// A member's own name may be reused for the merged FCM.
	merged, err := h.Merge("kalman", []string{"kalman", "waypoint"})
	if err != nil {
		t.Fatal(err)
	}
	if merged.Parent().Name() != "guidance" || h.Len() != 8 {
		t.Errorf("merge into member name: parent=%s len=%d", merged.Parent().Name(), h.Len())
	}
}

func TestMergeTooFew(t *testing.T) {
	h := buildFlight(t)
	if _, err := h.Merge("x", []string{"kalman"}); err == nil {
		t.Error("single-member merge accepted")
	}
}

func TestMergeAcrossIntegratesParentsR4(t *testing.T) {
	h := buildFlight(t)
	// guidance (under nav) and render (under display) are children of
	// different parents; MergeAcross must merge nav+display first.
	merged, err := h.MergeAcross("navdisp", "gr", []string{"guidance", "render"})
	if err != nil {
		t.Fatal(err)
	}
	if merged.Parent().Name() != "navdisp" {
		t.Errorf("merged child parent = %s", merged.Parent().Name())
	}
	if _, err := h.Lookup("nav"); !errors.Is(err, ErrUnknownFCM) {
		t.Error("nav still exists after parent integration")
	}
	nd, err := h.Lookup("navdisp")
	if err != nil {
		t.Fatal(err)
	}
	if nd.Level() != ProcessLevel {
		t.Errorf("navdisp level = %s", nd.Level())
	}
	if err := h.Validate(); err != nil {
		t.Error(err)
	}
}

func TestMergeAcrossSameParentDegeneratesToMerge(t *testing.T) {
	h := buildFlight(t)
	merged, err := h.MergeAcross("unused", "kw", []string{"kalman", "waypoint"})
	if err != nil {
		t.Fatal(err)
	}
	if merged.Name() != "kw" {
		t.Errorf("merged name = %s", merged.Name())
	}
	if _, err := h.Lookup("unused"); !errors.Is(err, ErrUnknownFCM) {
		t.Error("unnecessary parent merge happened")
	}
}

func TestMergeAcrossRootless(t *testing.T) {
	h := NewHierarchy()
	if _, err := h.AddFree("a", TaskLevel, attrs.Set{}, false); err != nil {
		t.Fatal(err)
	}
	if _, err := h.AddFree("b", TaskLevel, attrs.Set{}, false); err != nil {
		t.Fatal(err)
	}
	if _, err := h.MergeAcross("p", "m", []string{"a", "b"}); !errors.Is(err, ErrRuleR4) {
		t.Errorf("err = %v, want ErrRuleR4", err)
	}
}

func TestCloneProcedure(t *testing.T) {
	h := buildFlight(t)
	clone, err := h.CloneProcedure("kalman", "render", "kalman#render")
	if err != nil {
		t.Fatal(err)
	}
	if clone.Parent().Name() != "render" || !clone.Stateless() {
		t.Errorf("clone parent=%s stateless=%v", clone.Parent().Name(), clone.Stateless())
	}
	// The original is untouched (R2: separate compilation per caller).
	orig, err := h.Lookup("kalman")
	if err != nil {
		t.Fatal(err)
	}
	if orig.Parent().Name() != "guidance" {
		t.Error("original moved by clone")
	}
	if err := h.Validate(); err != nil {
		t.Error(err)
	}
}

func TestCloneRejectsStateful(t *testing.T) {
	h := buildFlight(t)
	if _, err := h.CloneProcedure("blit", "guidance", "blit2"); !errors.Is(err, ErrNotStateless) {
		t.Errorf("err = %v, want ErrNotStateless", err)
	}
	if _, err := h.CloneProcedure("guidance", "render", "g2"); !errors.Is(err, ErrLevel) {
		t.Errorf("err = %v, want ErrLevel", err)
	}
}

func TestConvertProcessesToTasks(t *testing.T) {
	h := NewHierarchy()
	if _, err := h.AddProcess("sensorIO", attrs.Timing(8, 1, 0, 10, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := h.AddProcess("filter", attrs.Timing(9, 1, 0, 12, 3)); err != nil {
		t.Fatal(err)
	}
	np, err := h.ConvertProcessesToTasks("sensing", []string{"sensorIO", "filter"})
	if err != nil {
		t.Fatal(err)
	}
	if np.Level() != ProcessLevel {
		t.Errorf("new process level = %s", np.Level())
	}
	s, err := h.Lookup("sensorIO")
	if err != nil {
		t.Fatal(err)
	}
	if s.Level() != TaskLevel || s.Parent().Name() != "sensing" {
		t.Errorf("demoted: level=%s parent=%s", s.Level(), s.Parent().Name())
	}
	// Attributes combined: C = max(8,9) = 9, CT = 2+3 = 5.
	if np.Attrs().Value(attrs.Criticality) != 9 || np.Attrs().Value(attrs.ComputeTime) != 5 {
		t.Errorf("combined attrs = %s", np.Attrs())
	}
	if err := h.Validate(); err != nil {
		t.Error(err)
	}
}

func TestConvertRejectsProcessWithTasks(t *testing.T) {
	h := buildFlight(t)
	if _, err := h.ConvertProcessesToTasks("x", []string{"nav", "display"}); !errors.Is(err, ErrRuleR1) {
		t.Errorf("err = %v, want ErrRuleR1", err)
	}
}

func TestMarkModifiedPropagatesToParentOnly(t *testing.T) {
	h := buildFlight(t)
	if err := h.MarkModified("kalman"); err != nil {
		t.Fatal(err)
	}
	mods := h.ModifiedFCMs()
	want := "guidance,kalman"
	if strings.Join(mods, ",") != want {
		t.Errorf("modified = %v, want %s", mods, want)
	}
	// R5: grandparent nav is NOT in the retest set.
	nav, err := h.Lookup("nav")
	if err != nil {
		t.Fatal(err)
	}
	if nav.Modified() {
		t.Error("R5 violated: grandparent marked modified")
	}
	h.ClearModified()
	if len(h.ModifiedFCMs()) != 0 {
		t.Error("ClearModified left marks")
	}
}

func TestRetestSet(t *testing.T) {
	h := buildFlight(t)
	fcms, ifaces, err := h.RetestSet("kalman")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(fcms, ",") != "guidance,kalman" {
		t.Errorf("retest fcms = %v", fcms)
	}
	if len(ifaces) != 1 || ifaces[0] != "kalman<->waypoint" {
		t.Errorf("retest interfaces = %v", ifaces)
	}
	// Root FCM: no parent; siblings are other roots at the level.
	fcms, ifaces, err = h.RetestSet("nav")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(fcms, ",") != "nav" {
		t.Errorf("root retest fcms = %v", fcms)
	}
	if len(ifaces) != 1 || ifaces[0] != "display<->nav" {
		t.Errorf("root retest interfaces = %v", ifaces)
	}
	if _, _, err := h.RetestSet("ghost"); !errors.Is(err, ErrUnknownFCM) {
		t.Errorf("err = %v", err)
	}
}

func TestWalkDepthFirst(t *testing.T) {
	h := buildFlight(t)
	nav, err := h.Lookup("nav")
	if err != nil {
		t.Fatal(err)
	}
	var visited []string
	var depths []int
	Walk(nav, func(f *FCM, d int) {
		visited = append(visited, f.Name())
		depths = append(depths, d)
	})
	want := []string{"nav", "autopilot", "pid", "guidance", "kalman", "waypoint"}
	if strings.Join(visited, ",") != strings.Join(want, ",") {
		t.Errorf("walk order = %v, want %v", visited, want)
	}
	if depths[0] != 0 || depths[2] != 2 {
		t.Errorf("depths = %v", depths)
	}
}

func TestRootsFiltering(t *testing.T) {
	h := buildFlight(t)
	procs := h.Roots(ProcessLevel)
	if len(procs) != 2 || procs[0].Name() != "display" || procs[1].Name() != "nav" {
		t.Errorf("process roots = %v", names(procs))
	}
	if got := h.Roots(TaskLevel); len(got) != 0 {
		t.Errorf("task roots = %v, want none", names(got))
	}
	all := h.Roots(0)
	if len(all) != 2 {
		t.Errorf("all roots = %v", names(all))
	}
}

func TestAddFreeStatelessOnlyProcedures(t *testing.T) {
	h := NewHierarchy()
	if _, err := h.AddFree("t", TaskLevel, attrs.Set{}, true); !errors.Is(err, ErrLevel) {
		t.Errorf("err = %v, want ErrLevel", err)
	}
	if _, err := h.AddFree("", TaskLevel, attrs.Set{}, false); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := h.AddFree("x", Level(42), attrs.Set{}, false); !errors.Is(err, ErrLevel) {
		t.Errorf("err = %v, want ErrLevel", err)
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	h := buildFlight(t)
	k, err := h.Lookup("kalman")
	if err != nil {
		t.Fatal(err)
	}
	// Simulate corruption: stateless flag on a task.
	g, err := h.Lookup("guidance")
	if err != nil {
		t.Fatal(err)
	}
	g.stateless = true
	if err := h.Validate(); err == nil {
		t.Error("Validate missed stateless task")
	}
	g.stateless = false
	_ = k
	// Level corruption on a stateful procedure.
	b, err := h.Lookup("blit")
	if err != nil {
		t.Fatal(err)
	}
	b.level = TaskLevel
	if err := h.Validate(); !errors.Is(err, ErrRuleR1) {
		t.Errorf("Validate err = %v, want ErrRuleR1", err)
	}
}

func TestRollUpRecomputesParents(t *testing.T) {
	h := NewHierarchy()
	if _, err := h.AddProcess("p", attrs.Set{}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.AddTask("p", "t", attrs.Set{}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.AddProcedure("t", "f1", attrs.Timing(5, 1, 0, 30, 4), true); err != nil {
		t.Fatal(err)
	}
	if _, err := h.AddProcedure("t", "f2", attrs.Timing(9, 1, 0, 20, 3), true); err != nil {
		t.Fatal(err)
	}
	h.RollUp()
	tt, err := h.Lookup("t")
	if err != nil {
		t.Fatal(err)
	}
	if tt.Attrs().Value(attrs.Criticality) != 9 || tt.Attrs().Value(attrs.ComputeTime) != 7 ||
		tt.Attrs().Value(attrs.Deadline) != 20 {
		t.Errorf("task attrs = %s", tt.Attrs())
	}
	p, err := h.Lookup("p")
	if err != nil {
		t.Fatal(err)
	}
	if p.Attrs().Value(attrs.Criticality) != 9 {
		t.Errorf("process attrs = %s", p.Attrs())
	}
	// A child modification re-rolls.
	f1, err := h.Lookup("f1")
	if err != nil {
		t.Fatal(err)
	}
	f1.SetAttrs(attrs.Timing(20, 1, 0, 30, 4))
	h.RollUp()
	p, err = h.Lookup("p")
	if err != nil {
		t.Fatal(err)
	}
	if p.Attrs().Value(attrs.Criticality) != 20 {
		t.Errorf("process attrs after child change = %s", p.Attrs())
	}
}
