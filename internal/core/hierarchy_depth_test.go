// Package core_test checks rules R1–R5 on a hierarchy deeper than the
// paper's three levels, through core.Hierarchy's exported API only. The
// depth-4 tree is the object-oriented scheme: procedure → object → task →
// process (levels 1–4).
package core_test

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/attrs"
	"repro/internal/core"
)

func newDepth(t *testing.T, levels int) *core.Hierarchy {
	t.Helper()
	h, err := core.NewHierarchyDepth(levels)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func addFree(t *testing.T, h *core.Hierarchy, level core.Level, names ...string) {
	t.Helper()
	for _, n := range names {
		if _, err := h.AddFree(n, level, attrs.Set{}, false); err != nil {
			t.Fatalf("AddFree(%s): %v", n, err)
		}
	}
}

func group(t *testing.T, h *core.Hierarchy, parent string, members ...string) {
	t.Helper()
	if _, err := h.Group(parent, members); err != nil {
		t.Fatalf("Group(%s, %v): %v", parent, members, err)
	}
}

// buildOO builds P0 > T0 > {O0 > {f0, f1}, O1 > {f2}} bottom-up.
func buildOO(t *testing.T) *core.Hierarchy {
	t.Helper()
	h := newDepth(t, 4)
	addFree(t, h, core.ProcedureLevel, "f0", "f1", "f2")
	group(t, h, "O0", "f0", "f1")
	group(t, h, "O1", "f2")
	group(t, h, "T0", "O0", "O1")
	group(t, h, "P0", "T0")
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	return h
}

func lookup(t *testing.T, h *core.Hierarchy, name string) *core.FCM {
	t.Helper()
	f, err := h.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func names(fs []*core.FCM) string {
	var out []string
	for _, f := range fs {
		out = append(out, f.Name())
	}
	return strings.Join(out, ",")
}

func TestOOSchemeTree(t *testing.T) {
	h := buildOO(t)
	if h.Len() != 7 {
		t.Errorf("len = %d", h.Len())
	}
	o0 := lookup(t, h, "O0")
	if o0.Level() != 2 || o0.Parent().Name() != "T0" {
		t.Errorf("O0: level=%d parent=%s", o0.Level(), o0.Parent().Name())
	}
	if got := names(o0.Children()); got != "f0,f1" {
		t.Errorf("O0 children: %s", got)
	}
	if got := names(h.Roots(0)); got != "P0" {
		t.Errorf("roots: %s, want P0", got)
	}
	if p0 := lookup(t, h, "P0"); p0.Level() != 4 {
		t.Errorf("P0 level = %d, want 4", p0.Level())
	}
}

func TestAddRuleViolations(t *testing.T) {
	h := buildOO(t)
	// Members of different levels cannot share a parent: R1.
	addFree(t, h, core.ProcedureLevel, "fx")
	addFree(t, h, 2, "ox")
	if _, err := h.Group("x", []string{"fx", "ox"}); !errors.Is(err, core.ErrRuleR1) {
		t.Errorf("mixed-level group err = %v", err)
	}
	// A procedure directly under a level-3 FCM skips a level: R1.
	if _, err := h.AddProcedure("T0", "fy", attrs.Set{}, false); !errors.Is(err, core.ErrRuleR1) {
		t.Errorf("procedure under level 3 err = %v", err)
	}
	// Nothing sits above the top level, and there is no level 0.
	if _, err := h.Group("over", []string{"P0"}); !errors.Is(err, core.ErrLevel) {
		t.Errorf("group above top err = %v", err)
	}
	for _, l := range []core.Level{0, 5} {
		if _, err := h.AddFree("fz", l, attrs.Set{}, false); !errors.Is(err, core.ErrLevel) {
			t.Errorf("AddFree at level %d err = %v", l, err)
		}
	}
	// Duplicates and unknowns.
	if _, err := h.AddFree("f0", core.ProcedureLevel, attrs.Set{}, false); !errors.Is(err, core.ErrDuplicateName) {
		t.Errorf("duplicate FCM err = %v", err)
	}
	if _, err := h.Group("T0", []string{"fx"}); !errors.Is(err, core.ErrDuplicateName) {
		t.Errorf("duplicate parent err = %v", err)
	}
	if _, err := h.Group("x", []string{"nope"}); !errors.Is(err, core.ErrUnknownFCM) {
		t.Errorf("unknown member err = %v", err)
	}
	if _, err := h.AddFree("", core.ProcedureLevel, attrs.Set{}, false); err == nil {
		t.Error("empty name accepted")
	}
	if err := h.Validate(); err != nil {
		t.Errorf("hierarchy invalid after rejected operations: %v", err)
	}
}

// TestReparentAlwaysRejected: no operation gives an FCM a second parent
// (R2). Grouping a child again fails, and so does demoting a process that
// already sits under a higher level.
func TestReparentAlwaysRejected(t *testing.T) {
	h := buildOO(t)
	if _, err := h.Group("O2", []string{"f0"}); !errors.Is(err, core.ErrRuleR2) {
		t.Errorf("regroup err = %v", err)
	}
	if _, err := h.Group("O2", []string{"ghost"}); !errors.Is(err, core.ErrUnknownFCM) {
		t.Errorf("unknown member err = %v", err)
	}
	if got := lookup(t, h, "f0").Parent().Name(); got != "O0" {
		t.Errorf("f0 parent = %s after rejected regroup", got)
	}
	// Level 3 is core.ProcessLevel; at depth 4 it has a parent above it.
	addFree(t, h, core.ProcessLevel, "T1", "T2")
	group(t, h, "P1", "T1", "T2")
	if _, err := h.ConvertProcessesToTasks("Pn", []string{"T1", "T2"}); !errors.Is(err, core.ErrRuleR2) {
		t.Errorf("convert non-root processes err = %v", err)
	}
	if err := h.Validate(); err != nil {
		t.Errorf("hierarchy invalid after rejected conversion: %v", err)
	}
}

func TestMergeSiblingsGeneralised(t *testing.T) {
	h := buildOO(t)
	merged, err := h.Merge("O01", []string{"O0", "O1"})
	if err != nil {
		t.Fatal(err)
	}
	if got := names(merged.Children()); got != "f0,f1,f2" {
		t.Errorf("merged children = %s", got)
	}
	if !lookup(t, h, "T0").Modified() {
		t.Error("parent not marked modified (R5)")
	}
	if err := h.Validate(); err != nil {
		t.Error(err)
	}
	h2 := buildOO(t)
	// Different levels: R3. Different parents: R4, which names the remedy.
	if _, err := h2.Merge("x", []string{"f0", "O1"}); !errors.Is(err, core.ErrRuleR3) {
		t.Errorf("cross-level merge err = %v", err)
	}
	if _, err := h2.Merge("x", []string{"f0", "f2"}); !errors.Is(err, core.ErrRuleR4) {
		t.Errorf("cross-parent merge err = %v", err)
	}
	if _, err := h2.Merge("x", []string{"O0"}); err == nil {
		t.Error("single-member merge accepted")
	}
	if _, err := h2.Merge("T0", []string{"O0", "O1"}); !errors.Is(err, core.ErrDuplicateName) {
		t.Errorf("taken merged name err = %v", err)
	}
}

// uniform groups the product of branching free leaf procedures
// branching[0] at a time into the level above, and so on upwards. It
// returns the leaf names.
func uniform(h *core.Hierarchy, branching []int) ([]string, error) {
	n := 1
	for _, k := range branching {
		n *= k
	}
	level := make([]string, n)
	for i := range level {
		level[i] = fmt.Sprintf("L1.%d", i)
		if _, err := h.AddFree(level[i], core.ProcedureLevel, attrs.Set{}, false); err != nil {
			return nil, err
		}
	}
	leaves := level
	for l, k := range branching {
		var parents []string
		for i := 0; i < len(level); i += k {
			name := fmt.Sprintf("L%d.%d", l+2, i/k)
			if _, err := h.Group(name, level[i:i+k]); err != nil {
				return nil, err
			}
			parents = append(parents, name)
		}
		level = parents
	}
	return leaves, nil
}

func TestBuildUniformShapes(t *testing.T) {
	for _, tc := range []struct {
		branching []int
		fcms      int
	}{
		{[]int{4, 4}, 1 + 4 + 16},        // 3 levels: 4 tasks x 4 procedures
		{[]int{4, 2, 2}, 1 + 2 + 4 + 16}, // 4 levels: 2 tasks x 2 objects x 4 procedures
	} {
		h := newDepth(t, len(tc.branching)+1)
		leaves, err := uniform(h, tc.branching)
		if err != nil {
			t.Fatal(err)
		}
		if len(leaves) != 16 {
			t.Errorf("%v: leaves = %d, want 16", tc.branching, len(leaves))
		}
		if h.Len() != tc.fcms {
			t.Errorf("%v: FCMs = %d, want %d", tc.branching, h.Len(), tc.fcms)
		}
		if err := h.Validate(); err != nil {
			t.Error(err)
		}
	}
	// More groupings than the depth allows runs into the top level.
	if _, err := uniform(newDepth(t, 3), []int{4, 2, 2}); !errors.Is(err, core.ErrLevel) {
		t.Errorf("too-deep branching err = %v", err)
	}
}

func TestValidateDetectsCorruptionDepth4(t *testing.T) {
	h := buildOO(t)
	// Overwrite f0's level behind the API, as a stray write would.
	v := reflect.ValueOf(lookup(t, h, "f0")).Elem().FieldByName("level")
	reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem().SetInt(3)
	if err := h.Validate(); !errors.Is(err, core.ErrRuleR1) {
		t.Errorf("err = %v", err)
	}
}
