// Package core implements the fault-containment-module (FCM) hierarchy and
// the rules of composition that are the primary contribution of the
// dependability-driven integration framework (ICDCS 1998 §3–§4).
//
// Software is partitioned into a three-level hierarchy of FCMs —
// procedures, tasks and processes (Fig. 1) — and composed under five rules:
//
//	R1  Any number of FCMs at one level can be integrated to form an FCM at
//	    the next higher level (the layered integration DAG).
//	R2  The integration DAG is a tree. Function reuse across FCMs requires
//	    separate compilation (cloning) of the shared function per caller.
//	R3  Future integration by merging: an FCM can be merged only with its
//	    siblings.
//	R4  If children of different parents are integrated, their parents must
//	    be integrated.
//	R5  Whenever an FCM is modified, its parent FCM — and only its parent —
//	    also needs to be tested, including the interfaces with its siblings.
//
// Two composition modes exist: merging (boundaries between constituents
// disappear) and grouping (constituents keep their mutual interfaces inside
// a new parent). Merging is primarily horizontal; grouping is usually
// vertical.
package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/attrs"
	"repro/internal/influence"
)

// Level aliases the FCM hierarchy level shared with the influence metrics.
type Level = influence.Level

// Hierarchy levels re-exported for callers of this package.
const (
	ProcedureLevel = influence.ProcedureLevel
	TaskLevel      = influence.TaskLevel
	ProcessLevel   = influence.ProcessLevel
)

// Rule-violation and structural errors.
var (
	// ErrRuleR1 marks a parent/child level mismatch: a child must sit
	// exactly one level below its parent.
	ErrRuleR1 = errors.New("core: R1 violation: child must be exactly one level below parent")
	// ErrRuleR2 marks an attempt to give an FCM two parents (the
	// integration DAG must be a tree). Clone the module instead.
	ErrRuleR2 = errors.New("core: R2 violation: FCM already has a parent (integration DAG must be a tree; clone instead)")
	// ErrRuleR3 marks an attempt to merge non-siblings.
	ErrRuleR3 = errors.New("core: R3 violation: FCMs can only be merged with siblings")
	// ErrRuleR4 marks an attempt to integrate children of different
	// parents without integrating the parents.
	ErrRuleR4 = errors.New("core: R4 violation: integrating children of different parents requires integrating the parents")
	// ErrDuplicateName marks a name collision; task names are unique and
	// static ("only one instance of a given task can be live at any time").
	ErrDuplicateName = errors.New("core: duplicate FCM name")
	// ErrUnknownFCM marks a lookup of a name not in the hierarchy.
	ErrUnknownFCM = errors.New("core: unknown FCM")
	// ErrNotStateless marks an attempt to clone a procedure with state;
	// only stateless procedures "may be freely replicated" (§2).
	ErrNotStateless = errors.New("core: only stateless procedures may be cloned")
	// ErrLevel marks an operation applied at the wrong hierarchy level.
	ErrLevel = errors.New("core: operation not defined at this FCM level")
)

// FCM is one fault containment module in the hierarchy.
type FCM struct {
	name      string
	level     Level
	attrs     attrs.Set
	parent    *FCM
	children  map[string]*FCM
	stateless bool // meaningful at procedure level only
	modified  bool
	// mergedFrom records the names merged into this FCM, for audit trails.
	mergedFrom []string
}

// Name returns the FCM's unique name.
func (f *FCM) Name() string { return f.name }

// Level returns the FCM's hierarchy level.
func (f *FCM) Level() Level { return f.level }

// Attrs returns the FCM's attribute set.
func (f *FCM) Attrs() attrs.Set { return f.attrs }

// SetAttrs replaces the FCM's attribute set.
func (f *FCM) SetAttrs(a attrs.Set) { f.attrs = a }

// Parent returns the FCM's parent, or nil for a root.
func (f *FCM) Parent() *FCM { return f.parent }

// Stateless reports whether the FCM is a stateless procedure.
func (f *FCM) Stateless() bool { return f.stateless }

// Modified reports whether the FCM has been marked modified since the last
// certification.
func (f *FCM) Modified() bool { return f.modified }

// MergedFrom lists the names of FCMs previously merged into this one.
func (f *FCM) MergedFrom() []string {
	return append([]string(nil), f.mergedFrom...)
}

// Children returns the FCM's children sorted by name.
func (f *FCM) Children() []*FCM {
	out := make([]*FCM, 0, len(f.children))
	for _, c := range f.children {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Siblings returns the FCM's siblings (same parent, excluding itself),
// sorted by name. A root FCM's siblings are the other roots at its level.
func (f *FCM) Siblings(h *Hierarchy) []*FCM {
	var pool []*FCM
	if f.parent != nil {
		pool = f.parent.Children()
	} else if h != nil {
		pool = h.Roots(f.level)
	}
	out := make([]*FCM, 0, len(pool))
	for _, s := range pool {
		if s != f {
			out = append(out, s)
		}
	}
	return out
}

// Hierarchy is a forest of FCM trees with a global unique-name index.
// The zero value is not usable; call NewHierarchy or NewHierarchyDepth.
type Hierarchy struct {
	index map[string]*FCM
	top   Level // highest level an FCM may occupy
}

// NewHierarchy returns an empty hierarchy over the paper's three levels,
// procedure → task → process.
func NewHierarchy() *Hierarchy {
	return &Hierarchy{index: make(map[string]*FCM), top: ProcessLevel}
}

// NewHierarchyDepth returns an empty hierarchy with the given number of
// levels, ProcedureLevel at the bottom. The paper fixes three levels but
// notes that "it is possible to add/delete levels … as desired" (§3); R1–R5
// hold unchanged at any depth, and Group stops at the top level.
func NewHierarchyDepth(levels int) (*Hierarchy, error) {
	if levels < 2 {
		return nil, fmt.Errorf("%w: a hierarchy needs at least two levels, got %d", ErrLevel, levels)
	}
	h := NewHierarchy()
	h.top = Level(levels)
	return h, nil
}

// Lookup returns the FCM with the given name.
func (h *Hierarchy) Lookup(name string) (*FCM, error) {
	f, ok := h.index[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownFCM, name)
	}
	return f, nil
}

// Len returns the number of FCMs in the hierarchy.
func (h *Hierarchy) Len() int { return len(h.index) }

// Roots returns the parentless FCMs at the given level, sorted by name.
// Pass 0 for roots at every level.
func (h *Hierarchy) Roots(level Level) []*FCM {
	var out []*FCM
	for _, f := range h.index {
		if f.parent == nil && (level == 0 || f.level == level) {
			out = append(out, f)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// All returns every FCM, sorted by name.
func (h *Hierarchy) All() []*FCM {
	out := make([]*FCM, 0, len(h.index))
	for _, f := range h.index {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

func (h *Hierarchy) newFCM(name string, level Level, a attrs.Set, stateless bool) (*FCM, error) {
	if name == "" {
		return nil, fmt.Errorf("%w: empty name", ErrUnknownFCM)
	}
	if level < ProcedureLevel || level > h.top {
		return nil, fmt.Errorf("%w: level %d", ErrLevel, int(level))
	}
	if _, ok := h.index[name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateName, name)
	}
	f := &FCM{
		name:      name,
		level:     level,
		attrs:     a,
		children:  make(map[string]*FCM),
		stateless: stateless,
	}
	h.index[name] = f
	return f, nil
}

// AddProcess creates a top-level process FCM.
func (h *Hierarchy) AddProcess(name string, a attrs.Set) (*FCM, error) {
	return h.newFCM(name, ProcessLevel, a, false)
}

// AddTask creates a task FCM inside the named process.
func (h *Hierarchy) AddTask(process, name string, a attrs.Set) (*FCM, error) {
	p, err := h.Lookup(process)
	if err != nil {
		return nil, err
	}
	if p.level != ProcessLevel {
		return nil, fmt.Errorf("%w: %q is a %s, not a process", ErrRuleR1, process, p.level)
	}
	t, err := h.newFCM(name, TaskLevel, a, false)
	if err != nil {
		return nil, err
	}
	t.parent = p
	p.children[name] = t
	return t, nil
}

// AddProcedure creates a procedure FCM inside the named task. Stateless
// procedures (no static variables, results independent of invocation
// order) may later be cloned per R2's reuse rule.
func (h *Hierarchy) AddProcedure(task, name string, a attrs.Set, stateless bool) (*FCM, error) {
	t, err := h.Lookup(task)
	if err != nil {
		return nil, err
	}
	if t.level != TaskLevel {
		return nil, fmt.Errorf("%w: %q is a %s, not a task", ErrRuleR1, task, t.level)
	}
	p, err := h.newFCM(name, ProcedureLevel, a, stateless)
	if err != nil {
		return nil, err
	}
	p.parent = t
	t.children[name] = p
	return p, nil
}

// AddFree creates a parentless FCM at an arbitrary level, for bottom-up
// construction with Group.
func (h *Hierarchy) AddFree(name string, level Level, a attrs.Set, stateless bool) (*FCM, error) {
	if stateless && level != ProcedureLevel {
		return nil, fmt.Errorf("%w: statelessness applies to procedures", ErrLevel)
	}
	return h.newFCM(name, level, a, stateless)
}

// Group performs vertical integration (R1): it creates a new FCM named
// parentName at the level above the members and attaches every member as a
// child. Members must all be parentless (R2: no FCM may acquire a second
// parent) and at the same level. The parent's attributes are the standard
// combination of the members' attributes.
func (h *Hierarchy) Group(parentName string, memberNames []string) (*FCM, error) {
	if len(memberNames) == 0 {
		return nil, fmt.Errorf("%w: grouping needs at least one member", ErrUnknownFCM)
	}
	members := make([]*FCM, 0, len(memberNames))
	for _, n := range memberNames {
		m, err := h.Lookup(n)
		if err != nil {
			return nil, err
		}
		members = append(members, m)
	}
	lvl := members[0].level
	for _, m := range members {
		if m.level != lvl {
			return nil, fmt.Errorf("%w: %q is %s, %q is %s",
				ErrRuleR1, members[0].name, lvl, m.name, m.level)
		}
		if m.parent != nil {
			return nil, fmt.Errorf("%w: %q is already a child of %q",
				ErrRuleR2, m.name, m.parent.name)
		}
	}
	if lvl == h.top {
		return nil, fmt.Errorf("%w: %s is the top level", ErrLevel, lvl)
	}
	sets := make([]attrs.Set, 0, len(members))
	for _, m := range members {
		sets = append(sets, m.attrs)
	}
	parent, err := h.newFCM(parentName, lvl+1, attrs.CombineAll(sets...), false)
	if err != nil {
		return nil, err
	}
	for _, m := range members {
		m.parent = parent
		parent.children[m.name] = m
	}
	return parent, nil
}

// Merge performs horizontal integration by merging (R3): the named sibling
// FCMs collapse into a single FCM whose boundaries subsume them all. The
// result keeps mergedName, takes the combined attributes, and adopts the
// union of children. Non-siblings are rejected with ErrRuleR3 (or ErrRuleR4
// when they are children of different parents, pointing at the remedy).
func (h *Hierarchy) Merge(mergedName string, memberNames []string) (*FCM, error) {
	if len(memberNames) < 2 {
		return nil, fmt.Errorf("%w: merging needs at least two members", ErrUnknownFCM)
	}
	members := make([]*FCM, 0, len(memberNames))
	for _, n := range memberNames {
		m, err := h.Lookup(n)
		if err != nil {
			return nil, err
		}
		members = append(members, m)
	}
	first := members[0]
	for _, m := range members[1:] {
		if m.level != first.level {
			return nil, fmt.Errorf("%w: %q (%s) and %q (%s) are at different levels",
				ErrRuleR3, first.name, first.level, m.name, m.level)
		}
		if m.parent != first.parent {
			// Children of different parents: R4 names the remedy.
			return nil, fmt.Errorf("%w: %q (parent %s) and %q (parent %s)",
				ErrRuleR4, first.name, parentName(first), m.name, parentName(m))
		}
	}
	// Stateful procedures cannot be merged blindly with others; the merged
	// module would break the "results independent of invocation order"
	// model. The paper merges only when "two FCMs have common
	// functionality"; we require procedure merges to be stateless.
	if first.level == ProcedureLevel {
		for _, m := range members {
			if !m.stateless {
				return nil, fmt.Errorf("%w: %q", ErrNotStateless, m.name)
			}
		}
	}

	// The merged name is checked before anything is detached, so a failed
	// merge leaves the hierarchy untouched. It may reuse a member's name.
	if mergedName == "" {
		return nil, fmt.Errorf("%w: empty name", ErrUnknownFCM)
	}
	if m, ok := h.index[mergedName]; ok && !slices.Contains(members, m) {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateName, mergedName)
	}

	sets := make([]attrs.Set, 0, len(members))
	var mergedFrom []string
	for _, m := range members {
		sets = append(sets, m.attrs)
		mergedFrom = append(mergedFrom, m.name)
		mergedFrom = append(mergedFrom, m.mergedFrom...)
	}
	sort.Strings(mergedFrom)

	parent := first.parent
	merged := &FCM{
		name:       mergedName,
		level:      first.level,
		attrs:      attrs.CombineAll(sets...),
		parent:     parent,
		children:   make(map[string]*FCM),
		stateless:  first.level == ProcedureLevel,
		modified:   true,
		mergedFrom: mergedFrom,
	}
	// Detach and delete members; the merged FCM adopts their children.
	for _, m := range members {
		for cn, c := range m.children {
			merged.children[cn] = c
			c.parent = merged
		}
		if m.parent != nil {
			delete(m.parent.children, m.name)
		}
		delete(h.index, m.name)
	}
	h.index[mergedName] = merged
	if parent != nil {
		parent.children[mergedName] = merged
		// R5: the parent of a modified (here: merged) FCM must be retested.
		parent.modified = true
	}
	return merged, nil
}

func parentName(f *FCM) string {
	if f.parent == nil {
		return "<root>"
	}
	return f.parent.name
}

// MergeAcross integrates children of different parents by first merging
// the parents (R4) and then merging the children. parentMergedName and
// childMergedName name the two resulting FCMs.
func (h *Hierarchy) MergeAcross(parentMergedName, childMergedName string, childNames []string) (*FCM, error) {
	if len(childNames) < 2 {
		return nil, fmt.Errorf("%w: merging needs at least two members", ErrUnknownFCM)
	}
	parents := make([]string, 0, 2)
	seen := map[string]bool{}
	for _, n := range childNames {
		c, err := h.Lookup(n)
		if err != nil {
			return nil, err
		}
		if c.parent == nil {
			return nil, fmt.Errorf("%w: %q has no parent to integrate", ErrRuleR4, n)
		}
		if !seen[c.parent.name] {
			seen[c.parent.name] = true
			parents = append(parents, c.parent.name)
		}
	}
	if len(parents) > 1 {
		if _, err := h.Merge(parentMergedName, parents); err != nil {
			return nil, err
		}
	}
	return h.Merge(childMergedName, childNames)
}

// CloneProcedure implements R2's reuse rule: "the function must be
// separately compiled with each FCM caller … a source-to-source
// transformation can readily clone the relevant (stateless) procedures."
// It copies the named stateless procedure into the target task under
// cloneName and returns the clone.
func (h *Hierarchy) CloneProcedure(procName, targetTask, cloneName string) (*FCM, error) {
	p, err := h.Lookup(procName)
	if err != nil {
		return nil, err
	}
	if p.level != ProcedureLevel {
		return nil, fmt.Errorf("%w: %q is a %s", ErrLevel, procName, p.level)
	}
	if !p.stateless {
		return nil, fmt.Errorf("%w: %q", ErrNotStateless, procName)
	}
	return h.AddProcedure(targetTask, cloneName, p.attrs.Clone(), true)
}

// ConvertProcessesToTasks implements §3.2's communication rule: "If two
// process level FCMs need to communicate, they are converted into two (or
// more) task level FCMs within the same process." The two processes are
// demoted to tasks inside a freshly created process. The demoted processes
// must currently be leaves or contain only procedure children is NOT
// required by the paper; their task children are flattened into the new
// process alongside them would break R1, so instead each former process
// must have only procedure children (or none).
func (h *Hierarchy) ConvertProcessesToTasks(newProcess string, processNames []string) (*FCM, error) {
	if len(processNames) < 2 {
		return nil, fmt.Errorf("%w: conversion needs at least two processes", ErrUnknownFCM)
	}
	procs := make([]*FCM, 0, len(processNames))
	for _, n := range processNames {
		p, err := h.Lookup(n)
		if err != nil {
			return nil, err
		}
		if p.level != ProcessLevel {
			return nil, fmt.Errorf("%w: %q is a %s, not a process", ErrLevel, n, p.level)
		}
		// Below a deeper hierarchy's top a process may already have a
		// parent; moving it under the new process would give it a second.
		if p.parent != nil {
			return nil, fmt.Errorf("%w: %q is already a child of %q", ErrRuleR2, n, p.parent.name)
		}
		for _, c := range p.children {
			if c.level != ProcedureLevel {
				return nil, fmt.Errorf("%w: %q still contains task %q; merge or flatten first",
					ErrRuleR1, n, c.name)
			}
		}
		procs = append(procs, p)
	}
	sets := make([]attrs.Set, 0, len(procs))
	for _, p := range procs {
		sets = append(sets, p.attrs)
	}
	np, err := h.newFCM(newProcess, ProcessLevel, attrs.CombineAll(sets...), false)
	if err != nil {
		return nil, err
	}
	for _, p := range procs {
		p.level = TaskLevel
		p.parent = np
		np.children[p.name] = p
	}
	return np, nil
}

// MarkModified records a modification to the named FCM and, per R5,
// propagates the retest obligation to its parent (and only its parent).
func (h *Hierarchy) MarkModified(name string) error {
	f, err := h.Lookup(name)
	if err != nil {
		return err
	}
	f.modified = true
	if f.parent != nil {
		f.parent.modified = true
	}
	return nil
}

// RetestSet returns, per R5, the FCMs that need (re)testing after the
// named FCM was modified: the FCM itself, its parent, and — because the
// parent's test "includ[es] the interfaces with its siblings" — the
// interfaces to each sibling. Interfaces are reported as "a<->b" strings;
// FCMs as names. The grandparent is NOT in the set: that is the point of
// the rule.
func (h *Hierarchy) RetestSet(name string) (fcms []string, interfaces []string, err error) {
	f, err := h.Lookup(name)
	if err != nil {
		return nil, nil, err
	}
	fcms = []string{f.name}
	if f.parent != nil {
		fcms = append(fcms, f.parent.name)
	}
	for _, s := range f.Siblings(h) {
		a, b := f.name, s.name
		if b < a {
			a, b = b, a
		}
		interfaces = append(interfaces, a+"<->"+b)
	}
	sort.Strings(fcms)
	sort.Strings(interfaces)
	return fcms, interfaces, nil
}

// ClearModified resets all modification marks (e.g. after a certification
// pass).
func (h *Hierarchy) ClearModified() {
	for _, f := range h.index {
		f.modified = false
	}
}

// ModifiedFCMs returns the names of all FCMs currently marked modified,
// sorted.
func (h *Hierarchy) ModifiedFCMs() []string {
	var out []string
	for _, f := range h.index {
		if f.modified {
			out = append(out, f.name)
		}
	}
	sort.Strings(out)
	return out
}

// Validate checks the structural invariants of the whole hierarchy:
// R1 (levels step by one), R2 (tree: each FCM reachable from exactly one
// root path, parent/child links consistent), unique names (guaranteed by
// the index), and stateless marks only on procedures.
func (h *Hierarchy) Validate() error {
	for name, f := range h.index {
		if f.name != name {
			return fmt.Errorf("core: index corruption: %q vs %q", name, f.name)
		}
		if f.stateless && f.level != ProcedureLevel {
			return fmt.Errorf("%w: %q is stateless but a %s", ErrLevel, name, f.level)
		}
		if f.parent != nil {
			if f.parent.level != f.level+1 {
				return fmt.Errorf("%w: %q (%s) under %q (%s)",
					ErrRuleR1, f.name, f.level, f.parent.name, f.parent.level)
			}
			if got, ok := f.parent.children[f.name]; !ok || got != f {
				return fmt.Errorf("%w: %q not registered under parent %q",
					ErrRuleR2, f.name, f.parent.name)
			}
		}
		for cn, c := range f.children {
			if c.parent != f {
				return fmt.Errorf("%w: child %q of %q has parent %q",
					ErrRuleR2, cn, f.name, parentName(c))
			}
		}
	}
	return nil
}

// RollUp recomputes every non-leaf FCM's attributes bottom-up from its
// children, per §4.3's combination rules ("When SW FCMs are integrated,
// their associated attributes also need to be combined") — used after
// child attributes change, so parents always carry the most stringent /
// aggregate values. An FCM with no children keeps its own attributes; a
// parent's own attributes are replaced by the combination of its
// children's (the paper's model: a composite FCM is exactly its parts).
func (h *Hierarchy) RollUp() {
	var rec func(f *FCM) attrs.Set
	rec = func(f *FCM) attrs.Set {
		children := f.Children()
		if len(children) == 0 {
			return f.attrs
		}
		sets := make([]attrs.Set, 0, len(children))
		for _, c := range children {
			sets = append(sets, rec(c))
		}
		f.attrs = attrs.CombineAll(sets...)
		return f.attrs
	}
	for _, f := range h.Roots(0) {
		rec(f)
	}
}

// Walk visits every FCM reachable from the given root in depth-first,
// name-sorted order, calling fn with the FCM and its depth (root = 0).
func Walk(root *FCM, fn func(f *FCM, depth int)) {
	var rec func(f *FCM, d int)
	rec = func(f *FCM, d int) {
		fn(f, d)
		for _, c := range f.Children() {
			rec(c, d+1)
		}
	}
	rec(root, 0)
}
