// Package verify implements the verification-and-validation side of the
// framework: "Once an FCM has been created, verification tests are run to
// ensure that its interactions with other FCMs do not violate the
// restrictions and requirements of a FCM" (§3), and rule R5's
// recertification discipline — after a modification only the FCM's parent
// (with its sibling interfaces) needs retesting, which "simplifies V&V of
// FCMs at each level, by not having to consider lower levels" (§4.1).
//
// The package provides a certification ledger over a core.Hierarchy and a
// quantitative cost model comparing R5's parent-only retesting against
// naive whole-system retesting (experiment E6).
package verify

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/core"
)

// Errors returned by the certifier.
var (
	ErrNotCertified = errors.New("verify: FCM has never been certified")
	ErrStale        = errors.New("verify: certification is stale")
)

// Certifier tracks certification state for every FCM in a hierarchy.
// The zero value is not usable; call NewCertifier.
type Certifier struct {
	h *core.Hierarchy
	// certifiedAt[name] = revision at which the FCM was last certified.
	certifiedAt map[string]int
	// revision increments on every modification event.
	revision int
	// modifiedAt[name] = revision of the FCM's last modification.
	modifiedAt map[string]int
	// Costs accumulates retest effort, measured in FCMs retested and
	// interfaces retested.
	FCMsRetested       int
	InterfacesRetested int
	// checks and ifaceChecks hold registered verification tests.
	checks      map[string][]Check
	ifaceChecks map[string][]Check
}

// NewCertifier builds a certifier over a hierarchy.
func NewCertifier(h *core.Hierarchy) *Certifier {
	return &Certifier{
		h:           h,
		certifiedAt: map[string]int{},
		modifiedAt:  map[string]int{},
	}
}

// CertifyAll performs an initial certification pass over every FCM (each
// FCM tested once; every sibling interface tested once).
func (c *Certifier) CertifyAll() {
	c.revision++
	for _, f := range c.h.All() {
		c.certifiedAt[f.Name()] = c.revision
		c.FCMsRetested++
		// Each FCM's interfaces to its (name-later) siblings.
		for _, s := range f.Siblings(c.h) {
			if f.Name() < s.Name() {
				c.InterfacesRetested++
			}
		}
	}
	c.h.ClearModified()
}

// Modify records a modification of the named FCM and re-certifies per R5:
// the FCM itself, its parent, and the interfaces with its siblings are
// retested; nothing else.
func (c *Certifier) Modify(name string) error {
	if err := c.h.MarkModified(name); err != nil {
		return err
	}
	c.revision++
	c.modifiedAt[name] = c.revision

	fcms, interfaces, err := c.h.RetestSet(name)
	if err != nil {
		return err
	}
	for _, f := range fcms {
		c.certifiedAt[f] = c.revision
		c.FCMsRetested++
	}
	c.InterfacesRetested += len(interfaces)
	c.h.ClearModified()
	return nil
}

// ModifyNaive records a modification under the whole-system baseline: the
// entire hierarchy is retested (every FCM, every sibling interface). Used
// by the E6 cost comparison.
func (c *Certifier) ModifyNaive(name string) error {
	if err := c.h.MarkModified(name); err != nil {
		return err
	}
	c.revision++
	c.modifiedAt[name] = c.revision
	c.CertifyAll()
	return nil
}

// Status reports the certification state of the named FCM.
func (c *Certifier) Status(name string) error {
	f, err := c.h.Lookup(name)
	if err != nil {
		return err
	}
	cert, ok := c.certifiedAt[f.Name()]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotCertified, name)
	}
	if mod, wasModified := c.modifiedAt[f.Name()]; wasModified && mod > cert {
		return fmt.Errorf("%w: %q modified at rev %d, certified at rev %d",
			ErrStale, name, mod, cert)
	}
	return nil
}

// CostModel compares recertification effort over a sequence of
// modifications (experiment E6).
type CostModel struct {
	// R5FCMs / R5Interfaces: cumulative effort under rule R5.
	R5FCMs, R5Interfaces int
	// NaiveFCMs / NaiveInterfaces: cumulative effort retesting everything.
	NaiveFCMs, NaiveInterfaces int
	// Modifications applied.
	Modifications int
}

// Savings returns 1 − (R5 effort / naive effort), counting an FCM retest
// and an interface retest equally; 0 when no work happened.
func (m CostModel) Savings() float64 {
	r5 := m.R5FCMs + m.R5Interfaces
	naive := m.NaiveFCMs + m.NaiveInterfaces
	if naive == 0 {
		return 0
	}
	return 1 - float64(r5)/float64(naive)
}

// CompareCosts applies the same modification sequence to two identically
// built hierarchies — one recertifying per R5, one naively — and returns
// the cumulative cost comparison. build must construct a fresh hierarchy
// on each call; mods lists the FCM names modified in order.
func CompareCosts(build func() (*core.Hierarchy, error), mods []string) (CostModel, error) {
	var m CostModel
	hr5, err := build()
	if err != nil {
		return m, err
	}
	hnaive, err := build()
	if err != nil {
		return m, err
	}
	cr5 := NewCertifier(hr5)
	cnaive := NewCertifier(hnaive)
	cr5.CertifyAll()
	cnaive.CertifyAll()
	// Initial certification costs are identical; compare marginal costs.
	cr5.FCMsRetested, cr5.InterfacesRetested = 0, 0
	cnaive.FCMsRetested, cnaive.InterfacesRetested = 0, 0

	for _, name := range mods {
		if err := cr5.Modify(name); err != nil {
			return m, err
		}
		if err := cnaive.ModifyNaive(name); err != nil {
			return m, err
		}
		m.Modifications++
	}
	m.R5FCMs, m.R5Interfaces = cr5.FCMsRetested, cr5.InterfacesRetested
	m.NaiveFCMs, m.NaiveInterfaces = cnaive.FCMsRetested, cnaive.InterfacesRetested
	return m, nil
}

// StaleSet returns the names of FCMs whose certification is stale or
// missing, sorted. A freshly certified hierarchy returns nothing.
func (c *Certifier) StaleSet() []string {
	var out []string
	for _, f := range c.h.All() {
		if err := c.Status(f.Name()); err != nil {
			out = append(out, f.Name())
		}
	}
	sort.Strings(out)
	return out
}
