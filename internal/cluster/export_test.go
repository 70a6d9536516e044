package cluster

import "testing"

// H1Lockstep runs h1Lockstep for the external tests of this package,
// which may import packages that import cluster, and returns the merges
// made, the remembered verdicts checked afresh and how many of those
// were timing rejections.
func H1Lockstep(t *testing.T, c, ref *Condenser, target int) (merges, verdicts, timing int) {
	t.Helper()
	st := h1Lockstep(t, c, ref, target)
	return st.merges, st.verdicts, st.timing
}

// H1Systems is h1Systems for the external tests.
var H1Systems = h1Systems
