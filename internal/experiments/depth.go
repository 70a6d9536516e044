package experiments

import (
	"fmt"
	"math/rand/v2"
	"strings"

	"repro/internal/attrs"
	"repro/internal/core"
)

// E12Row is one hierarchy-depth measurement.
type E12Row struct {
	Scheme string
	Depth  int
	// TotalFCMs is the structural overhead (all FCMs for the same leaves).
	TotalFCMs int
	// Leaves is the number of leaf procedures (held constant).
	Leaves int
	// MeanRetest is the mean per-modification retest cost (FCMs +
	// interfaces) under rule R5.
	MeanRetest float64
}

// E12Result carries the depth ablation.
type E12Result struct {
	Rows []E12Row
	Text string
}

// E12 ablates the paper's deliberate three-level choice: the same 64 leaf
// procedures arranged in 2-, 3- and 4-level hierarchies, measuring the R5
// retest cost of random leaf modifications against the structural
// overhead. Deeper schemes localise retests (fewer siblings per parent)
// at the price of more intermediate FCMs — the tradeoff that makes three
// levels a sensible default.
func E12(mods int, seed uint64) (E12Result, error) {
	if mods <= 0 {
		mods = 200
	}
	shapes := []struct {
		name      string
		branching []int // children per FCM, lowest grouping first
	}{
		// 64 leaves in every shape.
		{"2-level (64 per process)", []int{64}},
		{"3-level (8x8)", []int{8, 8}},
		{"4-level (4x4x4)", []int{4, 4, 4}},
	}
	var res E12Result
	var b strings.Builder
	b.WriteString("E12: hierarchy-depth ablation (64 leaf procedures, R5 retest cost)\n")
	fmt.Fprintf(&b, "  modifications per shape: %d\n", mods)
	b.WriteString("  scheme                     depth  total-FCMs  mean-retest-cost\n")
	for _, sh := range shapes {
		depth := len(sh.branching) + 1
		h, leaves, err := uniformHierarchy(sh.branching)
		if err != nil {
			return res, fmt.Errorf("experiments: E12 %s: %w", sh.name, err)
		}
		rng := rand.New(rand.NewPCG(seed, seed^uint64(depth)))
		total := 0
		for i := 0; i < mods; i++ {
			leaf := leaves[rng.IntN(len(leaves))]
			fcms, interfaces, err := h.RetestSet(leaf)
			if err != nil {
				return res, err
			}
			total += len(fcms) + len(interfaces)
		}
		row := E12Row{
			Scheme:     sh.name,
			Depth:      depth,
			TotalFCMs:  h.Len(),
			Leaves:     len(leaves),
			MeanRetest: float64(total) / float64(mods),
		}
		res.Rows = append(res.Rows, row)
		fmt.Fprintf(&b, "  %-25s  %5d  %10d  %16.2f\n",
			row.Scheme, row.Depth, row.TotalFCMs, row.MeanRetest)
	}
	res.Text = b.String()
	return res, nil
}

// uniformHierarchy builds a complete single-root tree of depth
// len(branching)+1 bottom-up: the product of branching leaf procedures,
// grouped branching[0] at a time into the level above, and so on up to the
// top. It returns the hierarchy and its leaf names.
func uniformHierarchy(branching []int) (*core.Hierarchy, []string, error) {
	h, err := core.NewHierarchyDepth(len(branching) + 1)
	if err != nil {
		return nil, nil, err
	}
	n := 1
	for _, k := range branching {
		n *= k
	}
	level := make([]string, n)
	for i := range level {
		level[i] = fmt.Sprintf("L1.%d", i)
		if _, err := h.AddFree(level[i], core.ProcedureLevel, attrs.Set{}, false); err != nil {
			return nil, nil, err
		}
	}
	leaves := level
	for l, k := range branching {
		var parents []string
		for i := 0; i < len(level); i += k {
			name := fmt.Sprintf("L%d.%d", l+2, i/k)
			if _, err := h.Group(name, level[i:i+k]); err != nil {
				return nil, nil, err
			}
			parents = append(parents, name)
		}
		level = parents
	}
	return h, leaves, nil
}
