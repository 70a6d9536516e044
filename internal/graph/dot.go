package graph

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/attrs"
)

// WriteDOT renders the influence graph in Graphviz DOT format: weighted
// influence edges as solid arrows labelled with their value, replica links
// as dashed undirected-style pairs, criticality shading on nodes. The
// output is deterministic (sorted nodes and edges).
func (g *Graph) WriteDOT(w io.Writer, name string) error {
	if name == "" {
		name = "influence"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", name)
	b.WriteString("  rankdir=LR;\n  node [shape=box, style=filled];\n")
	// Criticality range for shading.
	slots := g.SlotsByName()
	maxCrit := 0.0
	for _, s := range slots {
		if c := g.attrs[s].Value(attrs.Criticality); c > maxCrit {
			maxCrit = c
		}
	}
	for _, s := range slots {
		c := g.attrs[s].Value(attrs.Criticality)
		shade := 0
		if maxCrit > 0 {
			shade = int(c / maxCrit * 80)
		}
		fmt.Fprintf(&b, "  %q [fillcolor=\"gray%d\", label=\"%s\\nC=%g\"];\n",
			g.names[s], 100-shade, g.names[s], c)
	}
	seenReplica := map[[2]int32]bool{}
	g.eachEdge(func(s int, e arc) {
		from, to := g.names[s], g.names[e.peer]
		if !e.replica {
			fmt.Fprintf(&b, "  %q -> %q [label=\"%.2g\"];\n", from, to, e.w)
			return
		}
		key := [2]int32{int32(s), e.peer}
		if to < from {
			from, to = to, from
			key[0], key[1] = key[1], key[0]
		}
		if !seenReplica[key] {
			seenReplica[key] = true
			fmt.Fprintf(&b, "  %q -> %q [dir=none, style=dashed, label=\"replica\"];\n", from, to)
		}
	})
	b.WriteString("}\n")
	if _, err := io.WriteString(w, b.String()); err != nil {
		return fmt.Errorf("graph: write dot: %w", err)
	}
	return nil
}
