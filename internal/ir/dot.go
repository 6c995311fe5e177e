package ir

import (
	"fmt"
	"strings"
)

// DOT renders the block's expression DAG in Graphviz format, edges pointing
// from users to operands (the orientation used in the paper's Fig. 2).
func (b *Block) DOT() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %q {\n  rankdir=TB;\n", b.Name)
	for _, n := range b.Nodes {
		label := n.Op.String()
		switch n.Op {
		case OpConst:
			label = fmt.Sprintf("%d", n.Const)
		case OpLoad:
			label = n.Var
		case OpStore:
			label = fmt.Sprintf("ST %s", n.Var)
		}
		fmt.Fprintf(&sb, "  n%d [label=%q];\n", n.ID, label)
		for _, a := range n.Args {
			fmt.Fprintf(&sb, "  n%d -> n%d;\n", n.ID, a.ID)
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}
