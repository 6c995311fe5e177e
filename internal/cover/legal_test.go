package cover

import (
	"testing"

	"aviv/internal/ir"
	"aviv/internal/isdl"
)

// TestLegalGroupAllocs pins the grouping check on the peephole's reject
// path as allocation-free: legalGroup on a legal group and on illegal
// ones (a unit used twice, a bus over its width), and a CanMove that
// rejects on grouping legality.
func TestLegalGroupAllocs(t *testing.T) {
	m := isdl.ExampleArch(4)
	add := &SNode{Kind: OpNode, Unit: "U1", Op: ir.OpAdd}
	sub := &SNode{Kind: OpNode, Unit: "U1", Op: ir.OpSub}
	mul := &SNode{Kind: OpNode, Unit: "U2", Op: ir.OpMul}
	ld1 := &SNode{Kind: LoadNode, Step: isdl.Transfer{Bus: "DB"}}
	ld2 := &SNode{Kind: LoadNode, Step: isdl.Transfer{Bus: "DB"}}
	for _, c := range []struct {
		name  string
		group []*SNode
		legal bool
	}{
		{"legal", []*SNode{add, mul, ld1}, true},
		{"unit twice", []*SNode{add, sub}, false},
		{"bus over width", []*SNode{mul, ld1, ld2}, false},
	} {
		if got := legalGroup(c.group, m); got != c.legal {
			t.Fatalf("%s: legalGroup = %v, want %v", c.name, got, c.legal)
		}
		if n := testing.AllocsPerRun(100, func() { legalGroup(c.group, m) }); n != 0 {
			t.Errorf("%s: legalGroup allocates %.1f times per call, want 0", c.name, n)
		}
	}

	res, err := CoverBlock(firBlock(6), m, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	sol := res.Best
	pos := make(map[*SNode]int)
	for i, instr := range sol.Instrs {
		for _, n := range instr {
			pos[n] = i
		}
	}
	rejects := 0
	for i, instr := range sol.Instrs {
		for _, n := range instr {
			for j := 0; j < i; j++ {
				if sol.CanMove(n, j, pos) {
					continue
				}
				rejects++
				if a := testing.AllocsPerRun(20, func() { sol.CanMove(n, j, pos) }); a != 0 {
					t.Fatalf("CanMove(%s -> %d) allocates %.1f times per reject, want 0", n, j, a)
				}
			}
		}
	}
	if rejects == 0 {
		t.Fatal("no rejected move in the bench block; the allocation check is vacuous")
	}
}
