package cover

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strings"
	"testing"

	"aviv/internal/ir"
	"aviv/internal/isdl"
)

// solutionSignature renders every field of a solution the downstream
// passes (peephole, regalloc, asm, verify) can observe, in schedule
// order, so two signatures match iff the solutions compile to identical
// output.
func solutionSignature(sol *Solution) string {
	idx := make(map[*SNode]int)
	for _, instr := range sol.Instrs {
		for _, n := range instr {
			idx[n] = len(idx)
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "block=%s machine=%s spills=%d\n", sol.Block.Name, sol.Machine.Name, sol.SpillCount)
	edge := func(name string, list []*SNode) {
		fmt.Fprintf(&sb, " %s=[", name)
		for _, m := range list {
			if j, ok := idx[m]; ok {
				fmt.Fprintf(&sb, "%d ", j)
			}
		}
		sb.WriteString("]")
	}
	for i, instr := range sol.Instrs {
		fmt.Fprintf(&sb, "I%d:\n", i)
		for _, n := range instr {
			fmt.Fprintf(&sb, " id=%d kind=%s unit=%s bank=%s op=%s var=%s step=%s->%s/%s",
				n.ID, n.Kind, n.Unit, n.Bank, n.Op, n.Var, n.Step.From, n.Step.To, n.Step.Bus)
			if n.Value != nil {
				fmt.Fprintf(&sb, " val=n%d", n.Value.ID)
			}
			if n.Alt != nil {
				fmt.Fprintf(&sb, " alt=%s/cov%d/opnd%d", n.Alt, len(n.Alt.Covers), len(n.Alt.Operands))
			}
			edge("p", n.Preds)
			edge("s", n.Succs)
			edge("op", n.OrdPreds)
			edge("os", n.OrdSuccs)
			sb.WriteString("\n")
		}
	}
	ext := make([]string, 0, len(sol.ExternalUses))
	for n, cnt := range sol.ExternalUses {
		ext = append(ext, fmt.Sprintf("%d=%d", idx[n], cnt))
	}
	sort.Strings(ext)
	fmt.Fprintf(&sb, "ext=%v\n", ext)
	return sb.String()
}

// codecCases pairs block builders (fresh IR per call, so pointer
// identity never leaks between encode and decode sides) with machines.
func codecCases() []struct {
	name  string
	block func() *ir.Block
	mach  *isdl.Machine
} {
	spillBlock := func() *ir.Block {
		bb := ir.NewBuilder("press")
		a := bb.Load("a")
		b := bb.Load("b")
		c := bb.Load("c")
		d := bb.Load("d")
		s3 := bb.Mul(bb.Add(a, b), bb.Sub(c, d))
		bb.Store("o", bb.Add(s3, a))
		bb.Return()
		return bb.Finish()
	}
	branchBlock := func() *ir.Block {
		bb := ir.NewBuilder("cond")
		x := bb.Load("x")
		cmp := bb.Sub(x, bb.Load("y"))
		bb.Store("d", cmp)
		bb.Branch(cmp, "t", "f")
		return bb.Finish()
	}
	macBlock := func() *ir.Block {
		bb := ir.NewBuilder("mac")
		acc := bb.Load("acc")
		acc1 := bb.Add(acc, bb.Mul(bb.Load("x0"), bb.Load("c0")))
		bb.Store("acc", acc1)
		bb.Store("acc", bb.Add(acc1, bb.Mul(bb.Load("x1"), bb.Load("c1"))))
		bb.Return()
		return bb.Finish()
	}
	return []struct {
		name  string
		block func() *ir.Block
		mach  *isdl.Machine
	}{
		{"fig2", fig2Block, isdl.ExampleArch(4)},
		{"spills", spillBlock, isdl.ExampleArch(2)},
		{"branch", branchBlock, isdl.ExampleArch(4)},
		{"mac-complex-alt", macBlock, isdl.WideDSP(4)},
		{"clustered", branchBlock, isdl.ClusteredVLIW(4)},
	}
}

// TestCodecRoundTrip proves a covering survives encode -> decode against
// a freshly built DAG for a structurally identical (but pointer-distinct)
// block, field for field.
func TestCodecRoundTrip(t *testing.T) {
	for _, tc := range codecCases() {
		t.Run(tc.name, func(t *testing.T) {
			res := mustCover(t, tc.block(), tc.mach, DefaultOptions())
			data, ok := encodeResult(res)
			if !ok || len(data) == 0 {
				t.Fatal("encodeResult declined a fresh covering")
			}
			// Decoding against a fresh identical block must rebuild an
			// identical solution.
			second, err := DecodeBlock(data, tc.block(), tc.mach, DefaultOptions())
			if err != nil {
				t.Fatalf("DecodeBlock: %v", err)
			}
			if got, want := solutionSignature(second.Best), solutionSignature(res.Best); got != want {
				t.Errorf("decoded solution differs from fresh covering\n--- decoded ---\n%s--- fresh ---\n%s", got, want)
			}
			if second.AssignmentsExplored != res.AssignmentsExplored ||
				second.PrunedAssignments != res.PrunedAssignments {
				t.Errorf("counters not preserved: got (%d,%d), want (%d,%d)",
					second.AssignmentsExplored, second.PrunedAssignments,
					res.AssignmentsExplored, res.PrunedAssignments)
			}
		})
	}
}

// TestCodecCorruptionDegradesToMiss feeds the decoder truncations and
// bit flips of a valid entry. Every outcome must be either a clean
// decode error or a solution that still passes Verify — never a panic,
// never an invalid schedule.
func TestCodecCorruptionDegradesToMiss(t *testing.T) {
	res := mustCover(t, fig2Block(), isdl.ExampleArch(4), DefaultOptions())
	data, ok := encodeResult(res)
	if !ok {
		t.Fatal("encodeResult declined")
	}
	freshDAG := func() *Result {
		r := mustCover(t, fig2Block(), isdl.ExampleArch(4), DefaultOptions())
		return r
	}
	dag := freshDAG().DAG

	for cut := 0; cut < len(data); cut++ {
		if _, err := decodeResult(data[:cut], dag); err == nil {
			t.Fatalf("decode of %d-byte truncation succeeded", cut)
		}
	}
	for i := range data {
		for _, flip := range []byte{0x01, 0x80, 0xff} {
			mut := append([]byte(nil), data...)
			mut[i] ^= flip
			got, err := decodeResult(mut, dag)
			if err != nil {
				continue
			}
			if got.Best == nil {
				t.Fatalf("flip at byte %d: nil solution without error", i)
			}
			if verr := got.Best.Verify(); verr != nil {
				t.Fatalf("flip at byte %d decoded an invalid solution: %v", i, verr)
			}
		}
	}

	// Version skew must be rejected outright.
	mut := append([]byte(nil), data...)
	mut[0] = codecVersion + 1
	if _, err := decodeResult(mut, dag); err == nil {
		t.Fatal("decode accepted a future codec version")
	}

	// Garbage is a decode error, which callers treat as a miss (the
	// aviv-level tier tests check the recompile that follows).
	if _, err := DecodeBlock([]byte("not a covering"), fig2Block(), isdl.ExampleArch(4), DefaultOptions()); err == nil {
		t.Fatal("DecodeBlock accepted garbage")
	}
}

// TestEncodeDecline checks the encoder refuses unrepresentable results
// instead of guessing.
func TestEncodeDecline(t *testing.T) {
	if _, ok := encodeResult(nil); ok {
		t.Error("encoded nil result")
	}
	if _, ok := encodeResult(&Result{}); ok {
		t.Error("encoded result without solution")
	}
	res := mustCover(t, fig2Block(), isdl.ExampleArch(4), DefaultOptions())
	noDAG := *res
	noDAG.DAG = nil
	if _, ok := encodeResult(&noDAG); ok {
		t.Error("encoded result without DAG")
	}
}

// TestBoundedCacheEviction exercises the memory tier's LRU entry cap
// and its byte accounting.
func TestBoundedCacheEviction(t *testing.T) {
	key := func(v string) [sha256.Size]byte { return sha256.Sum256([]byte(v)) }
	cache := NewBoundedCache(2)
	cache.Add(key("1"), "one", 10)
	cache.Add(key("2"), "two", 20)
	// Refresh block 1 so block 2 is the LRU victim.
	if v, ok := cache.Get(key("1")); !ok || v != "one" {
		t.Fatalf("Get(1) = %v, %v; want one, true", v, ok)
	}
	cache.Add(key("3"), "three", 30)

	st := cache.Stats()
	if st.Entries != 2 {
		t.Errorf("entries = %d, want 2", st.Entries)
	}
	if st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
	if st.Bytes != 40 {
		t.Errorf("bytes = %d, want 40 after evicting the 20-byte entry", st.Bytes)
	}
	if _, ok := cache.Get(key("1")); !ok {
		t.Error("block 1 should have survived eviction (recently used)")
	}
	if _, ok := cache.Get(key("2")); ok {
		t.Error("block 2 should have been evicted")
	}
	if held := cache.Add(key("1"), "uno", 99); held != "one" {
		t.Errorf("re-Add returned %v, want the first insert", held)
	}
	if st := cache.Stats(); st.Entries != 2 || st.Bytes != 40 || st.Hits != 2 || st.Misses != 1 {
		t.Errorf("stats after re-insert = %+v, want 2 entries, 40 bytes, 2 hits, 1 miss", st)
	}

	// Unbounded cache never evicts.
	unb := NewBoundedCache(0)
	for i := 0; i < 8; i++ {
		unb.Add(key(fmt.Sprint(i)), i, 1)
	}
	if st := unb.Stats(); st.Evictions != 0 || st.Entries != 8 {
		t.Errorf("unbounded cache: entries=%d evictions=%d, want 8/0", st.Entries, st.Evictions)
	}
}
