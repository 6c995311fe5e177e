package cover

import (
	"encoding/binary"
	"fmt"
	"sort"

	"aviv/internal/ir"
	"aviv/internal/isdl"
	"aviv/internal/sndag"
)

// Binary codec for cover.Result. Its one caller is perfbench's replay,
// which persists coverings in its own tier to time the covering's
// layers apart; aviv's cache tiers hold finished code instead (asm's
// block codec), so nothing on the compile path reads or writes this
// format. A Result is a pointer graph: the schedule's SNodes reference
// ir.Nodes of the covered block and sndag.Alt alternatives of the
// Split-Node DAG. Neither is serialized; both are re-derived on decode
// from the covered block and the machine — sndag.Build reproduces the
// identical DAG — and pointers are resolved positionally:
//
//   - ir.Node   -> by node ID within the covered block
//   - sndag.Alt -> by (ID of Covers[0], index within that split's Alts)
//
// Only the schedule itself plus the search and peephole counters are
// written. The Assignment is deliberately dropped: it is
// presentation-only (nothing downstream of covering reads it), and edge
// lists keep their order because assembly emission matches operands to
// predecessors first-match-wins. Edges to nodes outside the schedule
// are dropped, exactly as Solution.Clone does; every consumer guards
// against them.
//
// The encoding is versioned; any structural change must bump
// codecVersion so stale entries decode as misses, never as wrong
// results. Integrity (truncation, bit rot) is the storage layer's job —
// decodeResult only needs to fail cleanly on garbage, which the
// bounds-checked reader plus a final Solution.Verify guarantee.
//
// Version 3 added PeepholeSaved, for the finished (post-peephole)
// schedules aviv's disk tier held before it held finished code.
const codecVersion = 3

type encBuf struct{ b []byte }

func (e *encBuf) int(v int)     { e.b = binary.AppendVarint(e.b, int64(v)) }
func (e *encBuf) uint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *encBuf) str(s string) {
	e.uint(uint64(len(s)))
	e.b = append(e.b, s...)
}
func (e *encBuf) bool(v bool) {
	if v {
		e.b = append(e.b, 1)
	} else {
		e.b = append(e.b, 0)
	}
}
func (e *encBuf) loc(l isdl.Loc) {
	e.uint(uint64(l.Kind))
	e.str(l.Name)
}

type decBuf struct {
	b   []byte
	err error
}

func (d *decBuf) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *decBuf) int() int {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("cover codec: truncated varint")
		return 0
	}
	d.b = d.b[n:]
	return int(v)
}

func (d *decBuf) uint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("cover codec: truncated uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decBuf) str() string {
	n := d.uint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.b)) {
		d.fail("cover codec: string length %d exceeds remaining %d bytes", n, len(d.b))
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *decBuf) bool() bool {
	if d.err != nil {
		return false
	}
	if len(d.b) == 0 {
		d.fail("cover codec: truncated bool")
		return false
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v != 0
}

func (d *decBuf) loc() isdl.Loc {
	k := d.uint()
	name := d.str()
	if d.err != nil {
		return isdl.Loc{}
	}
	if k > uint64(isdl.LocMem) {
		d.fail("cover codec: bad loc kind %d", k)
		return isdl.Loc{}
	}
	return isdl.Loc{Kind: isdl.LocKind(k), Name: name}
}

// encodeResult serializes a covering for the disk tier. It declines
// (ok=false) rather than guessing when the result is not representable:
// no best solution, no DAG, an Alt that is not resolvable positionally,
// or a scheduled node with an unscheduled value predecessor. Declining
// is always safe — the entry is simply not persisted.
func encodeResult(res *Result) (data []byte, ok bool) {
	if res == nil || res.Best == nil || res.DAG == nil {
		return nil, false
	}
	sol := res.Best
	idx := make(map[*SNode]int)
	var nodes []*SNode
	for _, instr := range sol.Instrs {
		for _, n := range instr {
			if _, dup := idx[n]; dup {
				return nil, false
			}
			idx[n] = len(nodes)
			nodes = append(nodes, n)
		}
	}

	e := &encBuf{b: make([]byte, 0, 64+len(nodes)*48)}
	e.uint(codecVersion)
	e.int(res.AssignmentsExplored)
	e.int(res.PrunedAssignments)
	e.int(res.PeepholeSaved)
	e.int(sol.SpillCount)

	// Schedule shape: instruction count then clique sizes. Node payloads
	// follow in schedule order, so indices are implicit.
	e.int(len(sol.Instrs))
	for _, instr := range sol.Instrs {
		e.int(len(instr))
	}
	for _, n := range nodes {
		e.int(n.ID)
		e.uint(uint64(n.Kind))
		if n.Value != nil {
			e.int(n.Value.ID)
		} else {
			e.int(-1)
		}
		e.str(n.Unit)
		e.str(n.Bank)
		e.int(int(n.Op))
		if n.Alt != nil {
			root := n.Alt.Covers[0]
			split := res.DAG.SplitOf(root)
			altIdx := -1
			if split != nil {
				for i, a := range split.Alts {
					if a == n.Alt {
						altIdx = i
						break
					}
				}
			}
			if altIdx < 0 {
				return nil, false
			}
			e.int(root.ID)
			e.int(altIdx)
		} else {
			e.int(-1)
			e.int(-1)
		}
		e.loc(n.Step.From)
		e.loc(n.Step.To)
		e.str(n.Step.Bus)
		e.str(n.Var)
	}
	// Edge lists by node index, order preserved (assembly emission
	// matches operands to Preds first-match-wins). Value and ordering
	// predecessors of a scheduled node must themselves be scheduled
	// (Solution.Verify invariant); successors may escape the schedule
	// and are dropped, as in Solution.Clone.
	edges := func(list []*SNode, preds bool) bool {
		kept := 0
		for _, m := range list {
			if _, ok := idx[m]; ok {
				kept++
			} else if preds {
				return false
			}
		}
		e.int(kept)
		for _, m := range list {
			if j, ok := idx[m]; ok {
				e.int(j)
			}
		}
		return true
	}
	for _, n := range nodes {
		if !edges(n.Preds, true) || !edges(n.Succs, false) ||
			!edges(n.OrdPreds, true) || !edges(n.OrdSuccs, false) {
			return nil, false
		}
	}
	e.int(len(sol.ExternalUses))
	ext := make([]int, 0, len(sol.ExternalUses))
	extCnt := make(map[int]int, len(sol.ExternalUses))
	for n, cnt := range sol.ExternalUses {
		j, ok := idx[n]
		if !ok {
			return nil, false
		}
		ext = append(ext, j)
		extCnt[j] = cnt
	}
	sort.Ints(ext)
	for _, j := range ext {
		e.int(j)
		e.int(extCnt[j])
	}
	return e.b, true
}

// decodeResult rebuilds a covering from its serialized form against a
// freshly derived Split-Node DAG. Any inconsistency — version skew,
// truncation, out-of-range reference, or a decoded solution that fails
// Verify — returns an error, which callers treat as a cache miss.
//
// Allocation is dense: IR nodes resolve through a slice indexed by
// node ID, every SNode comes from one arena and every edge list is
// carved out of one slab, sized exactly by a first pass over the edge
// counts (as Solution.Clone does).
func decodeResult(data []byte, dag *sndag.DAG) (*Result, error) {
	d := &decBuf{b: data}
	if v := d.uint(); d.err == nil && v != codecVersion {
		return nil, fmt.Errorf("cover codec: version %d, want %d", v, codecVersion)
	}
	res := &Result{DAG: dag}
	res.AssignmentsExplored = d.int()
	res.PrunedAssignments = d.int()
	res.PeepholeSaved = d.int()
	spills := d.int()

	nodeByID := make([]*ir.Node, dag.Block.IDBound())
	for _, n := range dag.Block.Nodes {
		nodeByID[n.ID] = n
	}
	irNode := func(id int) *ir.Node {
		if id < len(nodeByID) {
			return nodeByID[id]
		}
		return nil
	}

	nInstrs := d.int()
	if d.err != nil {
		return nil, d.err
	}
	if nInstrs < 0 || nInstrs > len(data) {
		return nil, fmt.Errorf("cover codec: implausible instruction count %d", nInstrs)
	}
	sizes := make([]int, nInstrs)
	total := 0
	for i := range sizes {
		sizes[i] = d.int()
		if d.err != nil {
			return nil, d.err
		}
		if sizes[i] <= 0 || sizes[i] > len(data) {
			return nil, fmt.Errorf("cover codec: implausible clique size %d", sizes[i])
		}
		total += sizes[i]
	}
	if total > len(data) {
		return nil, fmt.Errorf("cover codec: %d nodes exceed payload", total)
	}
	arena := make([]SNode, total)
	nodes := make([]*SNode, total)
	for i := range arena {
		nodes[i] = &arena[i]
	}
	for _, n := range nodes {
		n.ID = d.int()
		kind := d.uint()
		if d.err == nil && kind > uint64(StoreNode) {
			return nil, fmt.Errorf("cover codec: bad node kind %d", kind)
		}
		n.Kind = SNodeKind(kind)
		if vid := d.int(); vid >= 0 {
			v := irNode(vid)
			if v == nil && d.err == nil {
				return nil, fmt.Errorf("cover codec: value node %d not in block %s", vid, dag.Block.Name)
			}
			n.Value = v
		}
		n.Unit = d.str()
		n.Bank = d.str()
		n.Op = ir.Op(d.int())
		rootID := d.int()
		altIdx := d.int()
		if rootID >= 0 {
			root := irNode(rootID)
			if root == nil && d.err == nil {
				return nil, fmt.Errorf("cover codec: alt root %d not in block %s", rootID, dag.Block.Name)
			}
			split := dag.SplitOf(root)
			if split == nil || altIdx < 0 || altIdx >= len(split.Alts) {
				if d.err == nil {
					return nil, fmt.Errorf("cover codec: alt %d/%d unresolvable for node %d", rootID, altIdx, n.ID)
				}
			} else {
				n.Alt = split.Alts[altIdx]
			}
		}
		n.Step.From = d.loc()
		n.Step.To = d.loc()
		n.Step.Bus = d.str()
		n.Var = d.str()
	}
	if d.err != nil {
		return nil, d.err
	}
	// First pass over the edge section: validate the counts and size the
	// slab. Each count is followed by that many indices.
	edges := 0
	scan := decBuf{b: d.b}
	for i := 0; i < 4*total; i++ {
		cnt := scan.int()
		if scan.err != nil {
			return nil, scan.err
		}
		if cnt < 0 || cnt > total {
			return nil, fmt.Errorf("cover codec: implausible edge count %d", cnt)
		}
		for j := 0; j < cnt; j++ {
			scan.int()
		}
		edges += cnt
	}
	if scan.err != nil {
		return nil, scan.err
	}
	slab := make([]*SNode, edges)
	readEdges := func() ([]*SNode, error) {
		cnt := d.int()
		if cnt == 0 {
			return nil, nil
		}
		out := slab[:cnt:cnt]
		slab = slab[cnt:]
		for i := range out {
			j := d.int()
			if j < 0 || j >= total {
				return nil, fmt.Errorf("cover codec: edge target %d out of range", j)
			}
			out[i] = nodes[j]
		}
		return out, nil
	}
	for _, n := range nodes {
		var err error
		if n.Preds, err = readEdges(); err != nil {
			return nil, err
		}
		if n.Succs, err = readEdges(); err != nil {
			return nil, err
		}
		if n.OrdPreds, err = readEdges(); err != nil {
			return nil, err
		}
		if n.OrdSuccs, err = readEdges(); err != nil {
			return nil, err
		}
	}
	nExt := d.int()
	if d.err != nil {
		return nil, d.err
	}
	if nExt < 0 || nExt > total {
		return nil, fmt.Errorf("cover codec: implausible external-use count %d", nExt)
	}
	ext := make(map[*SNode]int, nExt)
	for i := 0; i < nExt; i++ {
		j := d.int()
		cnt := d.int()
		if d.err != nil {
			return nil, d.err
		}
		if j < 0 || j >= total {
			return nil, fmt.Errorf("cover codec: external-use node %d out of range", j)
		}
		ext[nodes[j]] = cnt
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("cover codec: %d trailing bytes", len(d.b))
	}

	sol := &Solution{
		Block:        dag.Block,
		Machine:      dag.Machine,
		Instrs:       make([][]*SNode, nInstrs),
		SpillCount:   spills,
		ExternalUses: ext,
	}
	at := 0
	for i, sz := range sizes {
		sol.Instrs[i] = nodes[at : at+sz : at+sz]
		at += sz
	}
	// Defense in depth: a decoded schedule must satisfy the same
	// invariants a fresh covering does before it may reach emission.
	if err := sol.Verify(); err != nil {
		return nil, fmt.Errorf("cover codec: decoded solution invalid: %w", err)
	}
	res.Best = sol
	return res, nil
}
