package aviv

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"aviv/internal/asm"
	"aviv/internal/bench"
	"aviv/internal/cover"
	"aviv/internal/diskcache"
	"aviv/internal/ir"
	"aviv/internal/isdl"
	"aviv/internal/zoo"
)

// Tests of the disk tier's entry: the block codec round trip, the
// malformed entries decode must reject, the version pin, and stale
// entries of the schedule format that came before.

// entryCase is one block of the entry corpus: its fresh compile and
// the entry the disk tier writes for it.
type entryCase struct {
	label string
	m     *isdl.Machine
	block *ir.Block
	br    *BlockResult
	data  []byte
}

// entryMachines are the machines of the entry corpus: the example
// machine, a dual-memory zoo machine (placement in the key, loads and
// stores on two memories) and the spilling tiny-register Zoo1_8.
func entryMachines(t testing.TB) []*isdl.Machine {
	t.Helper()
	zoos := zooEntries(t)
	dual, tiny := zoos[7], zoos[8]
	if dual.Class != zoo.ClassDualMemory || tiny.Class != zoo.ClassTinyRegs || tiny.M.Name != "Zoo1_8" {
		t.Fatalf("zoo slots 7 and 8 are %s and %s (%s), want %s and %s (Zoo1_8)",
			dual.Class, tiny.Class, tiny.M.Name, zoo.ClassDualMemory, zoo.ClassTinyRegs)
	}
	return []*isdl.Machine{isdl.ExampleArchFull(4), dual.M, tiny.M}
}

// entryCorpus compiles the difftest corpus (the example machine has no
// bitwise units, so it takes the arithmetic half) plus six multi-block
// programs on every entry machine, block by block as the cache does,
// and encodes each block's entry.
func entryCorpus(t testing.TB) []entryCase {
	t.Helper()
	var out []entryCase
	for mi, m := range entryMachines(t) {
		for _, p := range zooCorpus() {
			var seed int64
			if _, err := fmt.Sscanf(p.label, "prog%d", &seed); err == nil && mi == 0 && seed%2 == 1 {
				continue
			}
			f, err := ParseAndLower(p.src, 1)
			if err != nil {
				t.Fatalf("%s: %v", p.label, err)
			}
			opts := PlacementOptions(f, m, DefaultOptions())
			for _, b := range f.Blocks {
				br, err := CompileBlock(b, m, opts)
				if err != nil {
					t.Fatalf("%s on %s: %v", p.label, m.Name, err)
				}
				data, err := appendEntry(nil, br.Code, br.Metrics, m)
				if err != nil {
					t.Fatalf("%s on %s: block %s: %v", p.label, m.Name, b.Name, err)
				}
				out = append(out, entryCase{fmt.Sprintf("%s/%s/%s", m.Name, p.label, b.Name), m, b, br, data})
			}
		}
	}
	return out
}

// renderBlock is the assembly text of one pre-layout block.
func renderBlock(m *isdl.Machine, b *asm.Block) string {
	return (&asm.Program{Machine: m, Blocks: []*asm.Block{b}}).String()
}

// TestEntryRoundTrip: every block of the corpus decodes from its entry
// to the code a fresh compile emits, byte for byte once rendered and
// field for field, with the same effort counters.
func TestEntryRoundTrip(t *testing.T) {
	var moves, conds int
	for _, c := range entryCorpus(t) {
		code, effort, err := decodeEntry(c.data, c.block, c.m)
		if err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		if got, want := renderBlock(c.m, code), renderBlock(c.m, c.br.Code); got != want {
			t.Fatalf("%s: decoded code differs:\n%s\nvs\n%s", c.label, got, want)
		}
		if !reflect.DeepEqual(code, c.br.Code) {
			t.Fatalf("%s: decoded block differs field for field:\n%+v\nvs\n%+v", c.label, code, c.br.Code)
		}
		if want := c.br.Metrics.Effort(); effort != want {
			t.Fatalf("%s: counters\n got %+v\nwant %+v", c.label, effort, want)
		}
		for _, in := range code.Instrs {
			moves += len(in.Moves)
		}
		if code.Branch.Kind == asm.BranchCond {
			conds++
		}
	}
	if moves == 0 || conds == 0 {
		t.Fatalf("corpus exercises too little: %d moves, %d conditional branches", moves, conds)
	}
}

// cloneCode deep-copies the instruction lists of b, so a test can edit
// the copy without touching the original.
func cloneCode(b *asm.Block) *asm.Block {
	cp := *b
	cp.Instrs = make([]asm.Instr, len(b.Instrs))
	for i, in := range b.Instrs {
		cp.Instrs[i].Ops = append([]asm.MicroOp(nil), in.Ops...)
		cp.Instrs[i].Moves = append([]asm.Move(nil), in.Moves...)
	}
	return &cp
}

// TestEntryDecodeRejectsMalformed: each malformed entry is a decode
// error, never a panic and never a block.
func TestEntryDecodeRejectsMalformed(t *testing.T) {
	corpus := entryCorpus(t)
	// The first block with both ops and moves, and the first with a
	// register-conditioned branch.
	var plain, cond *entryCase
	for i := range corpus {
		c := &corpus[i]
		if plain == nil && len(c.br.Code.Instrs) > 0 && len(c.br.Code.Instrs[0].Ops) > 0 {
			for _, in := range c.br.Code.Instrs {
				if len(in.Moves) > 0 {
					plain = c
					break
				}
			}
		}
		if cond == nil && c.br.Code.Branch.Kind == asm.BranchCond && c.br.Code.Branch.CondConst == nil {
			cond = c
		}
	}
	if plain == nil || cond == nil {
		t.Fatal("corpus has no block with ops and moves, or none with a register branch")
	}
	// wider is plain's machine with one more unit and one more bus, so
	// code naming them encodes to indexes past plain's machine.
	wider, err := isdl.Parse(plain.m.Dump())
	if err != nil {
		t.Fatal(err)
	}
	wider.AddUnit("XU", 4, ir.OpAdd)
	wider.AddBus("XB", 1)
	reencode := func(c *entryCase, m *isdl.Machine, edit func(*asm.Block)) []byte {
		t.Helper()
		code := cloneCode(c.br.Code)
		edit(code)
		data, err := appendEntry(nil, code, c.br.Metrics, m)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	firstMove := func(b *asm.Block) *asm.Move {
		for i := range b.Instrs {
			if len(b.Instrs[i].Moves) > 0 {
				return &b.Instrs[i].Moves[0]
			}
		}
		return nil
	}
	type bad struct {
		name string
		c    *entryCase
		data []byte
	}
	var table []bad
	for _, c := range []*entryCase{plain, cond} {
		for cut := 0; cut < len(c.data); cut++ {
			table = append(table, bad{fmt.Sprintf("truncated-%s-%d", c.label, cut), c, c.data[:cut]})
		}
	}
	v3, ok := cover.EncodeResult(plain.br.Covering)
	if !ok {
		t.Fatal("cover codec declined a fresh covering")
	}
	table = append(table,
		bad{"unit-index-past-list", plain, reencode(plain, wider, func(b *asm.Block) { b.Instrs[0].Ops[0].Unit = "XU" })},
		bad{"bus-index-past-list", plain, reencode(plain, wider, func(b *asm.Block) { firstMove(b).Bus = "XB" })},
		bad{"dst-register-equals-bank-size", plain, reencode(plain, plain.m, func(b *asm.Block) {
			op := &b.Instrs[0].Ops[0]
			op.Dst = plain.m.Unit(op.Unit).Regs.Size
		})},
		bad{"cond-register-equals-bank-size", cond, reencode(cond, cond.m, func(b *asm.Block) {
			b.Branch.CondReg = cond.m.BankSize(b.Branch.CondUnit)
		})},
		bad{"invalid-op", plain, reencode(plain, plain.m, func(b *asm.Block) { b.Instrs[0].Ops[0].Op = ir.OpStore })},
		bad{"branch-kind-mismatch", plain, reencode(plain, plain.m, func(b *asm.Block) {
			if b.Branch.Kind == asm.BranchJump {
				b.Branch.Kind = asm.BranchHalt
			} else {
				b.Branch.Kind = asm.BranchJump
			}
		})},
		bad{"cond-on-register-mismatch", cond, reencode(cond, cond.m, func(b *asm.Block) {
			c := int64(1)
			b.Branch.CondConst = &c
		})},
		bad{"trailing-byte", plain, append(append([]byte(nil), plain.data...), 0)},
		bad{"future-version", plain, append(binary.AppendUvarint(nil, entryVersion+1), plain.data[1:]...)},
		bad{"schedule-v3", plain, v3},
	)
	for _, tc := range table {
		code, _, err := decodeEntry(tc.data, tc.c.block, tc.c.m)
		if err == nil {
			t.Fatalf("%s: decoded to\n%s", tc.name, renderBlock(tc.c.m, code))
		}
	}
}

// entryHashes pins the entries of the entry corpus, by entry version.
// An entry holds the output of covering, peephole, register allocation
// and emission, which the block key does not see: entries that change
// under an unchanged entryVersion would be read back as code the
// current build does not emit.
var entryHashes = map[int]string{
	4: "fa8c56d1bc0e6246870c6739d19e89955e68e1fa48f37730be24ff603d2deef1",
	5: "07e750393b78a61d7e24038e5f98d325caaee6610aeaf2261a5f304b4b8a6b7f",
}

// TestEntryVersionPinsContent fails when the corpus's entries change
// while entryVersion stays the same.
func TestEntryVersionPinsContent(t *testing.T) {
	h := sha256.New()
	for _, c := range entryCorpus(t) {
		h.Write(binary.AppendUvarint(nil, uint64(len(c.data))))
		h.Write(c.data)
	}
	got := hex.EncodeToString(h.Sum(nil))
	if want := entryHashes[entryVersion]; got != want {
		t.Fatalf("entries hash to %s under entry version %d, pinned %q: the code or counters a "+
			"cache entry holds changed, so bump the entry version (entryVersion) and pin the new hash",
			got, entryVersion, want)
	}
}

// TestStaleScheduleEntries: a disk directory full of version-3
// entries — the cover codec's finished schedules an older build wrote
// under the same keys — compiles to the same bytes as no cache, counts
// every block Invalidated, and rewrites every entry, so the next
// compile takes every block from disk.
func TestStaleScheduleEntries(t *testing.T) {
	m := isdl.ExampleArchFull(4)
	opts := DefaultOptions()
	opts.Verify = true
	f, err := ParseAndLower(bench.MultiBlockSource(8, 12, 6), 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Compile(f, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	disk, err := diskcache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	popts := PlacementOptions(f, m, opts)
	keys := cover.NewBlockKeyer(m.Fingerprint(), popts.Cover)
	for _, b := range f.Blocks {
		br, err := CompileBlock(b, m, popts)
		if err != nil {
			t.Fatal(err)
		}
		finished := *br.Covering
		finished.Best, finished.PeepholeSaved = br.Solution, br.Metrics.PeepholeSaved
		data, ok := cover.EncodeResult(&finished)
		if !ok {
			t.Fatalf("block %s: cover codec declined", b.Name)
		}
		disk.Put(domainKey(keys.Key(b), opts.Peephole), data)
	}
	opts.DiskCache = disk
	n := len(f.Blocks)
	for pass, wantInvalidated := range []bool{true, false} {
		res, err := Compile(f, m, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Program.String(); got != want.Program.String() {
			t.Fatalf("pass %d over stale entries changed the output:\n%s\nvs\n%s", pass, got, want.Program.String())
		}
		var invalidated, diskHits int
		for _, bm := range res.Metrics.Blocks {
			if bm.Invalidated {
				invalidated++
			}
			if bm.DiskHit {
				diskHits++
			}
		}
		if wantInvalidated && (invalidated != n || diskHits != 0) {
			t.Fatalf("first pass: %d of %d blocks invalidated, %d disk hits; want all invalidated", invalidated, n, diskHits)
		}
		if !wantInvalidated && (invalidated != 0 || diskHits != n) {
			t.Fatalf("second pass: %d of %d blocks from disk, %d invalidated; want all from disk", diskHits, n, invalidated)
		}
	}
	if st := disk.Stats(); st.Deletes != int64(n) {
		t.Fatalf("disk deletes = %d, want one per block (%d)", st.Deletes, n)
	}
}

// FuzzDecodeBlock feeds arbitrary entries to the decoder against real
// blocks. Decoding must never panic, and an entry that decodes must
// re-encode to an entry that decodes to the same code and counters.
func FuzzDecodeBlock(f *testing.F) {
	corpus := entryCorpus(f)
	var cases []entryCase
	for _, c := range corpus {
		if strings.Contains(c.label, "/multi") || strings.HasSuffix(c.label, "/entry") {
			cases = append(cases, c)
		}
		if len(cases) == 64 {
			break
		}
	}
	for i, c := range cases {
		f.Add(uint8(i), c.data)
	}
	f.Fuzz(func(t *testing.T, pick uint8, data []byte) {
		c := cases[int(pick)%len(cases)]
		code, effort, err := decodeEntry(data, c.block, c.m)
		if err != nil {
			return
		}
		again, err := appendEntry(nil, code, effort, c.m)
		if err != nil {
			t.Fatalf("decoded block does not re-encode: %v", err)
		}
		code2, effort2, err := decodeEntry(again, c.block, c.m)
		if err != nil {
			t.Fatalf("re-encoded block does not decode: %v", err)
		}
		if !reflect.DeepEqual(code, code2) || effort != effort2 {
			t.Fatalf("re-encoding changed the block:\n%+v %+v\nvs\n%+v %+v", code, effort, code2, effort2)
		}
	})
}
