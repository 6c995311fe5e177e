package aviv

import (
	"reflect"
	"testing"

	"aviv/internal/asm"
	"aviv/internal/bench"
	"aviv/internal/ir"
	"aviv/internal/isdl"
	"aviv/internal/sim"
)

// Regression test for the block-layout/codec interaction: LayoutProgram
// rewrites jumps-to-next as implicit fallthroughs, leaving blocks with
// Branch{Kind: BranchNone, Target: ...}. That shape must survive both
// serializations — the binary object format (Encode/Decode) and the
// assembly text (String/ParseProgram) — structurally intact, and the
// decoded programs must simulate identically to the original.
func TestLayoutFallthroughRoundTrip(t *testing.T) {
	type tc struct {
		name string
		f    *ir.Func
		mem  map[string]int64
		m    *isdl.Machine
	}
	multiF, multiMem := bench.MultiBlock(7, 10, 6)
	cases := []tc{
		{"multiblock-vliw", multiF, multiMem, isdl.ExampleArchFull(4)},
		{"multiblock-dsp", multiF, multiMem, isdl.SingleIssueDSP(4)},
	}
	// A diamond CFG: the join block is a fallthrough candidate for one arm.
	entry := ir.NewBuilder("entry")
	entry.Branch(entry.Op(ir.OpCmpGT, entry.Load("a"), entry.Load("b")), "big", "small")
	big := ir.NewBuilder("big")
	big.Store("m", big.Load("a"))
	big.Jump("join")
	small := ir.NewBuilder("small")
	small.Store("m", small.Load("b"))
	small.Jump("join")
	join := ir.NewBuilder("join")
	join.Store("out", join.Op(ir.OpMul, join.Load("m"), join.Load("m")))
	join.Return()
	diamond := &ir.Func{Name: "diamond", Blocks: []*ir.Block{
		entry.Finish(), big.Finish(), small.Finish(), join.Finish(),
	}}
	cases = append(cases, tc{"diamond", diamond, map[string]int64{"a": 3, "b": 9}, isdl.ExampleArchFull(4)})

	for _, c := range cases {
		for _, preset := range []struct {
			name string
			opts Options
		}{
			{"default", DefaultOptions()},
			{"exhaustive", ExhaustiveOptions()},
		} {
			res, err := Compile(c.f, c.m, preset.opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", c.name, preset.name, err)
			}
			// The layout must actually have produced fallthroughs with a
			// recorded target, or this test exercises nothing.
			falls := 0
			for _, b := range res.Program.Blocks[:len(res.Program.Blocks)-1] {
				if b.Branch.Kind == asm.BranchNone && b.Branch.Target != "" {
					falls++
				}
			}
			if falls == 0 {
				t.Fatalf("%s/%s: layout produced no fallthrough blocks", c.name, preset.name)
			}

			// Binary round trip: structurally identical blocks.
			obj, err := asm.Encode(res.Program)
			if err != nil {
				t.Fatalf("%s/%s: encode: %v", c.name, preset.name, err)
			}
			dec, err := asm.Decode(obj, c.m)
			if err != nil {
				t.Fatalf("%s/%s: decode: %v", c.name, preset.name, err)
			}
			if !reflect.DeepEqual(res.Program.Blocks, dec.Blocks) {
				t.Errorf("%s/%s: binary round trip changed the program\nbefore:\n%s\nafter:\n%s",
					c.name, preset.name, res.Program, dec)
			}

			// Text round trip: the parsed program re-prints identically.
			parsed, err := asm.ParseProgram(res.Program.String(), c.m)
			if err != nil {
				t.Fatalf("%s/%s: reparse: %v\n%s", c.name, preset.name, err, res.Program)
			}
			if parsed.String() != res.Program.String() {
				t.Errorf("%s/%s: text round trip changed the program\nbefore:\n%s\nafter:\n%s",
					c.name, preset.name, res.Program, parsed)
			}

			// Both round-tripped programs must still compute the function.
			want := make(map[string]int64, len(c.mem))
			for k, v := range c.mem {
				want[k] = v
			}
			if err := ir.EvalFunc(c.f, want, 0); err != nil {
				t.Fatalf("%s: reference eval: %v", c.name, err)
			}
			for _, rt := range []*asm.Program{dec, parsed} {
				mem := make(map[string]int64, len(c.mem))
				for k, v := range c.mem {
					mem[k] = v
				}
				got, _, err := sim.RunProgram(rt, mem, 0)
				if err != nil {
					t.Fatalf("%s/%s: round-tripped program traps: %v", c.name, preset.name, err)
				}
				for k, v := range want {
					if got[k] != v {
						t.Errorf("%s/%s: round-tripped mem[%s] = %d, want %d", c.name, preset.name, k, got[k], v)
					}
				}
			}
		}
	}
}
