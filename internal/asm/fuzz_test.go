package asm

import (
	"reflect"
	"testing"

	"aviv/internal/isdl"
)

// fuzzProgram is a program with every slot form the text can spell:
// loads, stores, register moves, immediates, MOVI and all four branch
// kinds.
const fuzzProgram = `entry:
  { DB: [x] -> U1.R0 | U2: MOVI R1, #-5 }
  { U1: ADD R1, R0, #2 | DB: U2.R1 -> U3.R0 }
  { NOP }
  BNZ U1.R1, loop else done
loop:
  { U3: MUL R2, R0, R0 | DB: U1.R1 -> [$sp0] }
  JMP done
done:
  { DB: U3.R2 -> [y] }
  BNZ #1, exit else loop
exit:
  FALL end
end:
  HALT
`

// FuzzDecode checks the binary loader never panics on corrupt objects,
// and that an object it accepts re-encodes to one that loads back equal
// and prints as text that ParseProgram reads back to the same text.
func FuzzDecode(f *testing.F) {
	m := isdl.ExampleArch(4)
	blk := &Block{Name: "b", Branch: Branch{Kind: BranchHalt}}
	f.Add(mustEncode(f, &Program{Machine: m, Blocks: []*Block{blk}}))
	f.Add([]byte("AVOB"))
	f.Add([]byte{})
	rich, err := ParseProgram(fuzzProgram, m)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(mustEncode(f, rich))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Decode(data, m)
		if err != nil {
			return
		}
		obj, err := Encode(p)
		if err != nil {
			t.Fatalf("loaded program does not re-encode: %v", err)
		}
		back, err := Decode(obj, m)
		if err != nil {
			t.Fatalf("re-encoded program does not load: %v", err)
		}
		if !reflect.DeepEqual(p, back) {
			t.Fatalf("re-encoding changed the program:\n%s\nvs\n%s", p, back)
		}
		text := p.String()
		parsed, err := ParseProgram(text, m)
		if err != nil {
			t.Fatalf("loaded program's text does not parse: %v\n%s", err, text)
		}
		if parsed.String() != text {
			t.Fatalf("loaded program's text does not parse back:\n%s\nvs\n%s", text, parsed)
		}
	})
}

// FuzzParseProgram checks the textual assembler never panics, and that
// accepted programs survive a print/parse round trip.
func FuzzParseProgram(f *testing.F) {
	m := isdl.ExampleArch(4)
	seeds := []string{
		"b:\n  { NOP }\n  HALT\n",
		"b:\n  { U1: ADD R0, R1, R2 | DB: [a] -> U2.R0 }\n  JMP b\n",
		"b:\n  BNZ U1.R0, b else b\n",
		"; only a comment",
		"b:\n  { U2: MOVI R0, #-5 }\n  FALL b\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := ParseProgram(src, m)
		if err != nil {
			return
		}
		text := p.String()
		back, err := ParseProgram(text, m)
		if err != nil {
			t.Fatalf("re-parse of emitted text failed: %v\n%s", err, text)
		}
		if back.String() != text {
			t.Fatalf("print/parse not idempotent:\n%s\nvs\n%s", text, back.String())
		}
	})
}
