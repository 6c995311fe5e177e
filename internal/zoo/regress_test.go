package zoo

import (
	"os"
	"strings"
	"testing"

	"aviv"
	"aviv/internal/ir"
	"aviv/internal/isdl"
	"aviv/internal/sim"
	"aviv/internal/verify"
)

// Regression tests for compiler bugs the zoo's differential matrix
// surfaced, each pinned by a machine minimized with Minimize and
// checked in under testdata.

// TestRegressMemHubMoveThroughMemory covers the first zoo find: on a
// memory-hub machine (the mem-hub class), the only transfer path
// between two register banks routes through the data memory. The
// solution-graph builder used to emit the hop into memory as a plain
// MoveNode — a node with no destination register and no slot name — so
// every cross-bank value flow crashed the assembler with "move ... has
// no register". The fix parks the value in a "$mv" compiler temp: the
// hop in becomes a spill-style store, the hop out a reload of the same
// slot.
func TestRegressMemHubMoveThroughMemory(t *testing.T) {
	text, err := os.ReadFile("testdata/memhub_min.isdl")
	if err != nil {
		t.Fatal(err)
	}
	m, err := isdl.Parse(string(text))
	if err != nil {
		t.Fatalf("minimized machine does not parse: %v", err)
	}
	if verr := verify.LintMachine(m.Clone(m.Name)); verr != nil {
		t.Fatalf("minimized machine does not lint clean: %v", verr)
	}

	// ADD lives only on U0, SUB only on U1, and the banks are connected
	// exclusively through DM: the ADD result must cross via memory.
	src := "a = (a + b) - c;\n"
	mem := map[string]int64{"a": 11, "b": 7, "c": 5}

	f, err := aviv.ParseAndLower(src, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"a": 11, "b": 7, "c": 5}
	if err := ir.EvalFunc(f, want, 0); err != nil {
		t.Fatal(err)
	}

	opts := aviv.DefaultOptions()
	opts.Verify = true
	res, err := aviv.CompileSource(src, m, 1, opts)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	asm := res.Program.String()
	if !strings.Contains(asm, "$mv") {
		t.Errorf("expected a $mv transfer temp in the emitted code (the value must park in DM):\n%s", asm)
	}
	got, _, err := sim.RunProgram(res.Program, mem, 0)
	if err != nil {
		t.Fatalf("simulate: %v\n%s", err, asm)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("mem[%s] = %d, interpreter says %d\n%s", k, got[k], v, asm)
		}
	}
}
