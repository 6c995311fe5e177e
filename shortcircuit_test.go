package aviv

import (
	"testing"

	"aviv/internal/ir"
	"aviv/internal/isdl"
	"aviv/internal/sim"
)

// TestShortCircuitCompiles: a right operand of && that would divide by
// zero is not reached when the left operand is false. The reference
// interpreter and the compiled program on a machine with DIV and MOD
// agree and do not trap, in a branch condition, in a loop condition and
// as the right operand of an addition and of a comparison.
func TestShortCircuitCompiles(t *testing.T) {
	const (
		ifSrc    = "if (a && (5 % b)) { x = 1; } else { x = 2; }"
		whileSrc = "i = 0; x = 0; while (i < a && (6 / (a - i))) { x = x + 1; i = i + 1; }"
		addSrc   = "x = (b + 4) + (a && (5 % b));"
		cmpSrc   = "if ((b + 1) == (a || (1 / b))) { x = 1; } else { x = 2; }"
	)
	m := isdl.WideDSP(4)
	for _, tc := range []struct {
		src     string
		a, b, x int64
	}{
		{ifSrc, 0, 0, 2},
		{ifSrc, 1, 2, 1},
		{ifSrc, 1, 5, 2},
		{whileSrc, 3, 0, 3},
		{addSrc, 0, 0, 4},
		{addSrc, 1, 2, 7},
		{cmpSrc, 1, 0, 1},
		{cmpSrc, 0, 1, 2},
	} {
		f, err := ParseAndLower(tc.src, 1)
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]int64{"a": tc.a, "b": tc.b}
		if err := ir.EvalFunc(f, want, 0); err != nil {
			t.Fatalf("%s with a=%d b=%d: reference interpreter: %v", tc.src, tc.a, tc.b, err)
		}
		opts := DefaultOptions()
		opts.Verify = true
		res, err := CompileSource(tc.src, m, 1, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := sim.RunProgram(res.Program, map[string]int64{"a": tc.a, "b": tc.b}, 0)
		if err != nil {
			t.Fatalf("%s with a=%d b=%d: simulate: %v\n%s", tc.src, tc.a, tc.b, err, res.Program)
		}
		if want["x"] != tc.x || got["x"] != tc.x {
			t.Errorf("%s with a=%d b=%d: x = %d (interpreter), %d (compiled), want %d", tc.src, tc.a, tc.b, want["x"], got["x"], tc.x)
		}
	}
}
