package lang

import (
	"testing"

	"aviv/internal/ir"
)

// parseSeeds is FuzzParse's seed corpus; the lexer's differential test
// runs over it too.
var parseSeeds = []string{
	"x = 1;",
	"x = a + b * 3; y = x - 1;",
	"if (a > 0) { r = a; } else { r = -a; }",
	"while (i < 10) { i = i + 1; }",
	"for (i = 0; i < 8; i = i + 2) { s = s + i; }",
	"return;",
	"x = ((((1))));",
	"x = 1 << 2 >> 3 & 4 | 5 ^ 6;",
	"x = !a && ~b || -c;",
	"x = 1 ;; y = 2;",
	"if (1) { } else { }",
	"for(i=0;i<4;i=i+1){if(i%2){a=a+1;}else{a=a-1;}}",
	"# comment\nx = 1; // trailing",
	"x = 9223372036854775807;",
	// Multi-block control flow: chained and nested conditionals create
	// several basic blocks joined by branches.
	"if (a > 0) { x = a; } if (b > 0) { y = b; } z = x + y;",
	"if (a > b) { if (b > 0) { r = 1; } else { r = 2; } } else { r = 3; }",
	"while (a > 0) { if (a % 2) { s = s + a; } a = a - 1; }",
	// Unrolled-loop shapes: a loop whose body the unroller replicates,
	// and its already-unrolled straight-line equivalent.
	"s = 0; for (i = 0; i < 8; i = i + 1) { s = s + a * i; }",
	"s = s + a * a; s = s + b * b; s = s + c * c; s = s + d * d;",
	"for (i = 0; i < 6; i = i + 3) { x = x + i; y = y * 2; }",
	// Nested loops: the unroller must keep inner control flow intact.
	"for (i = 0; i < 3; i = i + 1) { for (j = 0; j < 2; j = j + 1) { s = s + i * j; } }",
	"i = 0; while (i < 4) { j = 0; while (j < i) { t = t + 1; j = j + 1; } i = i + 1; }",
}

// FuzzParse checks that arbitrary input never panics the front end, that
// the byte-scanning lexer agrees with the rune-based reference, and that
// anything that parses also lowers to verifiable IR (or fails cleanly).
func FuzzParse(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		checkLexMatchesReference(t, src)
		p, err := Parse(src)
		if err != nil {
			return // rejection is fine; panics are not
		}
		fn, err := Lower(p, "fuzz")
		if err != nil {
			return
		}
		if err := fn.Verify(); err != nil {
			t.Fatalf("lowered IR invalid for %q: %v", src, err)
		}
		// Unrolling must also keep the IR valid.
		u, err := Lower(Unroll(p, 2), "fuzz2")
		if err != nil {
			return
		}
		if err := u.Verify(); err != nil {
			t.Fatalf("unrolled IR invalid for %q: %v", src, err)
		}
		// Bounded evaluation must agree between original and unrolled.
		m1 := map[string]int64{"a": 3, "b": 5, "i": 0, "s": 0, "x": 2}
		m2 := map[string]int64{"a": 3, "b": 5, "i": 0, "s": 0, "x": 2}
		e1 := ir.EvalFunc(fn, m1, 10000)
		e2 := ir.EvalFunc(u, m2, 20000)
		if e1 == nil && e2 == nil {
			for k, v := range m1 {
				if m2[k] != v {
					t.Fatalf("unroll changed semantics for %q: %s %d vs %d", src, k, v, m2[k])
				}
			}
		}
	})
}
