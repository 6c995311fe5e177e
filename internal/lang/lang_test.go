package lang

import (
	"strings"
	"testing"
	"testing/quick"

	"aviv/internal/ir"
)

func mustLower(t *testing.T, src string) *ir.Func {
	t.Helper()
	p, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	f, err := Lower(p, "main")
	if err != nil {
		t.Fatalf("Lower: %v", err)
	}
	if err := f.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	return f
}

func run(t *testing.T, src string, mem map[string]int64) map[string]int64 {
	t.Helper()
	f := mustLower(t, src)
	out := map[string]int64{}
	for k, v := range mem {
		out[k] = v
	}
	if err := ir.EvalFunc(f, out, 0); err != nil {
		t.Fatalf("EvalFunc: %v", err)
	}
	return out
}

func TestStraightLine(t *testing.T) {
	mem := run(t, `
		x = a + b * 3;
		y = (a - b) * (a + b);
		z = x;
	`, map[string]int64{"a": 10, "b": 4})
	if mem["x"] != 22 || mem["y"] != 84 || mem["z"] != 22 {
		t.Errorf("mem = %v", mem)
	}
}

func TestOperatorsAndPrecedence(t *testing.T) {
	cases := []struct {
		src  string
		want int64
	}{
		{"r = 2 + 3 * 4;", 14},
		{"r = (2 + 3) * 4;", 20},
		{"r = 10 - 3 - 2;", 5}, // left assoc
		{"r = 7 % 3;", 1},
		{"r = 7 / 2;", 3},
		{"r = 1 << 4;", 16},
		{"r = 32 >> 2;", 8},
		{"r = 6 & 3;", 2},
		{"r = 6 | 3;", 7},
		{"r = 6 ^ 3;", 5},
		{"r = -5;", -5},
		{"r = ~0;", -1},
		{"r = !5;", 0},
		{"r = !0;", 1},
		{"r = 3 < 4;", 1},
		{"r = 3 >= 4;", 0},
		{"r = 3 == 3;", 1},
		{"r = 3 != 3;", 0},
		{"r = 1 && 2;", 1},
		{"r = 1 && 0;", 0},
		{"r = 0 || 3;", 1},
		{"r = 0 || 0;", 0},
		{"r = 1 + 2 == 3 && 4 > 1;", 1},
	}
	for _, c := range cases {
		mem := run(t, c.src, nil)
		if mem["r"] != c.want {
			t.Errorf("%s => %d, want %d", c.src, mem["r"], c.want)
		}
	}
}

func TestIfElse(t *testing.T) {
	src := `
		if (x > 10) { r = 1; } else { r = 2; }
		s = r * 10;
	`
	if mem := run(t, src, map[string]int64{"x": 20}); mem["r"] != 1 || mem["s"] != 10 {
		t.Errorf("x=20: %v", mem)
	}
	if mem := run(t, src, map[string]int64{"x": 5}); mem["r"] != 2 || mem["s"] != 20 {
		t.Errorf("x=5: %v", mem)
	}
}

func TestIfWithoutElse(t *testing.T) {
	src := `r = 0; if (x) { r = 7; } out = r + 1;`
	if mem := run(t, src, map[string]int64{"x": 1}); mem["out"] != 8 {
		t.Errorf("x=1: %v", mem)
	}
	if mem := run(t, src, map[string]int64{"x": 0}); mem["out"] != 1 {
		t.Errorf("x=0: %v", mem)
	}
}

func TestWhileLoop(t *testing.T) {
	src := `
		sum = 0;
		i = 0;
		while (i < n) {
			sum = sum + i;
			i = i + 1;
		}
	`
	mem := run(t, src, map[string]int64{"n": 10})
	if mem["sum"] != 45 {
		t.Errorf("sum = %d, want 45", mem["sum"])
	}
}

func TestForLoop(t *testing.T) {
	src := `
		acc = 0;
		for (i = 0; i < 8; i = i + 2) {
			acc = acc + i * i;
		}
	`
	mem := run(t, src, nil)
	if mem["acc"] != 0+4+16+36 {
		t.Errorf("acc = %d, want 56", mem["acc"])
	}
}

func TestNestedControl(t *testing.T) {
	src := `
		count = 0;
		for (i = 0; i < 5; i = i + 1) {
			if (i % 2 == 0) {
				count = count + 1;
			} else {
				count = count + 10;
			}
		}
	`
	mem := run(t, src, nil)
	if mem["count"] != 3+20 {
		t.Errorf("count = %d, want 23", mem["count"])
	}
}

func TestReturnStopsProgram(t *testing.T) {
	src := `
		x = 1;
		if (x) {
			y = 2;
		}
		return;
	`
	mem := run(t, src, nil)
	if mem["y"] != 2 {
		t.Errorf("mem = %v", mem)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"x = ;",
		"x = 1",       // missing semicolon
		"if x { }",    // missing parens
		"while (1) {", // unterminated
		"for (i = 0; i < 3) { }",
		"for (, = 0; i < 3; i = i + 1) { }", // init assigns no variable
		"for (i = 0; i < 3; 0 = 1) { }",     // post assigns no variable
		"for (; = 0; i < 3; i = i + 1) { }",
		"x = 1 +;",
		"x = (1;",
		"$ = 2;",
		"x = 1; y = 2; return; z = 3;", // unreachable
	}
	for _, src := range bad {
		p, err := Parse(src)
		if err != nil {
			continue
		}
		if _, err := Lower(p, "main"); err == nil {
			t.Errorf("accepted invalid program: %s", src)
		}
	}
}

func TestCommentsAndWhitespace(t *testing.T) {
	mem := run(t, `
		// a line comment
		x = 1; # hash comment
		y = x + 1;
	`, nil)
	if mem["y"] != 2 {
		t.Errorf("mem = %v", mem)
	}
}

func TestASTString(t *testing.T) {
	p, err := Parse(`for (i = 0; i < 4; i = i + 1) { if (i) { a = -i; } else { b = ~i; } } return;`)
	if err != nil {
		t.Fatal(err)
	}
	s := p.String()
	for _, want := range []string{"for (i = 0;", "if (i)", "else", "-i", "~i", "return;"} {
		if !strings.Contains(s, want) {
			t.Errorf("AST string missing %q:\n%s", want, s)
		}
	}
}

func TestUnrollCounted(t *testing.T) {
	src := `
		acc = 0;
		for (i = 0; i < 8; i = i + 1) {
			acc = acc + x * i;
		}
	`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	u := Unroll(p, 2)
	// The unrolled loop body must contain two copies of the accumulate.
	f, ok := u.Stmts[1].(*For)
	if !ok {
		t.Fatalf("statement 1 is %T", u.Stmts[1])
	}
	if len(f.Body) != 3 { // acc=...; i=i+1; acc=...
		t.Fatalf("unrolled body has %d stmts, want 3", len(f.Body))
	}
	// Semantics preserved.
	mem := map[string]int64{"x": 3}
	fn, err := Lower(u, "main")
	if err != nil {
		t.Fatal(err)
	}
	if err := ir.EvalFunc(fn, mem, 0); err != nil {
		t.Fatal(err)
	}
	if mem["acc"] != 3*(0+1+2+3+4+5+6+7) {
		t.Errorf("acc = %d, want 84", mem["acc"])
	}
}

func TestUnrollSkipsNonDivisible(t *testing.T) {
	src := `for (i = 0; i < 7; i = i + 1) { a = a + 1; }` // 7 iterations
	p, _ := Parse(src)
	u := Unroll(p, 2)
	f := u.Stmts[0].(*For)
	if len(f.Body) != 1 {
		t.Errorf("non-divisible trip count unrolled: %d stmts", len(f.Body))
	}
}

func TestUnrollSkipsNonCounted(t *testing.T) {
	cases := []string{
		`for (i = 0; i < n; i = i + 1) { a = a + 1; }`,  // dynamic bound
		`for (i = 0; i < 8; i = i + 1) { i = i + 1; }`,  // body writes i
		`for (i = 0; i != 8; i = i + 1) { a = a + 1; }`, // wrong cond op
		`for (i = 0; i < 8; i = i * 2) { a = a + 1; }`,  // wrong step
	}
	for _, src := range cases {
		p, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		u := Unroll(p, 2)
		f := u.Stmts[0].(*For)
		if len(f.Body) != 1 {
			t.Errorf("unsafe loop was unrolled: %s", src)
		}
	}
}

// Property: unrolling by any supported factor preserves program results.
func TestQuickUnrollPreservesSemantics(t *testing.T) {
	src := `
		acc = 0;
		prod = 1;
		for (i = 0; i < 12; i = i + 1) {
			acc = acc + x;
			if (i % 2) { prod = prod + acc; }
		}
	`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Lower(p, "main")
	if err != nil {
		t.Fatal(err)
	}
	prop := func(x int64, fsel uint8) bool {
		factor := []int{2, 3, 4, 6}[int(fsel)%4]
		u, err := Lower(Unroll(p, factor), "main")
		if err != nil {
			return false
		}
		m1 := map[string]int64{"x": x % 1000}
		m2 := map[string]int64{"x": x % 1000}
		if err := ir.EvalFunc(base, m1, 0); err != nil {
			return false
		}
		if err := ir.EvalFunc(u, m2, 0); err != nil {
			return false
		}
		return m1["acc"] == m2["acc"] && m1["prod"] == m2["prod"]
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestBreak(t *testing.T) {
	src := `
		s = 0;
		for (i = 0; i < 100; i = i + 1) {
			if (i == 5) { break; }
			s = s + i;
		}
		after = i;
	`
	mem := run(t, src, nil)
	if mem["s"] != 10 {
		t.Errorf("s = %d, want 10", mem["s"])
	}
	if mem["after"] != 5 {
		t.Errorf("after = %d, want 5 (break skips post)", mem["after"])
	}
}

func TestContinueRunsForPost(t *testing.T) {
	src := `
		s = 0;
		for (i = 0; i < 10; i = i + 1) {
			if (i % 2 == 0) { continue; }
			s = s + i;
		}
	`
	mem := run(t, src, nil)
	if mem["s"] != 1+3+5+7+9 {
		t.Errorf("s = %d, want 25 (continue must run the post)", mem["s"])
	}
	if mem["i"] != 10 {
		t.Errorf("i = %d, want 10", mem["i"])
	}
}

func TestBreakContinueInWhile(t *testing.T) {
	src := `
		n = 0;
		hits = 0;
		while (1) {
			n = n + 1;
			if (n >= 20) { break; }
			if (n % 3) { continue; }
			hits = hits + 1;
		}
	`
	mem := run(t, src, nil)
	if mem["n"] != 20 {
		t.Errorf("n = %d, want 20", mem["n"])
	}
	if mem["hits"] != 6 { // 3,6,9,12,15,18
		t.Errorf("hits = %d, want 6", mem["hits"])
	}
}

func TestBreakBindsToInnerLoop(t *testing.T) {
	src := `
		total = 0;
		for (i = 0; i < 3; i = i + 1) {
			for (j = 0; j < 10; j = j + 1) {
				if (j == 2) { break; }
				total = total + 1;
			}
		}
	`
	mem := run(t, src, nil)
	if mem["total"] != 6 {
		t.Errorf("total = %d, want 6 (inner break only)", mem["total"])
	}
}

func TestBreakOutsideLoopRejected(t *testing.T) {
	for _, src := range []string{`break;`, `continue;`, `if (x) { break; }`} {
		p, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if _, err := Lower(p, "main"); err == nil {
			t.Errorf("accepted %q outside a loop", src)
		}
	}
}

func TestUnrollSkipsLoopsWithEscapes(t *testing.T) {
	src := `for (i = 0; i < 8; i = i + 1) { if (i == 3) { break; } a = a + 1; }`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	u := Unroll(p, 2)
	f := u.Stmts[0].(*For)
	if len(f.Body) != 2 {
		t.Errorf("loop with break was unrolled")
	}
	// But nested loops with their own escapes unroll the OUTER loop fine.
	src2 := `for (i = 0; i < 8; i = i + 1) { while (x) { break; } a = a + 1; }`
	p2, _ := Parse(src2)
	u2 := Unroll(p2, 2)
	f2 := u2.Stmts[0].(*For)
	if len(f2.Body) <= 2 {
		t.Errorf("outer loop with only nested escapes was not unrolled")
	}
}

// TestNumberLiterals pins the decimal-only literal rule: in-range
// decimal literals parse to their value, while a multi-digit literal
// with a leading zero and one past int64 are errors naming the line.
func TestNumberLiterals(t *testing.T) {
	for src, want := range map[string]int64{
		"x = 0;":                   0,
		"x = 7;":                   7,
		"x = 9223372036854775807;": 9223372036854775807,
	} {
		p, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if got := p.Stmts[0].(*Assign).X.(*Num).Value; got != want {
			t.Errorf("%s: literal = %d, want %d", src, got, want)
		}
	}
	for _, lit := range []string{"010", "09", "00", "9223372036854775808"} {
		src := "y = 1;\nx = " + lit + ";"
		_, err := Parse(src)
		if err == nil || !strings.Contains(err.Error(), "line 2") || !strings.Contains(err.Error(), lit) {
			t.Errorf("%q: Parse error = %v, want one naming line 2 and the literal", src, err)
		}
	}
}

// TestShortCircuitGuardsTrap: && and || evaluate their right operand
// only when the left one does not decide the result, so a division by
// zero on the right cannot trap when it is not reached. Lower keeps the
// flat, branch-free form unless the right operand can trap.
func TestShortCircuitGuardsTrap(t *testing.T) {
	for _, tc := range []struct {
		src   string
		a, b  int64
		x     int64
		traps bool
	}{
		{"if (a && (5 % b)) { x = 1; } else { x = 2; }", 0, 0, 2, false},
		{"if (a && (5 % b)) { x = 1; } else { x = 2; }", 1, 2, 1, false},
		{"if (a && (5 % b)) { x = 1; } else { x = 2; }", 1, 0, 0, true},
		{"if (a || (5 / b)) { x = 1; } else { x = 2; }", 1, 0, 1, false},
		{"if (a || (5 / b)) { x = 1; } else { x = 2; }", 0, 5, 1, false},
		{"if (a || (5 / b)) { x = 1; } else { x = 2; }", 0, 0, 0, true},
		{"x = a && (b && (7 % b));", 1, 0, 0, false},
		{"x = a || !(b || (7 / b));", 0, 0, 0, true},
		// A short circuit on the right of another operator: the left
		// operand's value is carried into the block where it ends.
		{"x = (b + 4) + (a && (5 % b));", 0, 0, 4, false},
		{"x = (b + 4) + (a && (5 % b));", 1, 2, 7, false},
		{"x = b - (1 + (a || (4 / b)));", 1, 0, -2, false},
		{"x = -(a && (5 % b)) * (b + 1);", 1, 3, -4, false},
		{"if ((b + 1) == (a || (1 / b))) { x = 1; } else { x = 2; }", 1, 0, 1, false},
		{"if ((b + 1) == (a || (1 / b))) { x = 1; } else { x = 2; }", 0, 1, 2, false},
		{"if ((b + 1) == (a || (1 / b))) { x = 1; } else { x = 2; }", 0, 0, 0, true},
		// A loop condition that splits its block is re-evaluated from
		// its start on every iteration and after continue.
		{"i = 0; x = 0; while (i < 3 && (6 / (3 - i))) { x = x + 1; i = i + 1; }", 0, 0, 3, false},
		{"x = 0; for (i = 0; i < 4 && (12 / (4 - i)); i = i + 1) { if (i == 1) { continue; } x = x + i; }", 0, 0, 5, false},
	} {
		p, err := Parse(tc.src)
		if err != nil {
			t.Fatalf("%s: %v", tc.src, err)
		}
		f, err := Lower(p, "main")
		if err != nil {
			t.Fatalf("%s: %v", tc.src, err)
		}
		mem := map[string]int64{"a": tc.a, "b": tc.b}
		err = ir.EvalFunc(f, mem, 0)
		if tc.traps {
			if err == nil {
				t.Errorf("%s with a=%d b=%d: no trap, want a division by zero", tc.src, tc.a, tc.b)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s with a=%d b=%d: %v\n%s", tc.src, tc.a, tc.b, err, f)
		}
		if mem["x"] != tc.x {
			t.Errorf("%s with a=%d b=%d: x = %d, want %d", tc.src, tc.a, tc.b, mem["x"], tc.x)
		}
	}

	// Right operands that cannot trap keep the block whole.
	for src, blocks := range map[string]int{
		"x = a && b;":        1,
		"x = a || (b / 5);":  1,
		"x = a && (b % -1);": 3, // the divisor is a negation, not a literal
		"x = a && (b / c);":  3,
		"x = (a / b) || c;":  1, // the left operand always runs
	} {
		p, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		f, err := Lower(p, "main")
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if len(f.Blocks) != blocks {
			t.Errorf("%s: lowered to %d blocks, want %d\n%s", src, len(f.Blocks), blocks, f)
		}
	}
}
