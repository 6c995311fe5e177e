package bench

import (
	"fmt"
	"strings"
)

// MutateSource applies one deterministic, scope-safe, one-line edit to a
// mini-C program: it rotates the operator of an assignment line
// (`v = x OP y;`) or rewrites the comparison and constant of an if header
// (`if (v CMP K) {`). Variable names are never touched, so every mutant
// of a valid program is itself valid — the edit changes computation, not
// structure. The same (src, seed) pair always yields the same mutant,
// and a chosen line is always genuinely changed (operators rotate, never
// stay put). Sources with no editable line come back unchanged.
//
// It is the edit model of the incremental-compilation studies: the
// smallest change a developer makes between two compiles, against which
// the incremental compile's blocks-recompiled ratio is measured.
func MutateSource(src string, seed int64) string {
	state := uint64(seed)*2654435761 + 12345
	next := func(n int) int {
		state = state*6364136223846793005 + 1442695040888963407
		return int((state >> 33) % uint64(n))
	}
	lines := strings.Split(src, "\n")
	var candidates []int
	for i, ln := range lines {
		if isAssignLine(ln) || isIfLine(ln) {
			candidates = append(candidates, i)
		}
	}
	if len(candidates) == 0 {
		return src
	}
	i := candidates[next(len(candidates))]
	if isIfLine(lines[i]) {
		lines[i] = mutateIfLine(lines[i], next)
	} else {
		lines[i] = mutateAssignLine(lines[i], next)
	}
	return strings.Join(lines, "\n")
}

var editOps = []string{"+", "-", "*"}
var editCmps = []string{">", "<", ">=", "<=", "==", "!="}

func indexOf(list []string, s string) int {
	for i, v := range list {
		if v == s {
			return i
		}
	}
	return -1
}

func lineIndent(ln string) string {
	return ln[:len(ln)-len(strings.TrimLeft(ln, " \t"))]
}

// isAssignLine matches the generator's arithmetic shape `v = x OP y;`.
func isAssignLine(ln string) bool {
	f := strings.Fields(ln)
	return len(f) == 5 && f[1] == "=" && indexOf(editOps, f[3]) >= 0 && strings.HasSuffix(f[4], ";")
}

// isIfLine matches the generator's branch shape `if (v CMP K) {`.
func isIfLine(ln string) bool {
	f := strings.Fields(ln)
	return len(f) == 5 && f[0] == "if" && strings.HasPrefix(f[1], "(") &&
		indexOf(editCmps, f[2]) >= 0 && strings.HasSuffix(f[3], ")") && f[4] == "{"
}

// mutateAssignLine rotates the operator to one of the other two, so the
// edit always changes the computed value's expression.
func mutateAssignLine(ln string, next func(int) int) string {
	f := strings.Fields(ln)
	op := editOps[(indexOf(editOps, f[3])+1+next(len(editOps)-1))%len(editOps)]
	return fmt.Sprintf("%s%s = %s %s %s", lineIndent(ln), f[0], f[2], op, f[4])
}

// mutateIfLine rotates the comparison (never identity) and redraws the
// constant from the generator's own [0,50) range.
func mutateIfLine(ln string, next func(int) int) string {
	f := strings.Fields(ln)
	cmp := editCmps[(indexOf(editCmps, f[2])+1+next(len(editCmps)-1))%len(editCmps)]
	return fmt.Sprintf("%sif %s %s %d) {", lineIndent(ln), f[1], cmp, next(50))
}
