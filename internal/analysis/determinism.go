package analysis

import (
	"go/ast"
	"go/types"
	"strconv"
)

// detComponents are the compile-path packages: everything that runs
// between source text and emitted bytes, where any ordering leak
// breaks the byte-identical-output guarantee the differential tests
// stand on.
var detComponents = []string{
	"internal/cover",
	"internal/sndag",
	"internal/regalloc",
	"internal/place",
	"internal/asm",
	"internal/opt",
	"internal/dataflow",
	"internal/dataflow/diag",
	"internal/verify",
	// The facade derives the per-block cache keys and assembles cached
	// and fresh blocks into one program; any ordering leak there breaks
	// byte-identical output directly.
	"aviv",
	// The machine-zoo generator is seed-deterministic by contract: the
	// same seed must emit byte-identical machine descriptions, so it is
	// compile-path for ordering purposes.
	"internal/zoo",
}

// Determinism flags constructs that let run-to-run nondeterminism
// reach a compile result: map iteration whose order escapes (into an
// unsorted slice, an output stream, or a returned element), wall-clock
// reads, global randomness, and fmt printing of maps whose keys
// format by address.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: "in compile-path packages, flag map-iteration order escaping into " +
		"appended slices, emitted output, or returned elements; time.Now; " +
		"math/rand; and fmt printing of address-keyed maps",
	NeedTypes:  true,
	Components: detComponents,
	Run:        runDeterminism,
}

func runDeterminism(pass *Pass) error {
	for _, f := range pass.Files {
		// math/rand is banned wholesale on the compile path: even a
		// seeded generator is shared mutable state whose draw order
		// depends on scheduling. Flag the import, once.
		for _, imp := range f.Imports {
			if path, err := strconv.Unquote(imp.Path.Value); err == nil {
				if path == "math/rand" || path == "math/rand/v2" {
					pass.Reportf(imp.Pos(), "determinism: math/rand imported in a compile-path package; randomness must flow from explicit seeds outside the compiler")
				}
			}
		}

		stmtLists(f, func(list []ast.Stmt) {
			for i, stmt := range list {
				rng, ok := stmt.(*ast.RangeStmt)
				if !ok || !rangesOverMap(pass.Info, rng) {
					continue
				}
				checkMapRange(pass, rng, list[i+1:])
			}
		})

		inspectNoFuncLit(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch name := pkgFuncCall(pass.Info, call, "time"); name {
			case "Now", "Since", "Until":
				pass.Reportf(call.Pos(), "determinism: wall-clock read (time.%s) in a compile-path package; timings belong in internal/metrics, outside the compile result", name)
			}
			if name := pkgFuncCall(pass.Info, call, "fmt"); isPrintName(name) {
				for _, arg := range call.Args {
					if t, ok := pass.Info.Types[arg]; ok && hasUnorderedMapKeys(t.Type) {
						pass.Reportf(arg.Pos(), "determinism: fmt.%s formats a map whose keys print in address order (%s); emit sorted entries instead", name, types.TypeString(t.Type, nil))
					}
				}
			}
			return true
		})
	}
	return nil
}

func rangesOverMap(info *types.Info, rng *ast.RangeStmt) bool {
	t, ok := info.Types[rng.X]
	if !ok || t.Type == nil {
		return false
	}
	_, isMap := t.Type.Underlying().(*types.Map)
	return isMap
}

// checkMapRange inspects one range-over-map body for order leaks.
// following holds the statements after the loop in its enclosing list,
// for the sort-rescue scan.
func checkMapRange(pass *Pass, rng *ast.RangeStmt, following []ast.Stmt) {
	keyObj := declaredObj(pass.Info, rng.Key)
	valObj := declaredObj(pass.Info, rng.Value)

	inspectNoFuncLit(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, rhs := range n.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !isBuiltinAppend(pass.Info, call) || len(n.Lhs) == 0 {
					continue
				}
				target := appendTarget(pass.Info, n.Lhs[0])
				if target == nil || declaredWithin(target, rng) {
					continue
				}
				if sortedAfter(pass.Info, following, target) {
					continue // append-then-sort: the canonical deterministic idiom
				}
				pass.Reportf(n.Pos(), "determinism: map iteration order reaches %s via append and the slice is not sorted afterwards; sort it (or iterate sorted keys)", target.Name())
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if usesObject(pass.Info, res, keyObj) || usesObject(pass.Info, res, valObj) {
					pass.Reportf(n.Pos(), "determinism: returning an element chosen by map iteration selects an arbitrary entry")
					break
				}
			}
		case *ast.CallExpr:
			if name := pkgFuncCall(pass.Info, n, "fmt"); isPrintName(name) {
				pass.Reportf(n.Pos(), "determinism: fmt.%s inside range over map emits in random order; collect and sort first", name)
			} else if isWriteMethod(n) {
				pass.Reportf(n.Pos(), "determinism: write call inside range over map emits in random order; collect and sort first")
			}
		}
		return true
	})
}

// declaredObj returns the object an ident in a range clause defines or
// assigns, nil for `_` or non-ident expressions.
func declaredObj(info *types.Info, e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	return info.ObjectOf(id)
}

func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// appendTarget resolves the variable an append assignment writes to:
// a plain ident, or the field/variable at the base of a selector.
func appendTarget(info *types.Info, lhs ast.Expr) types.Object {
	switch lhs := lhs.(type) {
	case *ast.Ident:
		return info.ObjectOf(lhs)
	case *ast.SelectorExpr:
		return info.ObjectOf(lhs.Sel)
	}
	return nil
}

// declaredWithin reports whether obj is declared inside the range
// statement itself — appends to loop-local slices cannot leak order.
func declaredWithin(obj types.Object, rng *ast.RangeStmt) bool {
	return obj.Pos() >= rng.Pos() && obj.Pos() <= rng.End()
}

// sortedAfter reports whether any statement after the loop passes
// target to a sort/slices call — the append-then-sort idiom that makes
// map-order appends deterministic.
func sortedAfter(info *types.Info, following []ast.Stmt, target types.Object) bool {
	for _, stmt := range following {
		found := false
		ast.Inspect(stmt, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if pkgFuncCall(info, call, "sort") != "" || pkgFuncCall(info, call, "slices") != "" {
				for _, arg := range call.Args {
					if usesObject(info, arg, target) {
						found = true
					}
				}
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

func isPrintName(name string) bool {
	switch name {
	case "Print", "Printf", "Println",
		"Fprint", "Fprintf", "Fprintln",
		"Sprint", "Sprintf", "Sprintln":
		return true
	}
	return false
}

// isWriteMethod matches method calls that append to an output stream:
// Write, WriteString, WriteByte, WriteRune on any receiver.
func isWriteMethod(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch sel.Sel.Name {
	case "Write", "WriteString", "WriteByte", "WriteRune":
		return true
	}
	return false
}

// hasUnorderedMapKeys reports whether t is a map whose key type fmt
// orders by machine address (pointers, channels, functions) or by
// unstable type identity (interfaces) — the cases where fmt's sorted
// map printing is still nondeterministic across runs.
func hasUnorderedMapKeys(t types.Type) bool {
	m, ok := t.Underlying().(*types.Map)
	if !ok {
		return false
	}
	switch m.Key().Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Signature, *types.Interface:
		return true
	}
	return false
}
