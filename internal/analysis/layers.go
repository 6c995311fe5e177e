package analysis

import (
	"fmt"
	"strconv"
	"strings"
)

// ModulePath is the import-path prefix of the module the layer table
// describes. Only imports inside the module are layer-checked; std and
// (hypothetical) third-party imports are free.
const ModulePath = "aviv"

// layerOf assigns every module component to a layer. An import edge is
// legal only when it goes to a strictly lower layer AND appears in
// allowedImports — the layer number gives the coarse direction
// (foundation at 0, services on top), the edge table gives the exact
// declared architecture. TestLayerTableIsDAG pins the two views
// against each other, and TestLayeringMatchesDesign pins both against
// the layer diagram in DESIGN.md §11.
var layerOf = map[string]int{
	// Layer 0 — foundation: pure data structures and leaf utilities.
	"internal/bitset":  0,
	"internal/ir":      0,
	"internal/lru":     0,
	"internal/metrics": 0,

	// Layer 1 — languages: the two front ends and the dataflow core,
	// all speaking plain IR.
	"internal/isdl":     1,
	"internal/lang":     1,
	"internal/dataflow": 1,

	// Layer 2 — IR transforms and analyses over layer-1 vocabularies.
	"internal/sndag":         2,
	"internal/opt":           2,
	"internal/place":         2,
	"internal/dataflow/diag": 2,

	// Layer 3 — the covering engine, the heart of the compiler.
	"internal/cover": 3,

	// Layer 4 — consumers of coverings.
	"internal/regalloc": 4,
	"internal/peephole": 4,
	"internal/baseline": 4,

	// Layer 5 — code emission and workload generation.
	"internal/asm":   5,
	"internal/bench": 5,

	// Layer 6 — post-hoc checkers over emitted code.
	"internal/verify": 6,
	"internal/sim":    6,

	// Layer 7 — the facade and self-contained service infrastructure.
	"aviv":               7,
	"internal/zoo":       7,
	"internal/diskcache": 7,

	// Layer 8 — the static-analysis suite, which must stay out of the
	// compiler proper.
	"internal/analysis": 8,

	// Layer 9 — the compile service.
	"internal/server": 9,

	// Layer 10 — the compile cluster: consistent-hash routing, cache
	// peering, and cluster-wide single-flight over embedded servers.
	"internal/cluster": 10,

	// Layer 11 — binaries, examples, and test tooling: import anything,
	// imported by nothing (the analysistest harness is imported only
	// from _test files, which the layering pass does not load).
	"cmd":                            11,
	"examples":                       11,
	"internal/analysis/analysistest": 11,
}

// allowedImports is the declared architecture: every legal
// module-internal import edge, exactly. A build that introduces an
// edge missing here fails `avivlint ./...` naming the edge, even if
// the edge happens to point downward — growing the architecture is a
// deliberate act of editing this table (and DESIGN.md §11), not a side
// effect of adding an import. cmd and examples are absent on purpose:
// they may import any component, and nothing may import them.
var allowedImports = map[string][]string{
	"internal/bitset":  {},
	"internal/ir":      {},
	"internal/lru":     {},
	"internal/metrics": {},

	"internal/isdl":     {"internal/ir"},
	"internal/lang":     {"internal/ir"},
	"internal/dataflow": {"internal/bitset", "internal/ir"},

	"internal/sndag":         {"internal/ir", "internal/isdl"},
	"internal/opt":           {"internal/dataflow", "internal/ir"},
	"internal/place":         {"internal/ir", "internal/isdl"},
	"internal/dataflow/diag": {"internal/dataflow", "internal/ir", "internal/metrics"},

	"internal/cover": {"internal/bitset", "internal/dataflow", "internal/ir", "internal/isdl", "internal/lru", "internal/sndag"},

	"internal/regalloc": {"internal/cover", "internal/isdl"},
	"internal/peephole": {"internal/cover", "internal/isdl"},
	"internal/baseline": {"internal/cover", "internal/ir", "internal/isdl", "internal/sndag"},

	"internal/asm":   {"internal/cover", "internal/ir", "internal/isdl", "internal/regalloc"},
	"internal/bench": {"internal/cover", "internal/ir", "internal/isdl", "internal/peephole", "internal/sndag"},

	"internal/verify": {"internal/asm", "internal/ir", "internal/isdl"},
	"internal/sim":    {"internal/asm", "internal/ir"},

	"internal/zoo":       {"internal/ir", "internal/isdl", "internal/verify"},
	"internal/diskcache": {},
	"aviv": {
		"internal/asm", "internal/cover", "internal/ir", "internal/isdl",
		"internal/lang", "internal/metrics", "internal/opt",
		"internal/peephole", "internal/place", "internal/regalloc",
		"internal/verify",
	},

	"internal/server": {"aviv", "internal/cover", "internal/diskcache", "internal/isdl", "internal/lru", "internal/metrics"},

	"internal/cluster": {"internal/cover", "internal/diskcache", "internal/metrics", "internal/server"},

	"internal/analysis":              {},
	"internal/analysis/analysistest": {"internal/analysis"},
}

// Component maps a full import path to its layer-table component:
// the module root is "aviv", internal packages keep their
// module-relative path ("internal/cover"), and everything under cmd/
// or examples/ collapses to a single top component. Non-module paths
// map to "".
func Component(importPath string) string {
	if importPath == ModulePath {
		return "aviv"
	}
	rel, ok := strings.CutPrefix(importPath, ModulePath+"/")
	if !ok {
		return ""
	}
	switch {
	case rel == "cmd" || strings.HasPrefix(rel, "cmd/"):
		return "cmd"
	case rel == "examples" || strings.HasPrefix(rel, "examples/"):
		return "examples"
	}
	return rel
}

// CheckEdge decides whether the import edge from -> to (both component
// names) is legal under the declared architecture, returning a
// violation description naming the exact edge otherwise. It is shared
// by the layering pass and by the synthetic-graph tests, so the rule
// the fixtures prove is the rule the tree is gated on.
func CheckEdge(from, to string) error {
	fromLayer, ok := layerOf[from]
	if !ok {
		return fmt.Errorf("package component %q is not assigned a layer in internal/analysis/layers.go", from)
	}
	toLayer, ok := layerOf[to]
	if !ok {
		return fmt.Errorf("imported component %q is not assigned a layer in internal/analysis/layers.go", to)
	}
	if to == "cmd" || to == "examples" {
		return fmt.Errorf("forbidden import edge %s -> %s: nothing may import %s", from, to, to)
	}
	if from == "cmd" || from == "examples" {
		return nil // binaries and examples may import any component
	}
	for _, allowed := range allowedImports[from] {
		if allowed == to {
			return nil
		}
	}
	direction := ""
	if toLayer >= fromLayer {
		direction = "; the edge points upward through the layer DAG"
	}
	return fmt.Errorf(
		"forbidden import edge %s -> %s (layer %s -> layer %s): not in the allowed-edges table in internal/analysis/layers.go%s",
		from, to, strconv.Itoa(fromLayer), strconv.Itoa(toLayer), direction)
}

// Layering enforces the layer DAG over the module's import graph. It
// is purely syntactic (import declarations only), so it also runs on
// fixtures whose imports cannot resolve.
var Layering = &Analyzer{
	Name: "layering",
	Doc: "enforce the declared package layer DAG: every module-internal import " +
		"must appear in the allowed-edges table in internal/analysis/layers.go, " +
		"and nothing may import cmd or examples",
	Run: runLayering,
}

func runLayering(pass *Pass) error {
	from := Component(pass.Path)
	if from == "" {
		return nil // not a module package; nothing to check
	}
	if _, ok := layerOf[from]; !ok {
		if len(pass.Files) > 0 {
			pass.Reportf(pass.Files[0].Package,
				"package %s (component %s) is not assigned a layer in internal/analysis/layers.go", pass.Path, from)
		}
		return nil
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			to := Component(path)
			if to == "" || to == from {
				continue
			}
			if err := CheckEdge(from, to); err != nil {
				pass.Reportf(imp.Pos(), "%v", err)
			}
		}
	}
	return nil
}
