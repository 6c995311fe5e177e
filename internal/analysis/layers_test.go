package analysis

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestLayerTableIsDAG pins the internal consistency of layers.go:
// every allowed edge connects two declared components and points
// strictly downward, so the edge table cannot smuggle in a cycle or an
// upward dependency that the coarse layer story contradicts.
func TestLayerTableIsDAG(t *testing.T) {
	for from, tos := range allowedImports {
		fromLayer, ok := layerOf[from]
		if !ok {
			t.Errorf("allowedImports key %q is not in layerOf", from)
			continue
		}
		seen := map[string]bool{}
		for _, to := range tos {
			if seen[to] {
				t.Errorf("duplicate allowed edge %s -> %s", from, to)
			}
			seen[to] = true
			toLayer, ok := layerOf[to]
			if !ok {
				t.Errorf("allowed edge %s -> %s targets undeclared component", from, to)
				continue
			}
			if toLayer >= fromLayer {
				t.Errorf("allowed edge %s (layer %d) -> %s (layer %d) does not point strictly downward",
					from, fromLayer, to, toLayer)
			}
		}
	}
	for comp := range layerOf {
		if comp == "cmd" || comp == "examples" {
			if _, ok := allowedImports[comp]; ok {
				t.Errorf("%s must not appear in allowedImports; it may import anything by rule", comp)
			}
			continue
		}
		if _, ok := allowedImports[comp]; !ok {
			t.Errorf("component %q has a layer but no allowedImports entry", comp)
		}
	}
}

// TestCheckEdgeRejectsUpward is the synthetic-graph proof the
// acceptance criteria ask for: the exact upward edge ir -> server is
// rejected, as is importing cmd, while declared edges pass.
func TestCheckEdgeRejectsUpward(t *testing.T) {
	if err := CheckEdge("internal/ir", "internal/server"); err == nil {
		t.Fatal("ir -> server must be rejected")
	} else if !strings.Contains(err.Error(), "internal/ir -> internal/server") {
		t.Errorf("violation must name the exact edge, got: %v", err)
	}
	if err := CheckEdge("internal/server", "cmd"); err == nil ||
		!strings.Contains(err.Error(), "nothing may import cmd") {
		t.Errorf("importing cmd must be rejected by rule, got: %v", err)
	}
	if err := CheckEdge("internal/cover", "internal/ir"); err != nil {
		t.Errorf("declared edge cover -> ir rejected: %v", err)
	}
	if err := CheckEdge("cmd", "internal/server"); err != nil {
		t.Errorf("cmd may import any component, got: %v", err)
	}
	if err := CheckEdge("internal/ghost", "internal/ir"); err == nil {
		t.Error("undeclared source component must be rejected")
	}
	// Test-support packages are imported only by _test.go files, which
	// the pass does not load: any loaded edge into one is refused, from
	// cmd and examples too.
	for _, e := range [][2]string{
		{"cmd", "internal/dataflow/dataflowtest"},
		{"aviv", "internal/analysis/analysistest"},
	} {
		if err := CheckEdge(e[0], e[1]); err == nil || !strings.Contains(err.Error(), "test support") {
			t.Errorf("%s -> %s must be rejected as a test-support import, got: %v", e[0], e[1], err)
		}
	}
}

func TestComponentMapping(t *testing.T) {
	cases := map[string]string{
		"aviv":                                "aviv",
		"aviv/internal/cover":                 "internal/cover",
		"aviv/internal/dataflow/diag":         "internal/dataflow/diag",
		"aviv/cmd/avivcc":                     "cmd",
		"aviv/examples/quickstart":            "examples",
		"aviv/internal/analysis/analysistest": "internal/analysis/analysistest",
		"fmt":                                 "",
		"avivother/internal/x":                "",
	}
	for path, want := range cases {
		if got := Component(path); got != want {
			t.Errorf("Component(%q) = %q, want %q", path, got, want)
		}
	}
}

// TestLayerTableMatchesReality diffs the declared edge table against
// the import graph `go list` reports, in both directions: an
// undeclared real edge means the architecture drifted (avivlint would
// fail), and a declared edge with no real import means the table is
// stale and overstates coupling.
func TestLayerTableMatchesReality(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go list")
	}
	cmd := exec.Command("go", "list", "-json=ImportPath,Imports", "aviv/...")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, stderr.String())
	}
	real := map[string]map[string]bool{} // from component -> to components
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p struct {
			ImportPath string
			Imports    []string
		}
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		from := Component(p.ImportPath)
		if from == "" {
			continue
		}
		if real[from] == nil {
			real[from] = map[string]bool{}
		}
		for _, imp := range p.Imports {
			if to := Component(imp); to != "" && to != from {
				real[from][to] = true
			}
		}
	}
	if len(real) < 10 {
		t.Fatalf("go list saw only %d components; wrong working directory?", len(real))
	}
	// Direction 1: every real edge must be legal.
	for from, tos := range real {
		for to := range tos {
			if err := CheckEdge(from, to); err != nil {
				t.Errorf("real import violates the declared architecture: %v", err)
			}
		}
	}
	// Direction 2: every declared edge must exist in reality.
	for from, tos := range allowedImports {
		for _, to := range tos {
			if !real[from][to] {
				t.Errorf("stale allowed edge %s -> %s: no such import in the tree; prune it from layers.go", from, to)
			}
		}
	}
	// Every real component must be declared.
	for from := range real {
		if _, ok := layerOf[from]; !ok {
			t.Errorf("package component %q exists in the tree but has no layer", from)
		}
	}
}

var designLayerRe = regexp.MustCompile(`^\s*layer (\d+): (.+?)\s*$`)

// TestLayeringMatchesDesign parses the layer list in DESIGN.md §11 and
// requires exact agreement with layerOf: same components, same layer
// numbers. Editing the architecture means editing both, consciously.
func TestLayeringMatchesDesign(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	doc := map[string]int{}
	for _, line := range strings.Split(string(data), "\n") {
		m := designLayerRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		layer, err := strconv.Atoi(m[1])
		if err != nil {
			t.Fatalf("bad layer number in DESIGN.md line %q", line)
		}
		for _, comp := range strings.Fields(m[2]) {
			if prev, dup := doc[comp]; dup {
				t.Errorf("DESIGN.md lists %s twice (layers %d and %d)", comp, prev, layer)
			}
			doc[comp] = layer
		}
	}
	if len(doc) == 0 {
		t.Fatal("DESIGN.md contains no `layer N: ...` lines; §11 must carry the machine-readable layer list")
	}
	for comp, layer := range layerOf {
		if docLayer, ok := doc[comp]; !ok {
			t.Errorf("component %s (layer %d) is missing from the DESIGN.md layer list", comp, layer)
		} else if docLayer != layer {
			t.Errorf("component %s: DESIGN.md says layer %d, layers.go says %d", comp, docLayer, layer)
		}
	}
	for comp := range doc {
		if _, ok := layerOf[comp]; !ok {
			t.Errorf("DESIGN.md lists component %s which layers.go does not declare", comp)
		}
	}
}
