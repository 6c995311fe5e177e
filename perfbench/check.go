package main

import (
	"fmt"
	"sort"
	"strings"

	"aviv/internal/asm"
	"aviv/internal/ir"
	"aviv/internal/isdl"
	"aviv/internal/lang"
	"aviv/internal/sim"
)

// initialMemory is the data memory every served program runs from in
// the output check.
var initialMemory = map[string]int64{"a": 11, "b": 7, "c": 5, "d": 3}

// checker holds the output checks of one run. It runs outside the
// timed window.
type checker struct {
	m *isdl.Machine
	// first is the first assembly served for each program; every later
	// response for the program in the run must be byte-identical to it.
	first map[int]string
	// results is the semantic check of each program's first assembly.
	results map[int]checkResult
}

// checkResult is the verdict on one served program.
type checkResult struct {
	codeSize, cycles int
	err              error
}

func newChecker(m *isdl.Machine) *checker {
	return &checker{m: m, first: map[int]string{}, results: map[int]checkResult{}}
}

// same records the assembly served for prog and reports whether it is
// byte-identical to the first one served for it in this run.
func (c *checker) same(prog int, text string) bool {
	if first, ok := c.first[prog]; ok {
		return first == text
	}
	c.first[prog] = text
	return true
}

// semantic checks prog's first served assembly once per run: parse it,
// run it on the simulator, and compare the final memory with the
// interpreter on the unoptimized IR of src, so the reference comes from
// neither the back end nor the optimizer under test.
func (c *checker) semantic(prog int, src string) checkResult {
	if r, ok := c.results[prog]; ok {
		return r
	}
	r := c.run(src, c.first[prog])
	c.results[prog] = r
	return r
}

func (c *checker) run(src, text string) checkResult {
	p, err := asm.ParseProgram(text, c.m)
	if err != nil {
		return checkResult{err: fmt.Errorf("parse served assembly: %w", err)}
	}
	got, cycles, err := sim.RunProgram(p, copyMem(initialMemory), 1_000_000)
	if err != nil {
		return checkResult{err: fmt.Errorf("simulate served assembly: %w", err)}
	}
	ast, err := lang.Parse(src)
	if err != nil {
		return checkResult{err: fmt.Errorf("reference parse: %w", err)}
	}
	f, err := lang.Lower(ast, "main")
	if err != nil {
		return checkResult{err: fmt.Errorf("reference lower: %w", err)}
	}
	want := copyMem(initialMemory)
	if err := ir.EvalFunc(f, want, 0); err != nil {
		return checkResult{err: fmt.Errorf("reference interpreter: %w", err)}
	}
	if diff := memDiff(want, got); diff != "" {
		return checkResult{err: fmt.Errorf("final memory differs from the interpreter: %s", diff)}
	}
	return checkResult{codeSize: p.CodeSize(), cycles: cycles}
}

// memDiff names the first cell where got differs from want. Spill
// slots ($-prefixed) are the program's own scratch and are ignored.
func memDiff(want, got map[string]int64) string {
	keys := map[string]bool{}
	for k := range want {
		keys[k] = true
	}
	for k := range got {
		if !strings.HasPrefix(k, "$") {
			keys[k] = true
		}
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	for _, k := range sorted {
		w, wok := want[k]
		g, gok := got[k]
		if w != g || wok != gok {
			return fmt.Sprintf("mem[%s] = %d (set %v), interpreter says %d (set %v)", k, g, gok, w, wok)
		}
	}
	return ""
}

func copyMem(m map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
