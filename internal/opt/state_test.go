package opt

import (
	"fmt"
	"slices"
	"testing"

	"aviv/internal/bitset"
	"aviv/internal/dataflow"
	"aviv/internal/dataflow/dataflowtest"
	"aviv/internal/ir"
)

// TestGlobalStateReuseIsSound: globalOptimize keeps one dataflow.State
// across its rounds and re-summarizes only the blocks a round replaced.
// Over the differential corpus, before the first round and after every
// round, the reused state's liveness and available expressions must
// equal a fresh one-shot analysis of the function as it then is. Sets
// are compared by variable name and expression key, since the two
// analyses number variables and expressions independently.
func TestGlobalStateReuseIsSound(t *testing.T) {
	step := 1
	if testing.Short() {
		step = 10
	}
	replaced := 0
	forEachCorpusFunc(t, step, func(label string, f *ir.Func) {
		e := newEmitter()
		out := optimizeLocal(&e, f)
		g := newGlobal(out)
		for round := 0; ; round++ {
			at := fmt.Sprintf("%s round %d", label, round)
			compareLiveness(t, at, g.s.Liveness(), dataflow.Liveness(out))
			compareAvailable(t, at, g.s.Available(), dataflow.Available(out))
			before := slices.Clone(out.Blocks)
			changed := g.round(&e)
			for i := range before {
				if out.Blocks[i] != before[i] {
					replaced++
				}
			}
			if !changed {
				break
			}
		}
	})
	if replaced == 0 {
		t.Fatal("no round replaced a block; the comparison is vacuous")
	}
}

func compareLiveness(t *testing.T, at string, got, want *dataflow.LivenessResult) {
	t.Helper()
	names := func(r *dataflow.LivenessResult, s bitset.Set) []string {
		var out []string
		for j, v := range r.Vars {
			if s.Get(j) {
				out = append(out, v)
			}
		}
		slices.Sort(out)
		return out
	}
	for i, b := range got.G.F.Blocks {
		if g, w := names(got, got.In[i]), names(want, want.In[i]); !slices.Equal(g, w) {
			t.Fatalf("%s: block %s live-in %v, fresh analysis %v", at, b.Name, g, w)
		}
		if g, w := names(got, got.Out[i]), names(want, want.Out[i]); !slices.Equal(g, w) {
			t.Fatalf("%s: block %s live-out %v, fresh analysis %v", at, b.Name, g, w)
		}
	}
}

func compareAvailable(t *testing.T, at string, got, want *dataflow.AvailResult) {
	t.Helper()
	facts := func(r *dataflow.AvailResult, s bitset.Set) []string {
		var out []string
		for j, fact := range r.Facts {
			if s.Get(j) {
				of, _ := dataflowtest.FactOf(r.X, fact)
				out = append(out, of.Var+" = "+of.Expr)
			}
		}
		slices.Sort(out)
		return out
	}
	for i, b := range got.G.F.Blocks {
		if g, w := facts(got, got.In[i]), facts(want, want.In[i]); !slices.Equal(g, w) {
			t.Fatalf("%s: block %s available at entry %v, fresh analysis %v", at, b.Name, g, w)
		}
		if g, w := facts(got, got.Out[i]), facts(want, want.Out[i]); !slices.Equal(g, w) {
			t.Fatalf("%s: block %s available at exit %v, fresh analysis %v", at, b.Name, g, w)
		}
	}
}
