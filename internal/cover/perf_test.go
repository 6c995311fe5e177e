package cover

import (
	"fmt"
	"testing"

	"aviv/internal/ir"
	"aviv/internal/isdl"
)

// firBlock is an n-tap FIR inner block, y = sum_i x[i]*c[i]: a
// multiply-accumulate chain with enough ILP to exercise clique
// generation and enough depth to exercise the greedy covering loop and
// lookahead.
func firBlock(taps int) *ir.Block {
	bb := ir.NewBuilder(fmt.Sprintf("fir%d", taps))
	var acc *ir.Node
	for i := 0; i < taps; i++ {
		term := bb.Mul(bb.Load(fmt.Sprintf("x%d", i)), bb.Load(fmt.Sprintf("c%d", i)))
		if acc == nil {
			acc = term
		} else {
			acc = bb.Add(acc, term)
		}
	}
	bb.Store("y", acc)
	bb.Return()
	return bb.Finish()
}

// BenchmarkCoverBlock measures one full block covering — assignment
// search and clique covering with branch-and-bound — on the example
// architecture in both presets. The exhaustive run, the only one that
// reaches the heuristics-off windowed re-cover and its skip, covers a
// 4-tap block: the 6-tap block takes ~30 s per covering there.
func BenchmarkCoverBlock(b *testing.B) {
	m := isdl.ExampleArch(4)
	for _, preset := range []struct {
		name string
		blk  *ir.Block
		opts Options
	}{
		{"default", firBlock(6), DefaultOptions()},
		{"exhaustive", firBlock(4), ExhaustiveOptions()},
	} {
		b.Run(preset.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := CoverBlock(preset.blk, m, preset.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
