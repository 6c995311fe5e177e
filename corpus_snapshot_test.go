package aviv

import (
	"crypto/sha256"
	"fmt"
	"os"
	"testing"

	"aviv/internal/bench"
	"aviv/internal/isdl"
)

// corpusProgramText compiles every difftest corpus program under the
// given preset and returns the concatenated program texts. It is the
// shared substrate of the byte-identical-output checks: the snapshot
// hash below and the cache property tests.
func corpusProgramText(t testing.TB, opts Options) string {
	t.Helper()
	return corpusCompile(t, opts, nil)
}

// corpusCompile is corpusProgramText that also hands each program's
// result to each, when it is non-nil.
func corpusCompile(t testing.TB, opts Options, each func(seed int64, res *CompileResult)) string {
	t.Helper()
	vliw := isdl.ExampleArchFull(4)
	dsp := isdl.SingleIssueDSP(4)
	var all string
	for seed := int64(0); seed < 50; seed++ {
		bitwise := seed%2 == 1
		src, _ := bench.DiffProgram(seed, bitwise)
		m := vliw
		if bitwise {
			m = dsp
		}
		res, err := CompileSource(src, m, 1, opts)
		if err != nil {
			t.Fatalf("seed %d: compile: %v\n%s", seed, err, src)
		}
		if each != nil {
			each(seed, res)
		}
		all += fmt.Sprintf("== seed %d ==\n%s\n", seed, res.Program)
	}
	return all
}

// TestCorpusSnapshotHash pins a content hash of the compiled difftest
// corpus under both presets: the byte-identical-output gate for
// performance and simplification work. A change that alters any
// emitted byte fails here; if the new output is intended, set
// AVIV_CORPUS_HASH=1 to print the hashes to re-pin.
func TestCorpusSnapshotHash(t *testing.T) {
	for _, preset := range []struct {
		name string
		opts Options
		want string
	}{
		{"default", DefaultOptions(), "488382852c48cfc6aa33f0bcbe57f26cee669cb13541f4a39edd7c86e016663a"},
		{"exhaustive", ExhaustiveOptions(), "4d10029ef95049e06ce7ff49668cc3ff6316a92642bc490db46484de4eeca0aa"},
	} {
		got := fmt.Sprintf("%x", sha256.Sum256([]byte(corpusProgramText(t, preset.opts))))
		if os.Getenv("AVIV_CORPUS_HASH") != "" {
			t.Logf("corpus hash %s: %s", preset.name, got)
		}
		if got != preset.want {
			t.Errorf("corpus hash %s = %s, want %s", preset.name, got, preset.want)
		}
	}
}
