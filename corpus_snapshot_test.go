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
// hash below and the cache/pool property tests.
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

// TestCorpusSnapshotHash prints a content hash of the compiled difftest
// corpus under both presets when AVIV_CORPUS_HASH is set. It is the
// manual byte-identical-output gate for performance work: record the
// hash before an optimization lands, and the hash after must match.
func TestCorpusSnapshotHash(t *testing.T) {
	if os.Getenv("AVIV_CORPUS_HASH") == "" {
		t.Skip("set AVIV_CORPUS_HASH=1 to print the corpus snapshot hash")
	}
	for _, preset := range []struct {
		name string
		opts Options
	}{
		{"default", DefaultOptions()},
		{"exhaustive", ExhaustiveOptions()},
	} {
		text := corpusProgramText(t, preset.opts)
		t.Logf("corpus hash %s: %x", preset.name, sha256.Sum256([]byte(text)))
	}
}
