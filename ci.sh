#!/bin/sh
# ci.sh — the repository's check gate. Run before every commit:
#
#   ./ci.sh          full gate (vet, build, race tests, fuzz smoke)
#   ./ci.sh -short   skip the fuzz smoke
#
# The -race run doubles as the determinism proof for the parallel
# block-compilation pipeline: TestParallelDeterminism compiles the same
# multi-block function at pool sizes 1/2/8 under the race detector.
#
# The lint stage runs the ISDL machine linter over the shipped example
# descriptions and the verifier's mutation self-test (every corruption
# class must be rejected with a diagnostic).
set -eu

cd "$(dirname "$0")"

echo "== go vet =="
go vet ./...

# staticcheck is pinned so every environment that does have the binary
# agrees on the rule set. When it is installed, the stage is a hard
# fail — including on a version mismatch, which `make toolinstall`
# resolves. Offline containers without the binary skip with a warning
# (the tool is never downloaded here — CI images bake it in via
# `make toolinstall`).
STATICCHECK_VERSION="2024.1"
echo "== staticcheck (${STATICCHECK_VERSION}) =="
if command -v staticcheck >/dev/null 2>&1; then
    have=$(staticcheck -version 2>/dev/null || true)
    case "$have" in
    *"$STATICCHECK_VERSION"*) ;;
    *)
        echo "error: staticcheck version is '$have', want ${STATICCHECK_VERSION}; run 'make toolinstall' to converge"
        exit 1
        ;;
    esac
    staticcheck ./...
else
    echo "warning: staticcheck not installed; skipping (run 'make toolinstall' in a networked environment)"
fi

echo "== go build =="
go build ./...

echo "== lintsmoke: avivlint static-analysis suite =="
# Hard fail: the layering / determinism / mutexhygiene / lockorder /
# goroutineleak / ctxflow / errctx / suppress passes must be clean on
# the whole tree, each analyzer must still catch its planted-defect
# fixtures, and the tree's //lint:reason suppressions must match the
# checked-in budget. The archtest (TestArchSuite) repeats the tree-wide
# run under plain `go test`, so the race stage below cross-checks it
# too; the concurrency passes also get a dedicated run so a regression
# names the guilty pass in the CI log.
go run ./cmd/avivlint ./...
go run ./cmd/avivlint -run lockorder,goroutineleak,ctxflow ./...
go test -run 'TestAnalyzerFixtureTable|TestErrCtxSuggestedFix|TestErrCtxFixIdempotent|TestSuiteIsSelfClean|TestLayer|TestCheckEdge|TestComponent|TestArchSuite|TestSuppressionBudget|TestCallGraph|TestProgramFactsAndMemo' -count=1 ./internal/analysis
go test -count=1 ./cmd/avivlint
# The interprocedural passes share memoized whole-program state
# (callgraph, facts, channel census) across per-package runs; the
# analysis package must be race-clean on its own, not only inside the
# tree-wide -race stage.
go test -race -count=1 ./internal/analysis

echo "== lint: ISDL machine descriptions =="
for f in examples/machines/*.isdl; do
    go run ./cmd/isdldump -lint "$f"
done

echo "== lint: verifier mutation self-test =="
go test -run 'TestMutation|TestLint' ./internal/verify

echo "== go test -race =="
go test -race ./...

echo "== server differential (race) =="
go test -race -run '^TestServerDifferentialCorpus$' -count=1 .

echo "== zoo smoke (machine generator + differential, race) =="
go test -race -run '^TestZooSmoke$' -count=1 .

echo "== editsmoke: incremental-compilation differential (race, short) =="
# The incremental path's byte-identity gate: seeded programs x one-line
# edit streams, output over warm shared cache tiers vs an uncached
# compile, verifier on, interpreter oracle armed, worker pools 1 and 8,
# plus a restart over the same disk directory. -short selects the
# deterministic 12-program subset; the full 50-program sweep runs in the
# tree-wide race stage above.
go test -race -short -run '^TestEditDifferentialCorpus$' -count=1 .

echo "== clustersmoke: cluster differential (race) =="
# The cluster byte-identity gate: the 50-program corpus through a
# 3-node in-process cluster behind the consistent-hash router, by
# concurrent clients, cold + warm + after killing a node mid-run.
# Under -race this is also the data-race gate for the cluster layer.
go test -race -run '^TestClusterDifferentialCorpus$' -count=1 .

echo "== layerbench: covering + peephole Go benchmarks (one iteration) =="
# The per-layer Go benchmarks of the compile tail a disk-tier hit pays
# for, run in -short mode too so neither can rot between full runs.
# BenchmarkCoverBlock runs both presets; its exhaustive sub-benchmark is
# the only CI run of the heuristics-off covering path.
go test -run '^$' -bench 'BenchmarkPeepholeOptimize|BenchmarkCoverBlock' -benchtime 1x ./internal/peephole ./internal/cover

if [ "${1:-}" != "-short" ]; then
    echo "== fuzz smoke (FuzzCompileSource, 10s) =="
    go test -run '^$' -fuzz='^FuzzCompileSource$' -fuzztime=10s .

    echo "== bench smoke (every benchmark, one iteration) =="
    go test -run '^$' -bench . -benchtime=1x ./...

    echo "== serve smoke (compile-server study, small workload) =="
    go run ./cmd/avivbench -serve -serveprograms 2 -serveops 4
fi

echo "ci.sh: all checks passed"
