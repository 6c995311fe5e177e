#!/bin/sh
# ci.sh — the repository's check gate. Run before every commit:
#
#   ./ci.sh          full gate (vet, build, race tests, fuzz smoke,
#                    benchmark smokes)
#   ./ci.sh -short   skip the fuzz smoke, the one-iteration run of every
#                    Go benchmark, perfsmoke and the avivbench table and
#                    ablation runs
#
# The -race run doubles as the determinism proof for the parallel
# block-compilation pipeline: TestParallelDeterminism compiles the same
# multi-block function at pool sizes 1/2/8 under the race detector.
#
# The lint stage runs the ISDL machine linter over the shipped example
# descriptions and the verifier's mutation self-test (every corruption
# class must be rejected with a diagnostic). The examples stage runs the
# example programs in every mode.
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
# The interprocedural passes share memoized whole-program state
# (callgraph, facts, channel census) across per-package runs; the
# analysis package must be race-clean on its own, not only inside the
# tree-wide -race stage.
make -s lintsmoke

echo "== lint: ISDL machine descriptions =="
for f in examples/machines/*.isdl; do
    go run ./cmd/isdldump -lint "$f"
done

echo "== examples: the example programs end to end =="
make -s examples

echo "== lint: verifier mutation self-test =="
go test -run 'TestMutation|TestLint' ./internal/verify

echo "== go test -race =="
go test -race ./...

echo "== server differential (race) =="
go test -race -run '^TestServerDifferentialCorpus$' -count=1 .

echo "== zoo smoke (machine generator + differential, race) =="
make -s zoosmoke

echo "== editsmoke: incremental-compilation differential (race, short) =="
# The incremental path's byte-identity gate: seeded programs x one-line
# edit streams, output over warm shared cache tiers vs an uncached
# compile, verifier on, interpreter oracle armed, worker pools 1 and 8,
# plus a restart over the same disk directory. -short selects the
# deterministic 12-program subset; the full 50-program sweep runs in the
# tree-wide race stage above.
make -s editsmoke

echo "== clustersmoke: cluster differential (race) =="
# The cluster byte-identity gate: the 50-program corpus through the
# consistent-hash router in front of three in-process servers sharing
# one disk directory, by concurrent clients, cold + warm + after
# killing a server (that last wave must recompile no block).
# Under -race this is also the data-race gate for the router.
make -s clustersmoke

echo "== perfbench module: vet + test =="
# perfbench is its own module over this one (replace aviv => ../), so
# the tree-wide stages above never build it; an API change here can
# break the gated benchmark without this stage.
(cd perfbench && go vet ./... && go test ./...)

echo "== layerbench: optimizer + front-end + covering + peephole + multi-block + warm-path + disk-rebuild Go benchmarks (one iteration) =="
# The per-layer Go benchmarks of the peephole and the covering a fresh
# compile runs, of the front-end optimizer every request runs before its
# first cache lookup, of parse + lower + optimize (BenchmarkFrontEnd), of aviv.Compile's block loop with and without the
# memory tier (BenchmarkCompileMultiBlock: nocache and cache), of the
# whole warm path (BenchmarkCompileWarm: every block hits memory) and of
# the disk-hit path (BenchmarkCompileDiskRebuild: every block rebuilds
# from disk), run in -short mode too so none can rot between full runs.
# BenchmarkCoverBlock runs both presets; its exhaustive sub-benchmark is
# the only CI run of the heuristics-off covering path.
make -s layerbench

if [ "${1:-}" != "-short" ]; then
    echo "== fuzz smoke (FuzzCompileSource 10s, FuzzParse 5s, FuzzDecodeBlock 5s, FuzzDecode 5s, FuzzReemit 5s) =="
    make -s fuzz

    echo "== bench smoke (every benchmark, one iteration) =="
    make -s benchsmoke

    echo "== perfsmoke: serving benchmark, disk_spill + edit_stream workloads (1 s each) =="
    # The gated serving benchmark end to end: it builds perfbench from
    # source, serves avivd's handler over loopback, runs the cold set-up
    # compile, disk-tier writes, reads and codec decodes (disk_spill)
    # and the covering of each edit's recompiled blocks (edit_stream),
    # and exits 1 if any served output disagrees with the simulator or
    # the interpreter.
    make -s perfsmoke

    echo "== avivbench: Table II and the heuristic ablation end to end =="
    # The runs of the paper-reproduction binary in CI, end to end.
    # Table II's rows are pinned by internal/bench's TestPaperTableRows;
    # the ablation run keeps its option mutations executing, not only
    # compiling.
    go run ./cmd/avivbench -table 2 >/dev/null
    go run ./cmd/avivbench -ablation >/dev/null
fi

echo "ci.sh: all checks passed"
