# Convenience targets; `make check` is the gate ci.sh runs in CI.
.PHONY: check test build vet examples lint lintfix lintsmoke toolinstall staticcheck fuzz bench benchsmoke layerbench perfsmoke zoosmoke zoojson editsmoke clustersmoke

check:
	./ci.sh

test:
	go test ./...

build:
	go build ./...

vet:
	go vet ./...

# Run the four example programs: they are the callers of aviv.Compile on
# hand-built IR, and quickstart and dspfir exit nonzero when the
# simulated result disagrees with the expected one (also part of ci.sh).
# Then compile one source twice over a fresh -cache directory with
# -stats: the second compile must take every block from the disk tier.
examples:
	for e in quickstart dspfir archexplore codesign; do go run ./examples/$$e >/dev/null || exit 1; done
	dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	go build -o "$$dir/avivcc" ./cmd/avivcc && \
	"$$dir/avivcc" -example -S=false -stats -cache "$$dir/cache" examples/sources/cached.c >/dev/null && \
	"$$dir/avivcc" -example -S=false -stats -verify -cache "$$dir/cache" examples/sources/cached.c | \
	grep -Eq ' ([0-9]+)/\1 blocks from compile cache \(\1 via disk tier\)'

# Pinned in ci.sh (STATICCHECK_VERSION); skipped with a warning when the
# binary is not on PATH — it is never downloaded by the build.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "warning: staticcheck not installed; skipping"; fi

lint:
	go run ./cmd/avivlint -list
	go run ./cmd/avivlint ./...
	for f in examples/machines/*.isdl; do go run ./cmd/isdldump -lint $$f; done
	go test -run 'TestMutation|TestLint' ./internal/verify

# Apply the mechanical rewrites the analyzer suite suggests (today:
# errctx's %v -> %w); findings without a fix are printed and still fail.
lintfix:
	go run ./cmd/avivlint -fix ./...

# The static-analysis gate exactly as ci.sh runs it: avivlint over the
# tree plus the analyzer golden tests and the archtest.
lintsmoke:
	go run ./cmd/avivlint ./...
	go run ./cmd/avivlint -run lockorder,goroutineleak,ctxflow ./...
	go test -run 'TestAnalyzerFixtureTable|TestErrCtxSuggestedFix|TestErrCtxFixIdempotent|TestSuiteIsSelfClean|TestLayer|TestCheckEdge|TestComponent|TestArchSuite|TestSuppressionBudget|TestCallGraph|TestProgramFactsAndMemo' -count=1 ./internal/analysis
	go test -count=1 ./cmd/avivlint
	go test -race -count=1 ./internal/analysis

# Install the external lint toolchain at the pinned versions ci.sh
# expects, and build avivlint (standard library only — no module
# downloads needed for it). Run this when preparing a CI image or a
# networked dev environment; the gate itself never downloads tools.
toolinstall:
	go install honnef.co/go/tools/cmd/staticcheck@2024.1
	go build -o bin/avivlint ./cmd/avivlint

fuzz:
	go test -run '^$$' -fuzz='^FuzzCompileSource$$' -fuzztime=10s .
	go test -run '^$$' -fuzz='^FuzzParse$$' -fuzztime=5s ./internal/lang
	go test -run '^$$' -fuzz='^FuzzDecodeBlock$$' -fuzztime=5s .
	go test -run '^$$' -fuzz='^FuzzDecode$$' -fuzztime=5s ./internal/asm
	go test -run '^$$' -fuzz='^FuzzReemit$$' -fuzztime=5s ./internal/opt

bench:
	go run ./cmd/avivbench -all

# One iteration of every Go benchmark — catches bit-rot without the
# cost of a real measurement run (also part of ci.sh).
benchsmoke:
	go test -run '^$$' -bench . -benchtime=1x ./...

# One iteration of the optimizer, front-end, covering, peephole,
# multi-block compile, warm-path and disk-rebuild benchmarks (also part
# of ci.sh, -short included).
layerbench:
	go test -run '^$$' -bench 'BenchmarkPeepholeOptimize|BenchmarkCoverBlock|BenchmarkOptimize|BenchmarkGlobalOptimize|BenchmarkFrontEnd|BenchmarkCompileMultiBlock|BenchmarkCompileWarm|BenchmarkCompileDiskRebuild' -benchtime 1x ./internal/peephole ./internal/cover ./internal/opt .

# One second of the gated serving benchmark on each of its workloads:
# builds perfbench and drives avivd's handler through the disk tier
# (disk_spill) and through the per-request covering of edited blocks
# (edit_stream, the only one of the two whose timed path covers), and
# fails on any wrong output (also part of ci.sh).
perfsmoke:
	bash perfbench/run.sh --workload disk_spill --seed 1 --seconds 1 --trace 0
	bash perfbench/run.sh --workload edit_stream --seed 1 --seconds 1 --trace 0

# Race-enabled smoke over a small machine zoo: every class generated,
# linted, compiled, and differentially checked (also part of ci.sh).
zoosmoke:
	go test -race -run '^TestZooSmoke$$' -count=1 .

# Regenerate the machine-readable per-machine-class zoo bench matrix.
zoojson:
	go run ./cmd/avivbench -zoojson BENCH_zoo.json

# Race-enabled short subset of the incremental-compilation differential
# suite: output over warm per-block cache tiers byte-identical to
# uncached compiles over an edit stream (also part of ci.sh).
editsmoke:
	go test -race -short -run '^TestEditDifferentialCorpus$$' -count=1 .

# Race-enabled cluster differential: the corpus through the router in
# front of three in-process servers sharing one disk directory,
# concurrent clients, one server killed before the last wave, which
# must recompile no block (also part of ci.sh).
clustersmoke:
	go test -race -run '^TestClusterDifferentialCorpus$$' -count=1 .
