# Convenience targets; `make check` is the gate ci.sh runs in CI.
.PHONY: check test build vet lint lintfix lintsmoke toolinstall staticcheck fuzz fuzzpeephole bench benchsmoke benchjson servesmoke servejson zoosmoke zoojson editsmoke editjson clustersmoke clusterjson

check:
	./ci.sh

test:
	go test ./...

build:
	go build ./...

vet:
	go vet ./...

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

# Peephole compaction vs. the Verify-per-move reference (also in ci.sh).
fuzzpeephole:
	go test -run '^$$' -fuzz='^FuzzCompactMatchesReference$$' -fuzztime=5s ./internal/peephole

bench:
	go run ./cmd/avivbench -all

# One iteration of every Go benchmark — catches bit-rot without the
# cost of a real measurement run (also part of ci.sh).
benchsmoke:
	go test -run '^$$' -bench . -benchtime=1x ./...

# Regenerate the machine-readable compile-benchmark report.
benchjson:
	go run ./cmd/avivbench -benchjson BENCH_cover.json

# Quick compile-server study on a small workload — catches bit-rot in
# the avivd path (also part of ci.sh).
servesmoke:
	go run ./cmd/avivbench -serve -serveprograms 2 -serveops 4

# Regenerate the machine-readable compile-server report.
servejson:
	go run ./cmd/avivbench -servejson BENCH_serve.json

# Race-enabled smoke over a small machine zoo: every class generated,
# linted, compiled, and differentially checked (also part of ci.sh).
zoosmoke:
	go test -race -run '^TestZooSmoke$$' -count=1 .

# Regenerate the machine-readable per-machine-class zoo bench matrix.
zoojson:
	go run ./cmd/avivbench -zoojson BENCH_zoo.json

# Race-enabled short subset of the incremental-compilation differential
# suite: delta-path output byte-identical to from-scratch compiles over
# an edit stream (also part of ci.sh).
editsmoke:
	go test -race -short -run '^TestEditDifferentialCorpus$$' -count=1 .

# Regenerate the machine-readable incremental-compilation report.
editjson:
	go run ./cmd/avivbench -editjson BENCH_edit.json

# Race-enabled cluster differential: the corpus through a 3-node
# in-process cluster behind the router, concurrent clients, one node
# killed mid-run (also part of ci.sh).
clustersmoke:
	go test -race -run '^TestClusterDifferentialCorpus$$' -count=1 .

# Regenerate the machine-readable compile-cluster report (capacity
# scaling at N=1,2,4,8, cluster-wide dedup, kill-one-node).
clusterjson:
	go run ./cmd/avivbench -clusterjson BENCH_cluster.json
