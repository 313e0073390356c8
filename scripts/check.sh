#!/bin/sh
# check.sh — the repo's full verification gate: gofmt, vet, a run of
# every example program, the complete test suite under the race detector
# (wall-clock bounded so a hung test fails the gate instead of wedging
# it), and a short fuzz smoke over the dataset parsers and the model
# loader, plus vet and tests of the bench/ module. CI and pre-commit both
# run this.
#
# Performance is measured by the repo benchmark under bench/ (see
# bench/README.md), not by this gate.
set -eu
cd "$(dirname "$0")/.."

# Formatting gate: gofmt -l lists every file whose formatting differs
# from gofmt's; any listed file fails the gate.
echo ">> gofmt -l ."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "$unformatted"
	echo "gofmt: the files above need gofmt -w"
	exit 1
fi

echo ">> go vet ./..."
go vet ./...

# Repo-specific static analysis (guard placement, sentinel-error
# discipline, float equality, ctx plumbing, obs nil-safety, math
# domains, span ends, atomic artifact writes, map-order escapes,
# determinism-domain clocks/rand). Exit 1 = findings, exit 2 = a
# package failed to load.
echo ">> go run ./cmd/dfpc-vet ./..."
go run ./cmd/dfpc-vet ./...

# Waiver audit: every //vet:ignore must carry a reason and name a
# registered analyzer; anything else is an invisible suppression and
# fails the gate.
echo ">> go run ./cmd/dfpc-vet -waivers ./..."
go run ./cmd/dfpc-vet -waivers ./...

# Examples gate: build every examples/* program and run it. A non-zero
# exit or a run longer than 60 s fails the gate; each one finishes in
# about a second.
echo ">> examples: build and run each under a 60 s timeout"
exdir=$(mktemp -d)
trap 'rm -rf "$exdir"' EXIT
go build -o "$exdir/" ./examples/...
for ex in examples/*/; do
	name=$(basename "$ex")
	echo ">> examples/$name"
	if ! timeout 60 "$exdir/$name" >/dev/null; then
		echo "examples/$name failed or ran past 60 s"
		exit 1
	fi
done

echo ">> go test -race -timeout 10m ./..."
go test -race -timeout 10m ./...

# Determinism and differential gate: the worker count must be
# invisible in mined patterns, selected features, predictions, and CV
# statistics, and every fast path must agree with its oracle (mined
# covers vs b.Cover, the compiled matcher vs the naive scan). The
# suites are part of ./... above; this explicit pass keeps the contract
# visible in the gate's output and re-runs it under -race with a fresh
# count so a cached "ok" can never mask a regression.
echo ">> go test -race -count=1 -run 'Determinism|Parallel|Differential' ./ ./internal/parallel/ ./internal/mining/ ./internal/svm/ ./internal/eval/ ./internal/featsel/ ./internal/core/ ./internal/patmatch/ ./internal/patclass/ ./internal/seqmining/ ./internal/graphmining/"
go test -race -count=1 -timeout 10m -run 'Determinism|Parallel|Differential' \
	./ ./internal/parallel/ ./internal/mining/ ./internal/svm/ ./internal/eval/ ./internal/featsel/ \
	./internal/core/ ./internal/patmatch/ ./internal/patclass/ ./internal/seqmining/ ./internal/graphmining/

# The repo benchmark is its own module (bench/go.mod), so ./... above
# never reaches it: vet, analyze, and test it from inside. Its tests
# include a shrunken smoke run and the BENCHMARK.json lint.
echo ">> (cd bench && go vet ./... && go run dfpc/cmd/dfpc-vet ./... && go test -race ./...)"
(cd bench && go vet ./... && go run dfpc/cmd/dfpc-vet ./... && go test -race -timeout 5m ./...)

# Short fuzz smoke: one target per invocation (go test accepts a single
# -fuzz pattern), ~10s each, as target:package pairs. Catches shallow
# crashers in the dataset parsers, the model loader and the artifact
# envelope early; longer hunts are a manual
# `go test -fuzz=FuzzParseX ./internal/dataset/`. -fuzzminimizetime=1x
# keeps the window fuzzing: without it the fuzzer can spend all 10 s
# minimizing one large interesting input.
for spec in FuzzParseARFF:./internal/dataset/ FuzzParseCSV:./internal/dataset/ \
	FuzzParseLUCS:./internal/dataset/ FuzzLoadModel:./internal/core/ FuzzDecode:./internal/durable/; do
	target=${spec%%:*}
	pkg=${spec#*:}
	echo ">> go test -fuzz=$target -fuzztime=10s -fuzzminimizetime=1x $pkg"
	go test -run='^$' -fuzz="^$target\$" -fuzztime=10s -fuzzminimizetime=1x "$pkg"
done

echo "OK"
