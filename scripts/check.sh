#!/usr/bin/env bash
# check.sh is the single verification gate: formatting, go vet, the
# repo-specific invariant linter (cmd/lcofl-lint), a full build, the
# test suite under the race detector, the allocation pins in a plain
# build, and the per-package line counts. CI runs exactly this script, so
# a clean local run means a clean CI run.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [[ -n "$unformatted" ]]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== lcofl-lint"
go run ./cmd/lcofl-lint ./...

echo "== go build"
go build ./...

echo "== go test -race"
# This also replays every checked-in fuzz seed corpus
# (internal/*/testdata/fuzz) in regular test mode — the fuzz properties
# gate every run, not just the CI fuzz-smoke job.
go test -race ./...

echo "== go test -race -count=2 (scheduling-sensitive packages)"
# The node and chaos packages carry the lock-discipline and
# deterministic-fault invariants; a second run flushes out
# order-dependent state the first run happened to miss.
go test -race -count=2 ./internal/node ./internal/chaos
# The budget close and the in-flight window depend on arrival order, and
# so does a flooding vehicle's traffic against the receiver's two upload
# buffers (transport.Conn's ownership rule); fifty repetitions of the
# tests that pin them take about half a minute.
go test -race -count=50 -run 'TestPipelineEarlyClose|TestPipelineWindowWithholding|TestFloodingVehicle|TestReceiverBlocksOnItsBuffers' ./internal/node

echo "== go test -race -count=100 TestCrashRejoin (crash-and-rejoin against the simulation)"
# The crash cell of the engine-versus-simulation matrix once lost a
# rejoin race about one run in ten (four in ten under -race); a hundred
# repetitions make a return of that rate certain to show.
go test -race -count=100 -run 'TestCrashRejoin' ./internal/node

echo "== go test -run 'Allocs|FiguresGolden' (plain build)"
# Every AllocsPerRun pin and the results/ figure golden skip themselves
# under the race detector, so the -race runs above never execute them;
# this step does.
go test -run 'Allocs|FiguresGolden' ./...

echo "== go test -bench 'EstimateClampedAppend|ShareUpload|TrainSGDSingle' -benchtime 1x"
# The upload's and the local training's by-hand benchmarks end by
# checking their output against the per-row estimate, the reference
# evaluation and the reference SGD step; one iteration each keeps them
# compiling and correct. This is not a timing gate.
go test -run '^$' -bench 'EstimateClampedAppend|ShareUpload|TrainSGDSingle' -benchtime 1x ./internal/nn ./internal/core
# Where the linker put the SGD and estimate kernels; train-v16-pipe's
# timings move with it (ROADMAP, "How to measure"). Printed, not gated.
scripts/kernel-phase.sh

echo "== fused multiply-add sites on arm64, riscv64 and ppc64le (printed, not gated)"
# Where other ports may fuse x*y + z and so leave amd64's bits (ROADMAP
# item 18). Cross-compiled offline; the counts are printed, not gated.
scripts/fma-sites.sh

echo "== lines of Go per package (non-test / test)"
# Non-test LOC is tracked like a benchmark (ROADMAP, north star); a
# simplicity PR quotes this table before and after.
total_src=0
total_test=0
for dir in $(go list -f '{{.Dir}}' ./...); do
    rel=${dir#"$PWD"}
    rel=${rel#/}
    src=$(find "$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)
    tst=$(find "$dir" -maxdepth 1 -name '*_test.go' -exec cat {} + | wc -l)
    printf '%-28s %6d %6d\n' "${rel:-.}" "$src" "$tst"
    total_src=$((total_src + src))
    total_test=$((total_test + tst))
done
printf '%-28s %6d %6d\n' total "$total_src" "$total_test"

echo "== all checks passed"
