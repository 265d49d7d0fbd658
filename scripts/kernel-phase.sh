#!/usr/bin/env bash
# kernel-phase.sh prints where the linker placed the two single-layer
# kernels in a benchmark binary, as each one's address mod 64:
# nn.(*Network).trainSingle (a vehicle's SGD epochs) and
# nn.(*Network).EstimateClampedAppend (the learning channel's estimate).
# train-v16-pipe's timings move by about 5 % with trainSingle's phase
# (≡ 0 or 32), so a timing comparison records both binaries' phases.
#
#   scripts/kernel-phase.sh [binary]
#
# With no argument it builds ./benchmark into a temporary directory first.
set -euo pipefail

bin=${1:-}
if [[ -z "$bin" ]]; then
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' EXIT
    bin=$tmp/benchmark
    (cd "$(dirname "$0")/.." && go build -o "$bin" ./benchmark)
fi

syms=$(go tool nm "$bin")
for fn in trainSingle EstimateClampedAppend; do
    name="repro/internal/nn.(*Network).$fn"
    addr=$(awk -v name="$name" '$2 == "T" && $3 == name { print $1 }' <<<"$syms")
    if [[ -z "$addr" ]]; then
        echo "kernel-phase: $name not found in $bin" >&2
        exit 1
    fi
    printf '%-50s 0x%s  mod 64 = %d\n' "$name" "$addr" $((16#$addr % 64))
done
