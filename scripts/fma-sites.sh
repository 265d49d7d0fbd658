#!/usr/bin/env bash
# fma-sites.sh counts the fused multiply-add instructions the compiler
# emits in this module's own functions when ./benchmark is built for the
# ports that may fuse x*y + z (the Go specification allows it unless an
# explicit float64(...) conversion rounds the product). amd64 at the
# default GOAMD64 level never fuses, which is why the bit-exact goldens
# (TestFiguresGolden, TestGoldenSessionParams) are amd64-only; every site
# listed here is a place where another port's numbers may differ.
#
#   scripts/fma-sites.sh
#
# For arm64, riscv64 and ppc64le it prints the number of FMADD*, FMSUB*,
# FNMADD* and FNMSUB* instructions in repro/ functions, then one line per
# function that has any. Cross-compiling needs no network and no
# emulator. It prints only; nothing is gated on the counts.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

for arch in arm64 riscv64 ppc64le; do
    GOOS=linux GOARCH=$arch go build -o "$tmp/benchmark-$arch" ./benchmark
    go tool objdump "$tmp/benchmark-$arch" | awk -v arch="$arch" '
        $1 == "TEXT" { fn = $2; sub(/\(SB\)$/, "", fn); next }
        fn ~ /^repro\// {
            for (i = 1; i <= NF; i++) {
                if ($i ~ /^F(N)?M(ADD|SUB)/) { n[fn]++; total++; break }
            }
        }
        END {
            printf "%-8s %3d fused multiply-add sites in repro/ functions\n", arch, total
            for (f in n) printf "  %3d  %s\n", n[f], f | "sort -k2"
            close("sort -k2")
        }'
done
