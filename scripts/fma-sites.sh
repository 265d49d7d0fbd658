#!/usr/bin/env bash
# fma-sites.sh counts the fused multiply-add instructions the compiler
# emits in this module's own functions when ./benchmark and ./cmd/lcofl
# are built for the ports that may fuse x*y + z (the Go specification
# allows it unless an explicit float64(...) conversion rounds the
# product). amd64 at the default GOAMD64 level never fuses, which is why
# the bit-exact goldens (TestFiguresGolden, TestGoldenSessionParams) are
# amd64-only; every site listed here is a place where another port's
# numbers may differ.
#
#   scripts/fma-sites.sh
#
# For arm64, riscv64, ppc64le and s390x, and for each of the two
# programs, it prints the number of fused instructions in repro/
# functions, then one line per function that has any. The fused forms
# are FMADD*, FMSUB*, FNMADD* and FNMSUB* on the first three ports and
# MADBR / MSDBR (and their memory and single-precision forms) on s390x.
# go tool objdump cannot decode every s390x instruction, so the s390x
# count is a lower bound and the line says how many instructions in
# repro/ functions went undecoded. Cross-compiling needs no network and
# no emulator. It prints only; nothing is gated on the counts.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

for arch in arm64 riscv64 ppc64le s390x; do
    for pkg in ./benchmark ./cmd/lcofl; do
        bin="$tmp/$(basename "$pkg")-$arch"
        GOOS=linux GOARCH=$arch go build -o "$bin" "$pkg"
        go tool objdump "$bin" | awk -v arch="$arch" -v pkg="$pkg" '
            $1 == "TEXT" { fn = $2; sub(/\(SB\)$/, "", fn); next }
            fn ~ /^repro\// {
                for (i = 1; i <= NF; i++) {
                    if ($i == "?") { undecoded++; break }
                    if ($i ~ /^F(N)?M(ADD|SUB)/ || (arch == "s390x" && $i ~ /^M[AS][DE]B?R?$/)) { n[fn]++; total++; break }
                }
            }
            END {
                if (arch == "s390x")
                    printf "%-8s %-12s >= %3d fused multiply-add sites in repro/ functions (%d instructions undecoded)\n", arch, pkg, total, undecoded
                else
                    printf "%-8s %-12s %6d fused multiply-add sites in repro/ functions\n", arch, pkg, total
                for (f in n) printf "  %3d  %s\n", n[f], f | "sort -k2"
                close("sort -k2")
            }'
    done
done
