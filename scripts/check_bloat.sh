#!/bin/sh
# Binary-size guard for the monomorphized walk engine.
#
# The generic engine instantiates its walk loop once per (backend x
# scheme x level-shape) combination; that is the point, but it means a
# careless new type parameter can multiply code size. This script
# compares the release experiment binary (flatwalk-bench) against the
# committed baseline (scripts/bloat_baseline.tsv) and warns when it has
# grown more than 20 %.
#
# Usage:
#   sh scripts/check_bloat.sh            # warn on >20 % growth (exit 0)
#   sh scripts/check_bloat.sh --strict   # exit 1 on >20 % growth or a
#                                        # baselined binary not built
#   sh scripts/check_bloat.sh --update   # rewrite the baseline
#
# Binaries must already be built: cargo build --release --workspace
set -eu

cd "$(dirname "$0")/.."
baseline=scripts/bloat_baseline.tsv
bindir=target/release
threshold_pct=20
mode="${1:-warn}"

size_of() {
    # wc -c is portable (stat -c vs stat -f differs across platforms).
    wc -c <"$1" | tr -d ' '
}

if [ "$mode" = "--update" ]; then
    bin=flatwalk-bench
    if [ ! -f "$bindir/$bin" ]; then
        echo "$bindir/$bin not built — run 'cargo build --release -p flatwalk-bench' first" >&2
        exit 1
    fi
    printf '%s\t%s\n' "$bin" "$(size_of "$bindir/$bin")" >"$baseline"
    echo "wrote the $bin baseline size to $baseline"
    exit 0
fi

if [ ! -f "$baseline" ]; then
    echo "no baseline at $baseline — run 'sh scripts/check_bloat.sh --update' after a release build" >&2
    exit 1
fi

status=0
checked=0
while IFS="$(printf '\t')" read -r bin base_size; do
    [ -n "$bin" ] || continue
    if [ ! -f "$bindir/$bin" ]; then
        # A renamed or unbuilt binary must not silently leave the guard.
        echo "::warning::check_bloat: $bindir/$bin not built"
        status=1
        continue
    fi
    now_size=$(size_of "$bindir/$bin")
    checked=$((checked + 1))
    # Integer arithmetic: growth over threshold iff
    # now * 100 > base * (100 + threshold).
    if [ $((now_size * 100)) -gt $((base_size * (100 + threshold_pct))) ]; then
        pct=$(((now_size - base_size) * 100 / base_size))
        echo "::warning::check_bloat: $bin grew ${pct}% ($base_size -> $now_size bytes); monomorphization bloat?"
        status=1
    fi
done <"$baseline"

echo "check_bloat: $checked binaries checked against $baseline (threshold ${threshold_pct}%)"
if [ "$mode" = "--strict" ]; then
    exit "$status"
fi
exit 0
