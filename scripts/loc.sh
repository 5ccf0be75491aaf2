#!/usr/bin/env bash
# Lines of Rust per crate under crates/*/src: total, and non-test (the lines
# of each file before its first test-only gate — `#[cfg(test)]` or a
# `#[cfg(all(test, …))]`-style compound naming `test`). Exits non-zero if any file
# under crates/carina/src exceeds 1000 lines — the engine stays split along
# its seams — if a crate with a budget below, or the workspace, passes its
# non-test ceiling — or if a prose document passes its line ceiling.
# Run from anywhere; pass another checkout's root to measure it.
set -eu
cd "${1:-$(dirname "$0")/..}"
# Non-test line ceilings. A change that shrinks one of these crates lowers
# its ceiling to the new count; one that must grow one offsets what it can
# and moves the ceiling by the net only. `workspace` is the sum over crates.
declare -A ceiling=([argo]=1022 [bench]=1757 [carina]=4430 [mem]=1490 [obs]=1983 [rma]=1656 [simnet]=1284 [vela]=1689 [workspace]=17032)
# Prose ceilings only ratchet down: a change that adds a section removes a
# stale one, or moves a table to a generated file.
declare -A doc_ceiling=([DESIGN.md]=1495 [EXPERIMENTS.md]=1376 [README.md]=330)
declare -A code_of
printf '%-10s %7s %9s\n' crate total non-test
sum_total=0
sum_code=0
for crate in crates/*/; do
    total=0
    code=0
    while IFS= read -r f; do
        total=$((total + $(wc -l <"$f")))
        code=$((code + $(awk '/^#\[cfg\((all\()?test[,)]/{exit} {n++} END{print n+0}' "$f")))
    done < <(find "${crate}src" -name '*.rs')
    printf '%-10s %7d %9d\n' "$(basename "$crate")" "$total" "$code"
    code_of[$(basename "$crate")]=$code
    sum_total=$((sum_total + total))
    sum_code=$((sum_code + code))
done
printf '%-10s %7d %9d\n' workspace "$sum_total" "$sum_code"
code_of[workspace]=$sum_code
status=0
fat=$(find crates/carina/src -name '*.rs' -exec wc -l {} + | awk '$2 != "total" && $1 > 1000')
if [ -n "$fat" ]; then
    echo "files under crates/carina/src over 1000 lines:" >&2
    echo "$fat" >&2
    status=1
fi
for doc in DESIGN.md EXPERIMENTS.md README.md; do
    lines=$(wc -l <"$doc")
    printf '%-14s %5d lines\n' "$doc" "$lines"
    if [ "$lines" -gt "${doc_ceiling[$doc]}" ]; then
        echo "$doc: $lines lines, over its ceiling of ${doc_ceiling[$doc]}" >&2
        status=1
    fi
done
for crate in "${!ceiling[@]}"; do
    if [ "${code_of[$crate]}" -gt "${ceiling[$crate]}" ]; then
        echo "$crate: ${code_of[$crate]} non-test lines, over its ceiling of ${ceiling[$crate]}" >&2
        status=1
    fi
done
exit $status
