#!/usr/bin/env bash
# Lines of Rust per crate under crates/*/src: total, and non-test (the lines
# of each file before its first test-only gate — `#[cfg(test)]` or a
# `#[cfg(all(test, …))]`-style compound naming `test`). Exits non-zero if any file
# under crates/carina/src exceeds 1000 lines — the engine stays split along
# its seams — or if a crate with a budget below passes its non-test ceiling.
# Run from anywhere; pass another checkout's root to measure it.
set -eu
cd "${1:-$(dirname "$0")/..}"
# Non-test line ceilings. A change that shrinks one of these crates lowers
# its ceiling to the new count; one that must grow one offsets what it can
# and moves the ceiling by the net only.
declare -A ceiling=([carina]=5174 [mem]=1214)
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
status=0
fat=$(find crates/carina/src -name '*.rs' -exec wc -l {} + | awk '$2 != "total" && $1 > 1000')
if [ -n "$fat" ]; then
    echo "files under crates/carina/src over 1000 lines:" >&2
    echo "$fat" >&2
    status=1
fi
for crate in "${!ceiling[@]}"; do
    if [ "${code_of[$crate]}" -gt "${ceiling[$crate]}" ]; then
        echo "$crate: ${code_of[$crate]} non-test lines, over its ceiling of ${ceiling[$crate]}" >&2
        status=1
    fi
done
exit $status
