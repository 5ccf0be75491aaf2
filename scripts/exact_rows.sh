#!/usr/bin/env bash
# The exact rows of argobench: end-to-end values that repeat bit for bit,
# run to run and day to day, so any drift is a protocol change.
#
#   scripts/exact_rows.sh            # diff the rows against results/exact_rows.txt
#   scripts/exact_rows.sh --update   # rewrite results/exact_rows.txt
#
# Runs each workload below at full size with `--seconds 1` (the rows do not
# depend on the run length) on seeds 20150615 and 7741, through the
# BENCHMARK.json command, and prints one `<seed> <workload> <metric> <value>`
# line per row:
# - remote_verbs and remote_bytes of matmul_ro, sor_stencil and mixed_pyxis;
# - mixed_pyxis sim_cycles;
# - sim_cycles_1n of every workload but prioq_hqdl.
# prioq_hqdl has no row: its lock grants are host-scheduled, and even its
# single-node run, which repeats back to back, has read other values on
# other days. sor_chaos has only its fault-free single-node row. Exits
# non-zero on any difference or failed rep.
set -euo pipefail

repo=$(cd "$(dirname "$0")/.." && pwd)
pinned=$repo/results/exact_rows.txt

# metrics <workload>: its exact rows.
metrics() {
    case $1 in
        mixed_pyxis) echo remote_verbs remote_bytes sim_cycles sim_cycles_1n ;;
        sor_chaos) echo sim_cycles_1n ;;
        *) echo remote_verbs remote_bytes sim_cycles_1n ;;
    esac
}

rows() {
    local seed workload line metric value
    for seed in 20150615 7741; do
        for workload in matmul_ro sor_stencil mixed_pyxis sor_chaos; do
            line=$(cd "$repo" && cargo run --release --offline --quiet \
                --manifest-path benchmark/Cargo.toml -- \
                --workload "$workload" --seed "$seed" --seconds 1 --trace 0 | tail -n 1)
            case $line in
                *'"failed": 0,'*) ;;
                *) echo "$workload (seed $seed) had failed reps: $line" >&2; return 1 ;;
            esac
            for metric in $(metrics "$workload"); do
                value=$(echo "$line" | sed -n "s/.*\"$metric\": {\"value\": \([^,}]*\).*/\1/p")
                [ -n "$value" ] || { echo "$workload: no $metric in $line" >&2; return 1; }
                echo "$seed $workload $metric $value"
            done
        done
    done
}

if [ "${1:-}" = --update ]; then
    rows >"$pinned.new"
    mv "$pinned.new" "$pinned"
else
    got=$(rows)
    diff -u "$pinned" - <<<"$got"
fi
