#!/usr/bin/env bash
# A/B argobench workloads: <base-rev> against the working tree.
#
#   scripts/ab.sh <base-rev> <workload[,workload...]|all> [pairs] [seed]
#
# Builds benchmark/ of both sides, each into its own CARGO_TARGET_DIR — the
# base from a `git archive` export of <base-rev> (committed files only, as
# the driver measures it; nothing is left behind in .git) — then, workload
# by workload (`all`: every workload of BENCHMARK.json), runs the one
# BENCHMARK.json command on them alternately, swapping which side goes
# first every pair. Prints every end-to-end metric of every pair with its
# new/base ratio, then one summary block per workload: per metric, both
# medians, their ratio, the base's quartile distance, and how many pairs
# the change won (ties count for neither). Rule for a claimed gain
# (choosing-metrics guide §8): >= 10 pairs, the change wins >= 9 in 10,
# medians further apart than the base's quartile distance — and the same
# on the held-out seed 7741.
#
# `prioq_hqdl` runs in one of two host-decided regimes (EXPERIMENTS, "the
# two prioq_hqdl regimes"): each of its runs is tagged fast (sim_cycles
# < 500 M) or slow, and the summary tallies the pairs per regime pair, with
# sim_cycles wins inside each — compare within one regime, never across.
# The regime follows the host's CPU state, so each prioq_hqdl pair starts
# after 15 s of every CPU busy, and its two runs go back to back: both
# sides start from the same host state.
#
# Defaults: 10 pairs, seed 20150615. Environment: AB_DIR (scratch space,
# default ${TMPDIR:-/tmp}/argobench-ab; the two target dirs are kept there
# between invocations), AB_SECONDS (default: run_seconds of BENCHMARK.json).
set -euo pipefail

[ $# -ge 2 ] || { sed -n '2,29p' "$0" >&2; exit 2; }
rev=$1 workloads=${2//,/ } pairs=${3:-10} seed=${4:-20150615}
repo=$(cd "$(dirname "$0")/.." && pwd)
dir=${AB_DIR:-${TMPDIR:-/tmp}/argobench-ab}
seconds=${AB_SECONDS:-$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' "$repo/BENCHMARK.json")}
# names <section>: the "name"s listed in one section of BENCHMARK.json.
names() {
    sed -n "/\"$1\"/,/\]/p" "$repo/BENCHMARK.json" | grep -o '"name": "[^"]*"' | cut -d'"' -f4
}
metrics=$(names end_to_end)
[ "$workloads" = all ] && workloads=$(names workloads)

sha=$(git -C "$repo" rev-parse --verify "$rev^{commit}")
mkdir -p "$dir"
rm -rf "$dir/base_src"
mkdir "$dir/base_src"
git -C "$repo" archive "$sha" | tar -x -C "$dir/base_src"

# bench <source root> <target dir> build|run [args]: the BENCHMARK.json command.
bench() {
    local src=$1 target=$2 verb=$3
    shift 3
    (cd "$src" && CARGO_TARGET_DIR="$target" \
        cargo "$verb" --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@")
}
echo "# base $sha vs working tree; seed $seed, $pairs pairs of ${seconds}s runs per workload"
bench "$dir/base_src" "$dir/base_target" build
bench "$repo" "$dir/new_target" build

# one <side> <workload>: run it, append each metric's value to $dir/<side>.<metric>.
one() {
    local side=$1 workload=$2 src=$repo line
    [ "$side" = base ] && src=$dir/base_src
    line=$(bench "$src" "$dir/${side}_target" run \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)
    case $line in
        *'"failed": 0,'*) ;;
        *) echo "# $side run had failed reps: $line" >&2; failed=1 ;;
    esac
    for m in $metrics; do
        echo "$line" | sed -n "s/.*\"$m\": {\"value\": \([^,}]*\).*/\1/p" >>"$dir/$side.$m"
    done
    tail -n 1 "$dir/$side.sim_cycles" | awk '{ print ($1 < 500e6) ? "fast" : "slow" }' >>"$dir/$side.regime"
}

# warm: every CPU busy for 15 s, the host state prioq_hqdl's pairs start from.
warm() {
    local cpu
    for cpu in $(seq "$(nproc)"); do timeout 15 sh -c 'while :; do :; done' & done
    wait
}

# regimes: the pairs per (base, new) regime, and sim_cycles wins within each.
regimes() {
    paste "$dir/base.regime" "$dir/new.regime" "$dir/base.sim_cycles" "$dir/new.sim_cycles" | awk '
        { k = $1 "/" $2; n[k]++; if ($4 < $3) won[k]++; else if ($4 > $3) lost[k]++ }
        END {
            for (k in n)
                printf "regime %-9s (base/new) %2d pairs, sim_cycles won %d lost %d\n", k, n[k], won[k], lost[k]
        }' | sort
}

# quartile <file> <q>: the value at quantile q (nearest rank) of a column.
quartile() {
    sort -g "$1" | awk -v q="$2" '{ v[NR] = $1 } END { i = int((NR - 1) * q + 1.5); print v[(i > NR) ? NR : i] }'
}

# ab <workload>: the alternating pairs, then the workload's summary block.
ab() {
    local workload=$1 pair m
    echo "## $workload"
    for m in $metrics regime; do : >"$dir/base.$m"; : >"$dir/new.$m"; done
    for pair in $(seq 1 "$pairs"); do
        if [ "$workload" = prioq_hqdl ]; then warm; fi
        if [ $((pair % 2)) -eq 1 ]; then
            one base "$workload"; one new "$workload"
        else
            one new "$workload"; one base "$workload"
        fi
        for m in $metrics; do
            paste "$dir/base.$m" "$dir/new.$m" | tail -n 1 | awk -v p="$pair" -v m="$m" \
                '{ printf "pair %2d %-14s base %16.6f new %16.6f ratio %.4f\n", p, m, $1, $2, ($1 ? $2 / $1 : 0) }'
        done
        if [ "$workload" = prioq_hqdl ]; then
            echo "pair $(printf %2d "$pair") regime base $(tail -n 1 "$dir/base.regime") new $(tail -n 1 "$dir/new.regime")"
        fi
    done
    echo "# $workload: medians (new/base), the base's quartile distance, pairs won by the change"
    for m in $metrics; do
        paste "$dir/base.$m" "$dir/new.$m" | awk -v m="$m" \
            -v b="$(quartile "$dir/base.$m" 0.5)" -v c="$(quartile "$dir/new.$m" 0.5)" \
            -v q1="$(quartile "$dir/base.$m" 0.25)" -v q3="$(quartile "$dir/base.$m" 0.75)" '
            { if ($2 < $1) won++; else if ($2 > $1) lost++ }
            END {
                printf "%-14s base %16.6f new %16.6f ratio %.4f  base IQR %.6f  won %d lost %d of %d\n",
                    m, b, c, (b ? c / b : 0), q3 - q1, won, lost, NR
            }'
    done
    if [ "$workload" = prioq_hqdl ]; then regimes; fi
}

failed=0
for workload in $workloads; do
    ab "$workload"
done
exit $failed
