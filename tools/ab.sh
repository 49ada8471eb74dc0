#!/bin/sh
# A/B one benchmark workload between two checkouts of this repository:
#
#     tools/ab.sh <parent-checkout> <change-checkout> <workload> [pairs]
#
# Builds both, then runs the BENCHMARK.json command (`--workload W
# --seconds 15 --trace 0`) `pairs` times (default 10) on each, parent and
# change alternating and taking turns to go first, as benchmark/README.md
# "Run discipline" asks. Prints every run, then per end-to-end metric the
# two medians, the parent's quartiles (the spread a gain must exceed) and
# in how many pairs the change read better. Building the benchmark
# rewrites benchmark/Cargo.lock; both checkouts get theirs back on exit.
# Results go to a temporary directory, not to benchmark/out.
set -eu

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
    echo "usage: $0 <parent-checkout> <change-checkout> <workload> [pairs]" >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
pairs=${4:-10}

tmp=$(mktemp -d)
restore() {
    rm -rf "$tmp"
    git -C "$parent" checkout -q -- benchmark/Cargo.lock
    git -C "$change" checkout -q -- benchmark/Cargo.lock
}
trap restore EXIT

# The command of BENCHMARK.json, run from the root of checkout $1.
bench() {
    dir=$1
    shift
    (cd "$dir" && cargo run --release --offline --quiet \
        --manifest-path benchmark/Cargo.toml -- "$@")
}

for dir in "$parent" "$change"; do
    (cd "$dir" && cargo build --release --offline --quiet \
        --manifest-path benchmark/Cargo.toml)
done

# One run: its `metric <workload> <name> <value> <unit>` lines, tagged.
run() {
    side=$1
    dir=$2
    bench "$dir" --workload "$workload" --seconds 15 --trace 0 --out "$tmp/out" |
        awk -v pair="$pair" -v side="$side" \
            '$1 == "metric" { print pair, side, $3, $4, $5 }' |
        tee -a "$tmp/runs"
}

pair=1
while [ "$pair" -le "$pairs" ]; do
    if [ $((pair % 2)) -eq 1 ]; then
        run parent "$parent"
        run change "$change"
    else
        run change "$change"
        run parent "$parent"
    fi
    pair=$((pair + 1))
done

echo
echo "$workload, $pairs pairs: metric, parent median [q1 .. q3], change median, ratio, pairs the change read better"
sort -k3,3 -k2,2 -k4,4g "$tmp/runs" | awk '
    # Linear interpolation between order statistics of v[1..n].
    function quantile(v, n, q,    at, lo) {
        at = 1 + (n - 1) * q; lo = int(at)
        return lo >= n ? v[n] : v[lo] + (at - lo) * (v[lo + 1] - v[lo])
    }
    function report(    i, wins, better) {
        for (i in byp) if (i in byc) {
            better = metric == "ops_per_s" ? byc[i] > byp[i] : byc[i] < byp[i]
            wins += better
        }
        printf "%-12s %.6g [%.6g .. %.6g]  %.6g  x%.3f  %d/%d %s\n", metric,
            quantile(p, np, 0.5), quantile(p, np, 0.25), quantile(p, np, 0.75),
            quantile(c, nc, 0.5), quantile(c, nc, 0.5) / quantile(p, np, 0.5),
            wins, np, unit
    }
    $3 != metric {
        if (metric != "") report()
        metric = $3; np = nc = 0; split("", byp); split("", byc)
    }
    { unit = $5 }
    $2 == "parent" { p[++np] = $4; byp[$1] = $4 }
    $2 == "change" { c[++nc] = $4; byc[$1] = $4 }
    END { if (metric != "") report() }'
