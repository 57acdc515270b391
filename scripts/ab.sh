#!/usr/bin/env bash
# Alternating A/B of one benchmark workload between two checkouts — the
# measurement a claimed gain rests on (EXPERIMENTS.md): pair i runs
# `benchmark/run.sh --workload W --seed i --trace 0` once in each checkout,
# odd pairs parent first, even pairs change first. Prints the eight
# end-to-end metrics per pair, then per metric both medians, the median's
# change in %, the pairs the change won (ties count for neither) and the
# parent's quartile distance. A median change past the metric's bound in
# the change checkout's BENCHMARK.json (read, never written) is flagged
# WORSE. Exits non-zero if any run reports failed operations. Minutes long
# and timing-sensitive: not part of check.sh.
# Usage: scripts/ab.sh <parent-checkout> <change-checkout> <workload> [pairs=10] [seconds=25]
set -euo pipefail

[ $# -ge 3 ] || { sed -n 's/^# Usage: /usage: /p' "$0" >&2; exit 1; }
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
pairs=${4:-10}
seconds=${5:-25}
out=$(mktemp -d "${TMPDIR:-/tmp}/gendpr-ab.XXXXXX")
trap 'rm -rf "$out"' EXIT

failed=0
# run SIDE CHECKOUT SEED: one untraced run; its metric lines go to values.tsv.
run() {
    local log="$out/$1.$3.txt"
    bash "$2/benchmark/run.sh" --workload "$workload" --seed "$3" --seconds "$seconds" \
        --trace 0 --out "$out/$1.$3.json" >"$log" 2>"$out/$1.$3.err" || true
    if ! grep -q '| 0 of [0-9]* operations failed' "$log"; then
        echo "ab.sh: $1 seed $3 reported failed operations (or did not run):" >&2
        grep '^== ' "$log" >&2 || tail -n 5 "$out/$1.$3.err" >&2
        failed=1
    fi
    awk -v side="$1" -v seed="$3" '$1 ~ /^[a-z_]+$/ && $2 ~ /^[0-9.]+$/ { print side, seed, $1, $2 }' \
        "$log" >>"$out/values.tsv"
}

echo "workload $workload, $pairs pairs of $seconds s; parent $parent, change $change"
for seed in $(seq 1 "$pairs"); do
    if [ $((seed % 2)) -eq 1 ]; then
        run parent "$parent" "$seed"
        run change "$change" "$seed"
    else
        run change "$change" "$seed"
        run parent "$parent" "$seed"
    fi
    echo "pair $seed done" >&2
done

# "name better bound" per end-to-end metric of BENCHMARK.json.
awk '/"end_to_end"/ { on = 1 } /"per_layer"/ { on = 0 }
    on && /"name"/ { gsub(/[",]/, "", $2); name = $2 }
    on && /"better"/ { gsub(/[",]/, "", $2); better = $2 }
    on && /"bound"/ { gsub(/[",]/, "", $2); print name, better, $2 }' \
    "$change/BENCHMARK.json" >"$out/bounds.txt"

awk -v pairs="$pairs" '
function sorted(side, m, v,    n, i, j, t) {
    n = 0
    for (i = 1; i <= pairs; i++) if ((side, i, m) in val) v[++n] = val[side, i, m]
    for (i = 2; i <= n; i++) for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
    return n
}
# Quantile q of the n sorted values v[1..n], linear between neighbours.
function quantile(v, n, q,    pos, lo) {
    if (n == 0) return 0
    pos = 1 + q * (n - 1); lo = int(pos)
    return lo >= n ? v[n] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
}
FNR == NR { better[$1] = $2; bound[$1] = $3; next }
{ val[$1, $2, $3] = $4; if (!($3 in seen)) { seen[$3] = 1; order[++metrics] = $3 } }
END {
    for (k = 1; k <= metrics; k++) {
        m = order[k]
        higher = better[m] == "higher"
        printf "\n%s (%s is better)\n  %4s %16s %16s\n", m, higher ? "higher" : "lower", "pair", "parent", "change"
        wins = ties = 0
        for (i = 1; i <= pairs; i++) {
            if (!((("parent", i, m) in val) && (("change", i, m) in val))) continue
            p = val["parent", i, m]; c = val["change", i, m]
            printf "  %4d %16.4f %16.4f\n", i, p, c
            if (p == c) ties++
            else if (higher == (c > p)) wins++
        }
        np = sorted("parent", m, vp); nc = sorted("change", m, vc)
        mp = quantile(vp, np, 0.5); mc = quantile(vc, nc, 0.5)
        pct = mp == 0 ? (mc == 0 ? 0 : 100) : 100 * (mc - mp) / mp
        worse = (m in bound) && (higher ? -pct : pct) > 100 * bound[m]
        printf "  median %.4f -> %.4f (%+.2f %%%s) | change wins %d of %d (ties %d) | parent quartile distance %.4f\n", \
            mp, mc, pct, worse ? ", WORSE: bound " 100 * bound[m] " %" : "", wins, np, ties, \
            quantile(vp, np, 0.75) - quantile(vp, np, 0.25)
    }
}' "$out/bounds.txt" "$out/values.tsv"

exit "$failed"
