#!/usr/bin/env bash
# Same-code noise gate: runs the current checkout as two sets (A, B) of
# untraced runs. Run i of either set uses seed i — the sets see the same
# inputs, as parent and change would — and B visits the workloads in
# reverse order. The sets' medians are then compared with the code path
# of `run.sh --compare`, in both directions, since with the same code on
# both sides neither may read worse than the other, and what was observed
# is written to NOISE.md. Exit 1 when any end-to-end metric differs
# between the sets by more than its bound, or when a set's own runs
# spread wider than the bound (`unresolved`; `setup_s` excepted, as in
# the acceptance gate, which checks only its medians).
#
#   selfcheck.sh [--runs N]   runs per set: 3 by default, 10 for the
#                             acceptance gate (quartile spreads need >= 4)
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
runs=3
if [ "${1:-}" = "--runs" ]; then runs="$2"; fi
out="$here/out/selfcheck"
rm -rf "$out" && mkdir -p "$out"
forward=(assess-lr assess-ld serve-lan serve-burst)
backward=(serve-burst serve-lan assess-ld assess-lr)

a_files=() b_files=()
for ((i = 1; i <= runs; i++)); do
    for w in "${forward[@]}"; do
        "$here/run.sh" --workload "$w" --seed "$i" --trace 0 --out "$out/a-$i-$w.json" >"$out/last-run.txt"
        [ -f "$out/header.txt" ] || grep '^# .*: ' "$out/last-run.txt" >"$out/header.txt"
        a_files+=("$out/a-$i-$w.json")
    done
    for w in "${backward[@]}"; do
        "$here/run.sh" --workload "$w" --seed "$i" --trace 0 --out "$out/b-$i-$w.json" >/dev/null
        b_files+=("$out/b-$i-$w.json")
    done
    echo "selfcheck: pair $i of $runs done" >&2
done
a="$(IFS=,; echo "${a_files[*]}")"
b="$(IFS=,; echo "${b_files[*]}")"

status=0
forward_table="$("$here/run.sh" --compare "$a" "$b")" || status=1
backward_table="$("$here/run.sh" --compare "$b" "$a")" || status=1
if grep -v ' setup_s ' <<<"$forward_table" | grep -q '%  unresolved$'; then status=1; fi
{
    echo "# Same-code noise: two sets of $runs runs of one checkout"
    echo
    echo "Written by \`benchmark/selfcheck.sh --runs $runs\`. Both sets ran seeds 1..$runs (run i of"
    echo "either set has seed i), set A with the workloads in table order, set B in"
    echo "reverse order, alternating A, B, A, B. \`change\` is how much worse the second"
    echo "set's median reads than the first's; \`spread\` is the wider of the two sets'"
    echo "own run-to-run spreads (distance between the quartiles over the median from"
    echo "four runs a set, the full range below that). The runs of a set differ in"
    echo "seed, so the spread includes what a different input does to the metric, as"
    echo "the acceptance gate's does; the sets share their seeds, so counts that the"
    echo "program derives from its input alone (\`msgs_per_job\` on \`assess-*\`) must"
    echo "agree exactly."
    echo
    sed 's/^# /- /' "$out/header.txt"
    echo
    echo "## B against A"
    echo
    echo '```'
    echo "$forward_table"
    echo '```'
    echo
    echo "## A against B"
    echo
    echo '```'
    echo "$backward_table"
    echo '```'
    echo
    if [ "$status" = 0 ]; then
        echo "Verdict: every end-to-end metric agrees between the sets, and spreads within each set, within its bound."
    else
        echo "Verdict: FAILED — a metric differs between two sets of the same code, or spreads within a set, by more than its bound."
    fi
} >"$here/NOISE.md"
echo "selfcheck: wrote $here/NOISE.md (exit $status)" >&2
exit "$status"
