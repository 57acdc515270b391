#!/usr/bin/env bash
# Lines added / removed / net since BASE, per source tree — the figure the
# simplicity entries in CHANGES.md quote and ROADMAP item 5's "net lines
# removed" target is read against. Informational: check.sh does not gate
# on it.
# Usage: scripts/loc.sh [BASE]     (default: the last `re-anchor` commit)
# Compares BASE with the working tree; a new file counts once it is staged
# (`git add`). *.md, benchmark/, vendor/ and target/ are not counted.
set -euo pipefail
cd "$(dirname "$0")/.."

base=${1:-$(git log --grep='^re-anchor' -n 1 --format=%H)}
[ -n "$base" ] || { echo "loc.sh: no re-anchor commit found; pass BASE" >&2; exit 1; }
echo "since $(git log -n 1 --format='%h %s' "$base" | cut -c1-72)"

printf '%-24s %8s %8s %8s\n' tree added removed net
total_added=0
total_removed=0
for tree in crates/*/src src tests scripts; do
    read -r added removed < <(git diff --numstat "$base" -- "$tree" ':(exclude)*.md' |
        awk '$1 != "-" { a += $1; r += $2 } END { print a + 0, r + 0 }')
    [ "$added" -eq 0 ] && [ "$removed" -eq 0 ] && continue
    printf '%-24s %8d %8d %+8d\n' "$tree" "$added" "$removed" $((added - removed))
    total_added=$((total_added + added))
    total_removed=$((total_removed + removed))
done
printf '%-24s %8d %8d %+8d\n' total "$total_added" "$total_removed" $((total_added - total_removed))
