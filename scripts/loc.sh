#!/usr/bin/env bash
# Lines added / removed / net since BASE, per source tree — the figure the
# simplicity entries in CHANGES.md quote — beside the same trees counted
# without test code: lines inside `#[cfg(test)]` items, and whole files
# declared as `#[cfg(test)] mod name;`, are left out of the base/now/net
# columns, and the changed files under crates/*/src are listed one by one.
# That makes a "net negative outside tests" criterion mechanical.
# Informational: check.sh does not gate on it.
# Usage: scripts/loc.sh [BASE]     (default: the last `re-anchor` commit)
# Compares BASE with the working tree; a new file counts once it is staged
# (`git add`). *.md, benchmark/, vendor/ and target/ are not counted.
set -euo pipefail
cd "$(dirname "$0")/.."

base=${1:-$(git log --grep='^re-anchor' -n 1 --format=%H)}
[ -n "$base" ] || { echo "loc.sh: no re-anchor commit found; pass BASE" >&2; exit 1; }
echo "since $(git log -n 1 --format='%h %s' "$base" | cut -c1-72)"

# show REV PATH: the file at REV ("" = working tree), empty when absent.
show() {
    if [ -z "$1" ]; then cat "$2" 2>/dev/null || true; else git show "$1:$2" 2>/dev/null || true; fi
}

# test_files REV: files declared `#[cfg(test)] mod name;` at REV.
test_files() {
    { git grep -n -A1 '#\[cfg(test)\]' ${1:+"$1"} -- crates src 2>/dev/null || true; } |
        sed -n 's/^\(.*\)-[0-9]*-[[:space:]]*\(pub([a-z]*) \)\{0,1\}mod \([a-z_0-9]*\);.*/\1 \3/p' |
        sed "s|^${1:+$1:}||" |
        while read -r file name; do
            dir=$(dirname "$file")
            case $(basename "$file") in
                mod.rs | lib.rs | main.rs) echo "$dir/$name.rs" ;;
                *) echo "$dir/$(basename "$file" .rs)/$name.rs" ;;
            esac
        done
}

# nontest REV PATH: lines of PATH at REV outside `#[cfg(test)]` items.
nontest() {
    show "$1" "$2" | awk '
        skip == 0 && /^[[:space:]]*#\[cfg\(test\)\]/ { skip = 1; depth = 0; opened = 0; next }
        skip == 1 {
            line = $0
            depth += gsub(/\{/, "", line)
            depth -= gsub(/\}/, "", line)
            if (depth > 0) opened = 1
            if ((opened && depth <= 0) || (!opened && $0 ~ /;[[:space:]]*$/)) skip = 0
            next
        }
        { n++ }
        END { print n + 0 }'
}

base_tests=$(test_files "$base")
now_tests=$(test_files "")
# count REV PATH: nontest, or 0 for a test-only file at REV.
count() {
    local tests=$base_tests
    [ -z "$1" ] && tests=$now_tests
    if grep -qxF "$2" <<<"$tests"; then echo 0; else nontest "$1" "$2"; fi
}

printf '%-24s %8s %8s %8s   %8s %8s %8s\n' tree added removed net base* now* net*
total_added=0
total_removed=0
total_nontest=0
files=()
for tree in crates/*/src src tests scripts examples; do
    read -r added removed < <(git diff --numstat "$base" -- "$tree" ':(exclude)*.md' |
        awk '$1 != "-" { a += $1; r += $2 } END { print a + 0, r + 0 }')
    [ "$added" -eq 0 ] && [ "$removed" -eq 0 ] && continue
    then_lines=0
    now_lines=0
    while read -r file; do
        [[ $file == *.rs ]] || continue
        b=$(count "$base" "$file")
        n=$(count "" "$file")
        then_lines=$((then_lines + b))
        now_lines=$((now_lines + n))
        [[ $tree == crates/* ]] && files+=("$file $b $n")
    done < <(git diff --name-only "$base" -- "$tree" ':(exclude)*.md')
    printf '%-24s %8d %8d %+8d   %8d %8d %+8d\n' "$tree" "$added" "$removed" $((added - removed)) \
        "$then_lines" "$now_lines" $((now_lines - then_lines))
    total_added=$((total_added + added))
    total_removed=$((total_removed + removed))
    total_nontest=$((total_nontest + now_lines - then_lines))
done
printf '%-24s %8d %8d %+8d   %8s %8s %+8d\n' total "$total_added" "$total_removed" \
    $((total_added - total_removed)) "" "" "$total_nontest"
echo "(* = lines outside #[cfg(test)] code, changed .rs files only)"
[ ${#files[@]} -eq 0 ] && exit 0
echo
printf '%-44s %8s %8s %8s\n' 'file (crates/*/src)' base* now* net*
for row in "${files[@]}"; do
    read -r file b n <<<"$row"
    printf '%-44s %8d %8d %+8d\n' "$file" "$b" "$n" $((n - b))
done
