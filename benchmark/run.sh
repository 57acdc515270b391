#!/usr/bin/env bash
# The benchmark's single command: builds the harness offline (release),
# then runs it. With no arguments: all four workloads, each untraced
# (end-to-end metrics) and traced (per-layer metrics), report written to
# benchmark/out/report.json. See benchmark/README.md.
#
#   run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out PATH]
#   run.sh --smoke | --write-expected | --compare A.json[,...] B.json[,...]
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
# A relative CARGO_TARGET_DIR (the driver's .bench_build) is relative to
# where the command was started, not to the harness crate.
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
# Build output goes to stderr: stdout belongs to the report.
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" >&2
GENDPR_BENCH_DIR="$here" exec "$target/release/gendpr-benchmark" "$@"
