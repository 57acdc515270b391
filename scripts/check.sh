#!/usr/bin/env bash
# Repo health check: formatting, lints, docs, every workspace member's tests.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

# --all-targets: tests, examples and the crates/bench bins are compiled by
# the steps below, so they are linted too.
echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Every PR rewrites the docs: a link to a deleted or private item fails here.
echo '==> RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace'
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

# --workspace: the same members the root's `default-members` makes a bare
# `cargo test` run (the facade's suites and every crate's own, e.g.
# crates/stats/tests/lr_columnar_props.rs, the LR kernels' equivalence
# proof), spelled out. --no-fail-fast: one failing member must not hide
# the ones after it.
echo "==> cargo test --workspace --no-fail-fast -q"
cargo test --workspace --no-fail-fast -q

# The examples are the public callers of Federation and the threaded
# runtime: run every one (release, ~1.5 s in total), not only compile it.
echo "==> examples (release)"
for example in examples/*.rs; do
    cargo run --release -q --example "$(basename "$example" .rs)" >/dev/null
done

# The LR sweeps' bit-identity — each vector width this CPU has (the AVX2
# and the AVX-512 kernels, each called directly) against the scalar loops
# they fall back to, NaN signs included — is a statement about optimised
# arithmetic: test the build that ships, not only the debug one. Two
# invariants of the one-sweep search ride on it: every count is a per-lane
# counter reduced once a sweep, and must equal the scalar count, tail lanes
# included; and a reject's back-out rides in the next candidate's sweep,
# which must leave exactly the reference's `(s + v) − v` before it adds its
# own column (lr_columnar_props' streak, miss and prefix fixtures). So are
# the three bulk-byte kernels, each against its scalar code at every width
# this CPU has: the AVX-512 64x64 bit transpose (gendpr-genomics, here),
# and the eight-lane AVX-512 IFMA Poly1305 and the SHA-NI SHA-256
# compression (gendpr-crypto, in the message-path step below). The
# cohort pins (synth::tests::the_cohorts_are_pinned: every word, frequency,
# effect SNP and block start of six shapes) hold the word-at-a-time
# generator to the optimised build too.
echo "==> cargo test --release -p gendpr-stats -p gendpr-genomics -q"
cargo test --release -p gendpr-stats -p gendpr-genomics -q

# Same for the message path: the AEAD's RFC 8439 vectors and in-place
# oracles, every ChaCha20 kernel this CPU has (the SSE2 four-lane one
# always, the AVX-512 sixteen-lane one where detected) against the scalar
# block function lane by lane (and the pinned generator streams: the
# first MiB, and mixed-width draws across sixteen-block refills), the
# Poly1305 and SHA-256 kernels against their scalar code, the
# channels' look-ahead of message heads against the copying AEAD, the
# slice codec and the fabric's burst/wake tests run against
# the optimised build that carries every member message. The engine,
# chaos and distributed suites too: how many replies a follower finds
# queued when it wakes, whether a frame arrives in sequence, and whether
# a forged or a genuine frame lands first depend on timing.
echo "==> cargo test --release -p gendpr-crypto -p gendpr-tee -p gendpr-fednet -q"
cargo test --release -p gendpr-crypto -p gendpr-tee -p gendpr-fednet -q
# tests/alloc_budget.rs bounds the heap allocations of one message on the
# in-memory fabric (it runs in debug with the workspace above). LLVM may
# elide allocations in release that debug makes, or make ones debug does
# not, so the bound is checked in the build that ships as well.
echo "==> cargo test --release --test engine --test chaos --test distributed --test chaos_props --test alloc_budget --test fabric_telemetry -q"
cargo test --release --test engine --test chaos --test distributed --test chaos_props --test alloc_budget --test fabric_telemetry -q
# Which thread hands a serving follower a frame (the sender's, a chaos
# flusher's or its own) depends on timing: the fabric's inline tests run
# with gendpr-fednet above, the follower machine's proptest here.
echo "==> cargo test --release -p gendpr-core --lib -q engine::tests::the_follower_machine"
cargo test --release -p gendpr-core --lib -q engine::tests::the_follower_machine

# The paper's artefacts call every driver (Federation, the naive and
# centralized baselines, the attested runtime) and assert their own
# invariants (identical selections across transport options): run each
# binary at a tiny scale, release, 25-94 ms apiece.
echo "==> paper artefacts (gendpr-bench, --scale 0.02)"
cargo build --release -q -p gendpr-bench
for artefact in table3 table4 table5 fig5 fig6 ablation; do
    "target/release/$artefact" --scale 0.02 >/dev/null
done

# Reduced-scale bench run: bench_phases asserts naive-vs-columnar checksum
# and LR-selection equality internally, so a clean exit is the validation.
echo "==> bench smoke (checksum-validated, --scale 0.02)"
BENCH_SMOKE_OUT=$(mktemp "${TMPDIR:-/tmp}/gendpr-bench-smoke.XXXXXX.json")
trap 'rm -f "$BENCH_SMOKE_OUT"' EXIT
scripts/bench.sh --scale 0.02 --out "$BENCH_SMOKE_OUT" >/dev/null
grep -q '"selection_identical": true' "$BENCH_SMOKE_OUT"
grep -q '"shard_identical": true' "$BENCH_SMOKE_OUT"
# The LR sweeps cost the same on columns the branch predictor has never
# seen as on one it has: the level select compiled to a blend (a mask
# blend by the bit word's byte on AVX-512, a compare-made mask on AVX2) or
# a load (the scalar fallback), not a jump. The row times the widest
# sweep this CPU dispatches.
grep -q '"branch_free": true' "$BENCH_SMOKE_OUT"

# All four benchmark workloads at smoke length: selections, certificates
# and the seed-1 message/byte counts must match benchmark/expected.json.
echo "==> benchmark smoke (fingerprints vs benchmark/expected.json)"
bash benchmark/run.sh --smoke >/dev/null

echo "==> service smoke test"
scripts/service_smoke.sh

echo "==> shard equivalence (--shards 4 vs --shards 1)"
scripts/shard_check.sh

echo "==> track equivalence and failover (2-track fleet vs single daemon)"
scripts/track_check.sh

echo "All checks passed."
