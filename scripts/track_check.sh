#!/usr/bin/env bash
# Replica-track equivalence check at the CLI level: the same three-job
# workload submitted to a 2-track fleet and to a single daemon must
# produce identical certificate fingerprints, and a track SIGKILLed
# mid-workload must be survivable — the other track re-runs the dead
# track's claimed job at the same ledger position (at-most-once) and
# keeps serving the client's comma-separated --addr list.
# Usage: scripts/track_check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=target/release/gendpr
cargo build --release -q

DIR=$(mktemp -d "${TMPDIR:-/tmp}/gendpr-track-check.XXXXXX")
PIDS=()
cleanup() {
  for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  rm -rf "$DIR"
}
trap cleanup EXIT

"$BIN" synth --snps 192 --cases 40 --reference 40 --seed 7 --out "$DIR/data"

serve_track() { # $1 = ledger, $2 = addr, $3 = track id (or "none"), $4 = lease ms
  local track_flags=()
  if [ "$3" != "none" ]; then
    track_flags=(--track-id "$3" --track-lease-ms "$4")
  fi
  "$BIN" serve --gdos 2 \
    --case "$DIR/data/case.vcf" --reference "$DIR/data/reference.vcf" \
    --ledger "$1" --listen "$2" "${track_flags[@]}" --timeout 60 \
    >>"$DIR/serve-$2.log" 2>&1 &
  PIDS+=($!)
  for _ in $(seq 1 100); do
    if "$BIN" status --addr "$2" >/dev/null 2>&1; then return; fi
    sleep 0.2
  done
  echo "error: daemon at $2 never came up" >&2
  cat "$DIR/serve-$2.log" >&2
  exit 1
}

stop_all() {
  for pid in "${PIDS[@]:-}"; do
    kill -0 "$pid" 2>/dev/null || continue
    wait "$pid" 2>/dev/null || true
  done
  PIDS=()
}

fingerprint() { grep 'assessment certificate' | awk '{print $3}'; }

port() { echo "127.0.0.1:$((7500 + RANDOM % 2000))"; }

# --- Part 1: 1-vs-2-track fingerprint equivalence -----------------------

ADDR_SINGLE=$(port)
serve_track "$DIR/single.bin" "$ADDR_SINGLE" none 0
BASELINE=""
for range in 0-119 60-191 0-47; do
  OUT=$("$BIN" submit --addr "$ADDR_SINGLE" --snps "$range")
  BASELINE+="$(fingerprint <<<"$OUT")"$'\n'
done
"$BIN" stop --addr "$ADDR_SINGLE" >/dev/null
stop_all

ADDR_T0=$(port); ADDR_T1=$(port)
while [ "$ADDR_T1" = "$ADDR_T0" ]; do ADDR_T1=$(port); done
serve_track "$DIR/fleet.bin" "$ADDR_T0" 0 10000
serve_track "$DIR/fleet.bin" "$ADDR_T1" 1 10000
FLEET=""
# Alternate tracks per job: commits still land in claim order.
FLEET+="$(set -o pipefail; "$BIN" submit --addr "$ADDR_T0" --snps 0-119 | fingerprint)"$'\n'
FLEET+="$(set -o pipefail; "$BIN" submit --addr "$ADDR_T1" --snps 60-191 | fingerprint)"$'\n'
FLEET+="$(set -o pipefail; "$BIN" submit --addr "$ADDR_T0" --snps 0-47 | fingerprint)"$'\n'
"$BIN" stop --addr "$ADDR_T0" >/dev/null
"$BIN" stop --addr "$ADDR_T1" >/dev/null
stop_all

[ -n "$BASELINE" ]
if [ "$BASELINE" != "$FLEET" ]; then
  echo "error: a 2-track fleet changed a certificate fingerprint:" >&2
  printf -- 'single daemon:\n%s\n2 tracks:\n%s\n' "$BASELINE" "$FLEET" >&2
  exit 1
fi
echo "track equivalence passed ($(grep -c . <<<"$BASELINE") certificates identical)"

# --- Part 2: SIGKILL a track mid-job; the survivor reclaims -------------

ADDR_T0=$(port); ADDR_T1=$(port)
while [ "$ADDR_T1" = "$ADDR_T0" ]; do ADDR_T1=$(port); done
serve_track "$DIR/failover.bin" "$ADDR_T0" 0 1500
KILL_PID=${PIDS[-1]}
serve_track "$DIR/failover.bin" "$ADDR_T1" 1 1500

# Queue a job on track 0 without waiting, then SIGKILL the track. Its
# claim is in the log; after the lease expires the survivor must re-run
# it, so the record becomes fetchable from track 1.
JOB=$("$BIN" submit --addr "$ADDR_T0" --snps 0-119 --no-wait | grep -o 'job [0-9]*' | head -1 | awk '{print $2}')
kill -9 "$KILL_PID"
wait "$KILL_PID" 2>/dev/null || true

# The comma-separated address list fails over past the corpse.
"$BIN" status --addr "$ADDR_T0,$ADDR_T1" >/dev/null

# A fresh job on the survivor forces its commit gate through the dead
# track's claim (wait out the lease, reclaim, re-run, commit in order).
"$BIN" submit --addr "$ADDR_T1" --snps 60-191 >/dev/null

# Capture first, then grep: `CMD | grep -q` lets grep exit at the first
# match and SIGPIPE the client mid-print, which pipefail reports.
for _ in $(seq 1 100); do
  OUT=$("$BIN" results --job "$JOB" --addr "$ADDR_T1")
  if grep -q 'assessment certificate' <<<"$OUT"; then
    break
  fi
  sleep 0.3
done
grep -q 'assessment certificate' <<<"$OUT" || {
  echo "error: the survivor never committed the dead track's job $JOB" >&2
  cat "$DIR/serve-$ADDR_T1.log" >&2
  exit 1
}
"$BIN" stop --addr "$ADDR_T1" >/dev/null
stop_all
echo "track failover passed (job $JOB reclaimed by the survivor after SIGKILL)"
