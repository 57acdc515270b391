#!/usr/bin/env bash
# Service smoke test: a live `gendpr serve` federation certifies two
# overlapping studies, the second seeded with the first's ledger entries,
# across a daemon kill/restart — and the restarted second certificate is
# identical to the one a never-restarted daemon produces. Along the way
# the daemon's --metrics-addr exposition is scraped and must contain
# per-phase timers with samples, job counters and transport counters.
# Usage: scripts/service_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=target/release/gendpr
cargo build --release -q

DIR=$(mktemp -d "${TMPDIR:-/tmp}/gendpr-smoke.XXXXXX")
SERVE_PID=""
cleanup() {
  [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true
  rm -rf "$DIR"
}
trap cleanup EXIT

"$BIN" synth --snps 60 --cases 40 --reference 40 --seed 2 --out "$DIR/data"

serve() { # $1 = ledger file
  "$BIN" serve --gdos 2 \
    --case "$DIR/data/case.vcf" --reference "$DIR/data/reference.vcf" \
    --ledger "$1" --listen "$ADDR" --timeout 60 \
    --metrics-addr "$METRICS_ADDR" --log-level info 2>>"$DIR/serve.log" &
  SERVE_PID=$!
  for _ in $(seq 1 100); do
    if "$BIN" status --addr "$ADDR" >/dev/null 2>&1; then return; fi
    sleep 0.2
  done
  echo "error: daemon at $ADDR never came up" >&2
  exit 1
}

stop_daemon() {
  "$BIN" stop --addr "$ADDR" >/dev/null
  wait "$SERVE_PID" # clean shutdown: exit code 0
  SERVE_PID=""
}

fingerprint() { grep 'assessment certificate' | awk '{print $3}'; }

# Fetches the Prometheus exposition from the daemon's --metrics-addr
# endpoint, via curl when available and bash's /dev/tcp otherwise.
scrape_metrics() {
  if command -v curl >/dev/null 2>&1; then
    curl -sf "http://$METRICS_ADDR/metrics"
  else
    exec 3<>"/dev/tcp/${METRICS_ADDR%:*}/${METRICS_ADDR#*:}"
    printf 'GET /metrics HTTP/1.1\r\nHost: smoke\r\nConnection: close\r\n\r\n' >&3
    cat <&3
    exec 3<&- 3>&-
  fi
}

echo "==> restarted run: job 1, daemon restart, job 2 over the same ledger"
ADDR="127.0.0.1:$((7500 + RANDOM % 2000))"
METRICS_ADDR="127.0.0.1:$((9500 + RANDOM % 2000))"
serve "$DIR/ledger.bin"
JOB1=$("$BIN" submit --addr "$ADDR" --snps 0-39)
grep -q 'seeded with 0 prior' <<<"$JOB1" # fresh ledger: nothing to charge
stop_daemon

serve "$DIR/ledger.bin" # the restart reloads the release ledger
JOB2=$("$BIN" submit --addr "$ADDR" --snps 20-59)
if grep -q 'seeded with 0 prior' <<<"$JOB2"; then
  echo "error: job 2 was not charged with job 1's release" >&2
  echo "$JOB2" >&2
  exit 1
fi
grep -q 'seeded with' <<<"$JOB2"
# Capture first, then grep: `CMD | grep -q` lets grep exit at the first
# match and SIGPIPE the client mid-print, which pipefail reports.
"$BIN" status --addr "$ADDR" >"$DIR/status.out"
grep -q 'link' "$DIR/status.out" # per-link traffic is reported

echo "==> metrics exposition at $METRICS_ADDR"
METRICS=$(scrape_metrics)
for series in gendpr_phase_seconds gendpr_jobs_total gendpr_jobs_queued \
  gendpr_subset_evaluations_total gendpr_net_frames_sent_total; do
  if ! grep -q "^# TYPE $series" <<<"$METRICS"; then
    echo "error: metrics exposition is missing $series" >&2
    echo "$METRICS" >&2
    exit 1
  fi
done
for phase in maf ld lr; do
  COUNT=$(awk -F' ' "/^gendpr_phase_seconds_count\{phase=\"$phase\"\}/ {print \$2}" <<<"$METRICS")
  if [ -z "$COUNT" ] || [ "$COUNT" -lt 1 ]; then
    echo "error: phase timer $phase has no samples (count: '${COUNT:-missing}')" >&2
    exit 1
  fi
done
# The columnar LR kernels must have counted real work: candidates swept,
# columns kept, and at least one timed search.
LR_CANDIDATES=$(awk -F' ' '/^gendpr_lr_candidates_total / {print $2}' <<<"$METRICS")
if [ -z "$LR_CANDIDATES" ] || [ "$LR_CANDIDATES" -lt 1 ]; then
  echo "error: LR kernel swept no candidates (count: '${LR_CANDIDATES:-missing}')" >&2
  exit 1
fi
LR_KEPT=$(awk -F' ' '/^gendpr_lr_columns_kept_total / {print $2}' <<<"$METRICS")
if [ -z "$LR_KEPT" ] || [ "$LR_KEPT" -lt 1 ]; then
  echo "error: LR kernel kept no columns (count: '${LR_KEPT:-missing}')" >&2
  exit 1
fi
LR_SEARCHES=$(awk -F' ' '/^gendpr_lr_search_seconds_count/ {print $2}' <<<"$METRICS")
if [ -z "$LR_SEARCHES" ] || [ "$LR_SEARCHES" -lt 1 ]; then
  echo "error: LR search histogram has no samples (count: '${LR_SEARCHES:-missing}')" >&2
  exit 1
fi
CERTIFIED=$(awk -F' ' '/^gendpr_jobs_total\{outcome="certified"\}/ {print $2}' <<<"$METRICS")
if [ -z "$CERTIFIED" ] || [ "$CERTIFIED" -lt 1 ]; then
  echo "error: no certified jobs counted in the exposition" >&2
  exit 1
fi
# --log-level info put JSON-lines events on the daemon's stderr.
grep -q '"msg":"job_certified"' "$DIR/serve.log" || {
  echo "error: no job_certified event in the daemon log" >&2
  cat "$DIR/serve.log" >&2
  exit 1
}
# `status --metrics` dumps the same exposition without the HTTP endpoint.
"$BIN" status --addr "$ADDR" --metrics >"$DIR/status-metrics.out"
grep -q '^gendpr_jobs_queued' "$DIR/status-metrics.out" || {
  echo "error: status --metrics did not include the queue gauge" >&2
  exit 1
}
FP_RESTARTED=$(fingerprint <<<"$JOB2")
stop_daemon

echo "==> continuous run: both jobs against one daemon"
ADDR="127.0.0.1:$((7500 + RANDOM % 2000))"
METRICS_ADDR="127.0.0.1:$((9500 + RANDOM % 2000))"
serve "$DIR/ledger-continuous.bin"
"$BIN" submit --addr "$ADDR" --snps 0-39 >/dev/null
FP_CONTINUOUS=$("$BIN" submit --addr "$ADDR" --snps 20-59 | fingerprint)
stop_daemon

echo "==> worker pool: concurrent clients against a --workers 2 daemon"
ADDR="127.0.0.1:$((7500 + RANDOM % 2000))"
METRICS_ADDR="127.0.0.1:$((9500 + RANDOM % 2000))"
serve_pool() { # $1 = ledger file
  "$BIN" serve --gdos 2 --workers 2 --max-queue 8 \
    --case "$DIR/data/case.vcf" --reference "$DIR/data/reference.vcf" \
    --ledger "$1" --listen "$ADDR" --timeout 60 \
    --metrics-addr "$METRICS_ADDR" --log-level info 2>>"$DIR/serve-pool.log" &
  SERVE_PID=$!
  for _ in $(seq 1 100); do
    if "$BIN" status --addr "$ADDR" >/dev/null 2>&1; then return; fi
    sleep 0.2
  done
  echo "error: pooled daemon at $ADDR never came up" >&2
  exit 1
}
serve_pool "$DIR/ledger-pool.bin"
"$BIN" status --addr "$ADDR" >"$DIR/status-pool.out"
grep -q 'scheduler: 0/2 workers busy' "$DIR/status-pool.out" || {
  echo "error: status does not report the worker pool" >&2
  exit 1
}
# Four concurrent waiting submits share the two lanes; all must certify.
PIDS=()
for range in 0-19 10-29 20-39 30-49; do
  "$BIN" submit --addr "$ADDR" --snps "$range" >"$DIR/job-$range.out" &
  PIDS+=($!)
done
for pid in "${PIDS[@]}"; do
  wait "$pid" || {
    echo "error: a concurrent submit failed" >&2
    cat "$DIR"/job-*.out >&2
    exit 1
  }
done
grep -L 'assessment certificate' "$DIR"/job-*.out | while read -r missing; do
  echo "error: $missing certified nothing" >&2
  exit 1
done
# The scheduler's own series must have counted the storm.
METRICS=$(scrape_metrics)
for series in gendpr_sched_jobs_dispatched_total gendpr_sched_queue_depth \
  gendpr_sched_workers_busy gendpr_sched_job_wait_seconds; do
  if ! grep -q "^# TYPE $series" <<<"$METRICS"; then
    echo "error: metrics exposition is missing $series" >&2
    exit 1
  fi
done
DISPATCHED=$(awk -F' ' '/^gendpr_sched_jobs_dispatched_total / {print $2}' <<<"$METRICS")
if [ -z "$DISPATCHED" ] || [ "$DISPATCHED" -lt 4 ]; then
  echo "error: scheduler dispatched ${DISPATCHED:-nothing}, expected >= 4" >&2
  exit 1
fi
stop_daemon

[ -n "$FP_RESTARTED" ]
if [ "$FP_RESTARTED" != "$FP_CONTINUOUS" ]; then
  echo "error: certificate changed across the restart:" >&2
  echo "  restarted:  $FP_RESTARTED" >&2
  echo "  continuous: $FP_CONTINUOUS" >&2
  exit 1
fi
echo "service smoke test passed (second certificate $FP_RESTARTED)"
