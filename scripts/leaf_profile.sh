#!/usr/bin/env bash
# Leaf profile of one benchmark workload: the functions the CPU was in
# when SIGPROF landed ("self" time, no call stacks). Compiles a small
# SIGPROF/setitimer sampler (C, through `cc`) into a temp dir, builds the
# benchmark binary offline, runs one untraced run of the workload with
# the sampler preloaded, and prints the largest self shares of the samples
# taken in the run's last SECONDS (the timed window; set-up and warm-up
# come before it), symbolised with `nm -C`. Samples outside the benchmark
# binary (libc's futex and clock calls, the vDSO) count by library. The
# assess-* workloads pin themselves to one CPU. Writes nothing under
# benchmark/ but the harness's usual out/; builds into CARGO_TARGET_DIR
# or the repository's target/. x86-64 Linux; not part of check.sh.
# Usage: scripts/leaf_profile.sh <workload> [seconds=20] [top=25]
set -euo pipefail

[ $# -ge 1 ] || { sed -n 's/^# Usage: /usage: /p' "$0" >&2; exit 1; }
repo="$(cd "$(dirname "$0")/.." && pwd)"
workload=$1
seconds=${2:-20}
top=${3:-25}
target="${CARGO_TARGET_DIR:-$repo/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
work=$(mktemp -d "${TMPDIR:-/tmp}/gendpr-leaf.XXXXXX")
trap 'rm -rf "$work"' EXIT

# The sampler. The handler stores the interrupted RIP and a monotonic
# timestamp; the destructor writes the program's load bias, the
# executable mappings and the samples (age at exit in ns, address).
cat >"$work/sampler.c" <<'C'
#define _GNU_SOURCE
#include <link.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1 << 20)
static struct { long long ns; unsigned long ip; } samples[MAX_SAMPLES];
static unsigned long taken;

static long long now_ns(void) {
    struct timespec t;
    clock_gettime(CLOCK_MONOTONIC, &t);
    return t.tv_sec * 1000000000LL + t.tv_nsec;
}

static void on_sigprof(int sig, siginfo_t *info, void *context) {
    (void)sig;
    (void)info;
    unsigned long n = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (n < MAX_SAMPLES) {
        samples[n].ns = now_ns();
        samples[n].ip = ((ucontext_t *)context)->uc_mcontext.gregs[REG_RIP];
    }
}

static int main_bias(struct dl_phdr_info *info, size_t size, void *bias) {
    (void)size;
    *(unsigned long *)bias = info->dlpi_addr; /* the first entry is the program */
    return 1;
}

__attribute__((constructor)) static void start(void) {
    if (!getenv("LEAF_PROFILE_OUT")) return;
    struct sigaction action;
    memset(&action, 0, sizeof action);
    action.sa_sigaction = on_sigprof;
    action.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &action, NULL);
    struct itimerval every_ms = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every_ms, NULL);
}

__attribute__((destructor)) static void finish(void) {
    const char *path = getenv("LEAF_PROFILE_OUT");
    if (!path) return;
    struct itimerval off;
    memset(&off, 0, sizeof off);
    setitimer(ITIMER_PROF, &off, NULL);
    long long end = now_ns();
    FILE *out = fopen(path, "w"), *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps) return;
    unsigned long bias = 0;
    dl_iterate_phdr(main_bias, &bias);
    fprintf(out, "bias %lx\n", bias);
    char line[4096], perms[8], file[4096];
    unsigned long lo, hi;
    while (fgets(line, sizeof line, maps))
        if (sscanf(line, "%lx-%lx %7s %*s %*s %*s %4095s", &lo, &hi, perms, file) == 4 && perms[2] == 'x')
            fprintf(out, "map %lx %lx %s\n", lo, hi, file);
    unsigned long n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    for (unsigned long i = 0; i < n; i++)
        fprintf(out, "s %lld %lx\n", end - samples[i].ns, samples[i].ip);
    fclose(maps);
    fclose(out);
}
C
cc -O2 -shared -fPIC -o "$work/sampler.so" "$work/sampler.c"

CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$repo/benchmark/Cargo.toml"
bin="$target/release/gendpr-benchmark"

LEAF_PROFILE_OUT="$work/samples.txt" LD_PRELOAD="$work/sampler.so" \
    GENDPR_BENCH_DIR="$repo/benchmark" \
    "$bin" --workload "$workload" --seconds "$seconds" --trace 0 >"$work/run.txt"
# The run's own end-to-end metrics, for the reader.
awk '$1 ~ /^[a-z_]+$/ && $2 ~ /^[0-9.]+$/' "$work/run.txt"

nm -C -n --defined-only "$bin" >"$work/symbols.txt"
awk -v window_ns="$((seconds * 1000000000))" -v bin="$(readlink -f "$bin")" '
function hex(s,    v, i) {
    v = 0; s = tolower(s)
    for (i = 1; i <= length(s); i++) v = v * 16 + index("0123456789abcdef", substr(s, i, 1)) - 1
    return v
}
# The last text symbol at or below `a`, by binary search.
function symbol(a,    lo, hi, mid) {
    if (nsym == 0 || a < addr[1]) return "[binary, no symbol]"
    lo = 1; hi = nsym
    while (lo < hi) { mid = int((lo + hi + 1) / 2); if (addr[mid] <= a) lo = mid; else hi = mid - 1 }
    return name[lo]
}
FNR == NR {
    if ($2 ~ /^[tTwW]$/) { addr[++nsym] = hex($1); n = $0; sub(/^[^ ]+ [^ ]+ /, "", n); name[nsym] = n }
    next
}
$1 == "bias" { bias = hex($2); next }
$1 == "map" { lo[++nmap] = hex($2); hi[nmap] = hex($3); path[nmap] = $4; next }
$1 == "s" {
    all++
    if ($2 + 0 > window_ns) next
    ip = hex($3); where = "[no mapping]"
    for (m = 1; m <= nmap; m++) if (ip >= lo[m] && ip < hi[m]) {
        if (path[m] == bin) where = symbol(ip - bias)
        else { where = path[m]; sub(/.*\//, "", where); where = "[" where "]" }
        break
    }
    count[where]++; kept++
}
END {
    printf "%d of %d samples in the last %d s\n", kept, all, window_ns / 1e9 > "/dev/stderr"
    for (w in count) printf "%7.2f %%  %6d  %s\n", 100 * count[w] / kept, count[w], w
}' "$work/symbols.txt" "$work/samples.txt" | sort -rn | head -n "$top"
