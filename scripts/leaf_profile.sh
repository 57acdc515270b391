#!/usr/bin/env bash
# Leaf profile of one benchmark workload: the functions the CPU was in
# when SIGPROF landed ("self" time, no call stacks). Compiles a small
# SIGPROF/setitimer sampler (C, through `cc`) into a temp dir, builds the
# benchmark binary offline, runs one untraced run of the workload with
# the sampler preloaded, and prints the run's end-to-end metrics, its
# per-phase split on the assess-* workloads (`phase_ms`: aggregation,
# indexing, LD, LR; median ms a job) and the largest self shares of the
# samples taken in the run's last SECONDS (the timed window; set-up and
# warm-up come before it), symbolised with `nm -C`. A libc sample goes to the
# exported symbol whose extent (`nm -D -S`) holds it, or stays
# `[libc.so.6]` (internal code such as the memmove variants); samples in
# other libraries and the vDSO count by library. Last, the context
# switches per timed job (getrusage, all threads, over the same window)
# and the heap allocations per timed job: the sampler also defines
# malloc/calloc/realloc, counting each call before it forwards it to
# glibc's __libc_* entry points (what the Rust system allocator calls;
# posix_memalign, for over-aligned layouts, is not counted).
# The assess-* workloads pin themselves to one CPU. Writes nothing under
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
# timestamp, and every 64th sample the process's context switches and
# allocations so far; the destructor writes every object's load bias, the
# executable mappings, the samples (age at exit in ns, address) and the
# switch counts (age at exit in ns, voluntary, involuntary, allocations),
# the last at exit.
cat >"$work/sampler.c" <<'C'
#define _GNU_SOURCE
#include <link.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1 << 20)
static struct { long long ns; unsigned long ip; } samples[MAX_SAMPLES];
static unsigned long taken;
#define MAX_SWITCHES (MAX_SAMPLES / 64)
static struct { long long ns; long voluntary, involuntary; unsigned long allocations; } switches[MAX_SWITCHES];
static unsigned long switch_marks;

/* Heap allocations by every thread: calls to malloc, calloc and realloc. */
static unsigned long allocations;
extern void *__libc_malloc(size_t size);
extern void *__libc_calloc(size_t count, size_t size);
extern void *__libc_realloc(void *ptr, size_t size);

void *malloc(size_t size) {
    __atomic_fetch_add(&allocations, 1, __ATOMIC_RELAXED);
    return __libc_malloc(size);
}

void *calloc(size_t count, size_t size) {
    __atomic_fetch_add(&allocations, 1, __ATOMIC_RELAXED);
    return __libc_calloc(count, size);
}

void *realloc(void *ptr, size_t size) {
    __atomic_fetch_add(&allocations, 1, __ATOMIC_RELAXED);
    return __libc_realloc(ptr, size);
}

static void mark_switches(long long ns) {
    unsigned long n = __atomic_fetch_add(&switch_marks, 1, __ATOMIC_RELAXED);
    struct rusage usage;
    if (n < MAX_SWITCHES && getrusage(RUSAGE_SELF, &usage) == 0) {
        switches[n].ns = ns;
        switches[n].voluntary = usage.ru_nvcsw;
        switches[n].involuntary = usage.ru_nivcsw;
        switches[n].allocations = __atomic_load_n(&allocations, __ATOMIC_RELAXED);
    }
}

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
        if (n % 64 == 0) mark_switches(samples[n].ns);
    }
}

static int main_bias(struct dl_phdr_info *info, size_t size, void *bias) {
    (void)size;
    *(unsigned long *)bias = info->dlpi_addr; /* the first entry is the program */
    return 1;
}

static int library_bias(struct dl_phdr_info *info, size_t size, void *out) {
    (void)size;
    if (info->dlpi_name && info->dlpi_name[0])
        fprintf((FILE *)out, "lib %lx %s\n", (unsigned long)info->dlpi_addr, info->dlpi_name);
    return 0;
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
    mark_switches(end);
    FILE *out = fopen(path, "w"), *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps) return;
    unsigned long bias = 0;
    dl_iterate_phdr(main_bias, &bias);
    fprintf(out, "bias %lx\n", bias);
    dl_iterate_phdr(library_bias, out);
    char line[4096], perms[8], file[4096];
    unsigned long lo, hi;
    while (fgets(line, sizeof line, maps))
        if (sscanf(line, "%lx-%lx %7s %*s %*s %*s %4095s", &lo, &hi, perms, file) == 4 && perms[2] == 'x')
            fprintf(out, "map %lx %lx %s\n", lo, hi, file);
    unsigned long n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    for (unsigned long i = 0; i < n; i++)
        fprintf(out, "s %lld %lx\n", end - samples[i].ns, samples[i].ip);
    unsigned long marks = switch_marks < MAX_SWITCHES ? switch_marks : MAX_SWITCHES;
    for (unsigned long i = 0; i < marks; i++)
        fprintf(out, "cs %lld %ld %ld %lu\n", end - switches[i].ns, switches[i].voluntary,
                switches[i].involuntary, switches[i].allocations);
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
# The per-phase split the harness records (median ms a job; assess-*
# only), so the leaves below can be read against the phase they sit in.
{ grep -o '"phase_ms":{[^}]*}' "$work/run.txt" || true; } | tr -d '"{}' | sed 's/^phase_ms://' | tr ',' '\n' |
    awk -F: 'NF == 2 { printf "  phase %-12s %9.3f ms\n", $1, $2 }'

nm -C -n --defined-only "$bin" >"$work/symbols.txt"
libc=$(awk '$1 == "lib" && $3 ~ /\/libc\.so/ { print $3; exit }' "$work/samples.txt")
# Exported libc functions with their extents: "start size name".
if [ -n "$libc" ]; then
    nm -D -S --defined-only "$libc" | awk 'NF == 4 && $3 ~ /^[TWi]$/ { sub(/@.*/, "", $4); print $1, $2, $4 }' |
        sort -u -k1,1 >"$work/libc.txt"
else
    : >"$work/libc.txt"
fi
rate=$(awk '$1 == "jobs_per_s" { print $2 }' "$work/run.txt")
awk -v window_ns="$((seconds * 1000000000))" -v bin="$(readlink -f "$bin")" \
    -v libc="$(readlink -f "${libc:-/nonexistent}" 2>/dev/null || true)" \
    -v rate="${rate:-0}" '
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
# The exported libc function whose extent holds `a`, else the library.
function libc_symbol(a,    lo, hi, mid) {
    if (nlibc == 0 || a < lstart[1]) return "[libc.so.6]"
    lo = 1; hi = nlibc
    while (lo < hi) { mid = int((lo + hi + 1) / 2); if (lstart[mid] <= a) lo = mid; else hi = mid - 1 }
    return a < lstart[lo] + lsize[lo] ? lname[lo] " [libc]" : "[libc.so.6]"
}
FILENAME == ARGV[1] {
    if ($2 ~ /^[tTwW]$/) { addr[++nsym] = hex($1); n = $0; sub(/^[^ ]+ [^ ]+ /, "", n); name[nsym] = n }
    next
}
FILENAME == ARGV[2] { lstart[++nlibc] = hex($1); lsize[nlibc] = hex($2); lname[nlibc] = $3; next }
$1 == "bias" { bias = hex($2); next }
$1 == "lib" { if ($3 ~ /\/libc\.so/) libc_bias = hex($2); next }
$1 == "map" { lo[++nmap] = hex($2); hi[nmap] = hex($3); path[nmap] = $4; next }
$1 == "cs" {
    # The last mark is taken at exit; the window opens at the latest mark
    # at least `window_ns` before it.
    if ($2 + 0 == 0) { end_v = $3; end_i = $4; end_a = $5 }
    else if ($2 + 0 >= window_ns && (!have_start || $2 + 0 < start_age)) {
        start_age = $2 + 0; start_v = $3; start_i = $4; start_a = $5; have_start = 1
    }
    next
}
$1 == "s" {
    all++
    if ($2 + 0 > window_ns) next
    ip = hex($3); where = "[no mapping]"
    for (m = 1; m <= nmap; m++) if (ip >= lo[m] && ip < hi[m]) {
        if (path[m] == bin) where = symbol(ip - bias)
        else if (path[m] == libc) where = libc_symbol(ip - libc_bias)
        else { where = path[m]; sub(/.*\//, "", where); where = "[" where "]" }
        break
    }
    count[where]++; kept++
}
END {
    printf "%d of %d samples in the last %d s\n", kept, all, window_ns / 1e9 > "/dev/stderr"
    jobs = rate * start_age / 1e9
    if (have_start && jobs > 0) {
        printf "context switches per timed job (%.0f jobs in %.1f s): %.0f voluntary, %.0f involuntary\n",
            jobs, start_age / 1e9, (end_v - start_v) / jobs, (end_i - start_i) / jobs > "/dev/stderr"
        printf "allocations per timed job (malloc, calloc, realloc): %.0f\n",
            (end_a - start_a) / jobs > "/dev/stderr"
    }
    for (w in count) printf "%7.2f %%  %6d  %s\n", 100 * count[w] / kept, count[w], w
}' "$work/symbols.txt" "$work/libc.txt" "$work/samples.txt" | sort -rn | head -n "$top"
