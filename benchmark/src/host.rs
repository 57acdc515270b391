//! What the harness asks of the operating system: the facts in the
//! report header, CPU pinning, process CPU time and peak memory.

use crate::json::Json;
use std::process::Command;
use std::time::Duration;

/// `cpu_set_t` is 1024 bits on Linux.
type CpuSet = [u64; 16];

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Holds the calling thread on one CPU; dropping it restores the CPUs
/// the thread was allowed before.
pub struct Pinned {
    pub cpu: u32,
    previous: CpuSet,
}

impl Drop for Pinned {
    fn drop(&mut self) {
        // SAFETY: `previous` is a valid buffer of exactly the size passed,
        // holding the mask the kernel reported for this thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &self.previous) };
    }
}

/// Pins the calling thread — and every thread it spawns while pinned —
/// to the lowest-numbered CPU it is allowed to run on. Three member
/// threads ping-ponging across two cores made the same one-shot
/// assessment take 0.73 s or 1.6 s; on one CPU it is serial and repeats
/// (benchmark/README.md, "Why pinning").
#[must_use]
pub fn pin_to_one_cpu() -> Option<Pinned> {
    let mut previous: CpuSet = [0; 16];
    // SAFETY: `previous` is a valid, writable buffer of exactly the size
    // passed; pid 0 names the calling thread.
    let got = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut previous) };
    if got != 0 {
        return None;
    }
    let (word, bits) = previous.iter().enumerate().find(|(_, w)| **w != 0)?;
    let bit = bits.trailing_zeros();
    let mut only: CpuSet = [0; 16];
    only[word] = 1 << bit;
    // SAFETY: `only` is a valid buffer of exactly the size passed and
    // names a CPU the kernel just reported as allowed.
    let set = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &only) };
    (set == 0).then_some(Pinned {
        cpu: word as u32 * 64 + bit,
        previous,
    })
}

/// CPU time (user + system) this process has consumed, all threads.
#[must_use]
pub fn process_cpu_time() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec; the clock id is a
    // constant every Linux kernel supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc == 0 {
        Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
    } else {
        Duration::ZERO
    }
}

/// `VmHWM` of this process in MB: the most memory it ever held.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program).args(args).output().ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).trim().to_string())
}

/// Machine and build facts recorded at the top of every report, so two
/// reports are only compared knowing where each was measured.
#[must_use]
pub fn header_facts(repo_dir: &std::path::Path) -> Vec<(String, Json)> {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string());
    let rustc = command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into());
    // The driver's checkout is not a git repository: the commit is then
    // unknown and says so.
    let dir = repo_dir.to_string_lossy();
    let commit = command_line("git", &["-C", &dir, "rev-parse", "HEAD"]);
    let dirty = commit
        .as_ref()
        .and_then(|_| command_line("git", &["-C", &dir, "status", "--porcelain"]))
        .map(|s| !s.is_empty());
    vec![
        ("nproc".into(), Json::from(nproc() as u64)),
        ("cpu_model".into(), Json::Str(cpu_model)),
        ("kernel".into(), Json::Str(kernel)),
        ("rustc".into(), Json::Str(rustc)),
        (
            "git_commit".into(),
            Json::Str(commit.unwrap_or_else(|| "unknown".into())),
        ),
        ("git_dirty".into(), dirty.map_or(Json::Null, Json::Bool)),
    ]
}
