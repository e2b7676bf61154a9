//! The machine fingerprint printed beside every result: code version,
//! CPU, core count, and how much of the host other tenants took.

use std::path::Path;

/// Aggregate CPU jiffies from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy)]
pub struct CpuTimes {
    total: u64,
    steal: u64,
}

impl CpuTimes {
    /// Reads the current totals (`None` off Linux).
    pub fn now() -> Option<Self> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        let fields: Vec<u64> = stat
            .lines()
            .next()?
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        // user nice system idle iowait irq softirq steal [guest guest_nice];
        // guest time is already counted in user and nice.
        let steal = *fields.get(7)?;
        Some(Self { total: fields.iter().take(8).sum(), steal })
    }

    /// Steal jiffies and their share of all jiffies since `earlier`.
    pub fn steal_since(&self, earlier: &CpuTimes) -> (u64, f64) {
        let steal = self.steal.saturating_sub(earlier.steal);
        let total = self.total.saturating_sub(earlier.total).max(1);
        (steal, steal as f64 / total as f64)
    }
}

/// The checked-out commit, read from `.git` in the working directory
/// (`unknown` outside a git checkout).
pub fn git_sha() -> String {
    let git = Path::new(".git");
    let read = |p: &Path| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(&git.join("HEAD")) else { return "unknown".into() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    read(&git.join(reference))
        .or_else(|| {
            read(&git.join("packed-refs"))?
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The CPU model name from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Runs `f` with the calling thread pinned to the `turn`-th CPU it may
/// use (round robin), then restores its CPU set. Threads spawned inside
/// `f` inherit the pin, so `f` should only compute.
///
/// A lone thread stays on whichever core the scheduler first gave it,
/// and the cores of a shared host run at different speeds from moment
/// to moment; rotating cores makes repeated single-threaded timings
/// sample all of them.
#[cfg(target_os = "linux")]
pub fn on_cpu<T>(turn: usize, f: impl FnOnce() -> T) -> T {
    const WORDS: usize = 16;
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    let got = unsafe { sched_getaffinity(0, WORDS * 8, mask.as_mut_ptr()) };
    let cpus: Vec<usize> = (0..WORDS * 64).filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1).collect();
    if got != 0 || cpus.is_empty() {
        return f();
    }
    let cpu = cpus[turn % cpus.len()];
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: both buffers are readable and of the size passed; pid 0
    // names the calling thread. Failure leaves the mask unchanged.
    unsafe { sched_setaffinity(0, WORDS * 8, one.as_ptr()) };
    let out = f();
    // SAFETY: as above.
    unsafe { sched_setaffinity(0, WORDS * 8, mask.as_ptr()) };
    out
}

/// Elsewhere the scheduler's placement is left alone.
#[cfg(not(target_os = "linux"))]
pub fn on_cpu<T>(_turn: usize, f: impl FnOnce() -> T) -> T {
    f()
}
