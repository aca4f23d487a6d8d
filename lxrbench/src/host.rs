//! What the process and the host say about themselves: CPU time and peak
//! resident memory from `/proc/self`, a host fingerprint, and the git
//! revision of the code under test.

use crate::rng::Digest;
use std::path::Path;

/// Clock ticks per second of the `/proc/<pid>/stat` time fields (`USER_HZ`,
/// fixed at 100 by the Linux user-space ABI).
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds consumed by this process so far, every
/// thread included (exited threads too).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may contain spaces; fields resume after its ')'.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the file, 12 and 13 after ')'.
    let ticks = |i: usize| fields.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / USER_HZ
}

/// CPU seconds the hypervisor has withheld from this host's CPUs so far
/// (the `steal` column of `/proc/stat`): time other tenants took.
pub fn steal_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let line = stat.lines().find(|l| l.starts_with("cpu ")).unwrap_or("");
    line.split_whitespace().nth(8).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0) / USER_HZ
}

/// Resets the peak resident set size of this process to its current
/// resident set size (Linux: `5` written to `/proc/self/clear_refs`).
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process (`VmHWM`) since it started or
/// since [`reset_peak_rss`], in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// A one-line description of the host plus its 64-bit fingerprint.
pub fn host_fingerprint() -> (String, u64) {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name").and_then(|r| r.split_once(':')).map(|(_, v)| v.trim()))
        .unwrap_or("unknown-cpu");
    let meminfo = std::fs::read_to_string("/proc/meminfo").unwrap_or_default();
    let mem_kb = meminfo
        .lines()
        .find_map(|l| l.strip_prefix("MemTotal:"))
        .map(|v| v.trim().trim_end_matches("kB").trim().to_string())
        .unwrap_or_default();
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(0);
    let text = format!("cpus={cpus} cpu=\"{model}\" mem_kb={mem_kb} kernel={}", kernel.trim());
    let mut d = Digest::default();
    d.bytes(text.as_bytes());
    (text, d.value())
}

/// The git revision of the checkout in the working directory, when it is a
/// git repository.
pub fn git_revision() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
}
