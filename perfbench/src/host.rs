//! Host measurements read from `/proc` (Linux): process CPU time, the
//! CPU time of reaped child processes, and peak resident memory.

/// Clock ticks per second of the `/proc/<pid>/stat` time fields
/// (`USER_HZ`, fixed at 100 on Linux).
const TICKS_PER_S: f64 = 100.0;

/// `(utime + stime, cutime + cstime)` of this process, in seconds.
fn stat_times() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may contain spaces; fields after its
    // closing parenthesis are space-separated, starting at field 3.
    let rest = &stat[stat.rfind(')').expect("stat has a comm field") + 2..];
    let f: Vec<f64> = rest
        .split_whitespace()
        .map(|x| x.parse().unwrap_or(0.0))
        .collect();
    // Fields 14..=17 (utime, stime, cutime, cstime) sit at 11..=14 here.
    ((f[11] + f[12]) / TICKS_PER_S, (f[13] + f[14]) / TICKS_PER_S)
}

/// CPU seconds (user + system) this process has used so far.
pub fn cpu_self_s() -> f64 {
    stat_times().0
}

/// CPU seconds (user + system) of every child process waited for so
/// far.
pub fn cpu_children_s() -> f64 {
    stat_times().1
}

/// Peak resident memory of this process so far, in MB (2^20 bytes).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Median of `xs` (mean of the middle two for an even count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
