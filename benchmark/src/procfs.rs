//! Process counters read straight from `/proc` (Linux only, no libc): CPU
//! time, peak resident set and involuntary context switches.

use std::fs;

/// Kernel clock ticks per second. `sysconf(_SC_CLK_TCK)` would need libc;
/// every Linux configuration this repository is built on reports 100.
const CLK_TCK: f64 = 100.0;

/// User and system CPU seconds consumed so far by all threads of this
/// process, dead ones included.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CpuTimes {
    pub user_s: f64,
    pub sys_s: f64,
}

impl CpuTimes {
    pub fn total(&self) -> f64 {
        self.user_s + self.sys_s
    }

    pub fn since(&self, earlier: &CpuTimes) -> CpuTimes {
        CpuTimes { user_s: self.user_s - earlier.user_s, sys_s: self.sys_s - earlier.sys_s }
    }
}

/// Parses the `utime`/`stime` fields (14 and 15) of a `/proc/<pid>/stat`
/// line. The command name (field 2) may contain spaces and parentheses, so
/// fields are counted from the last `)`.
fn parse_stat(line: &str) -> Option<CpuTimes> {
    let rest = &line[line.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11); // field 3 is rest[0]
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some(CpuTimes { user_s: utime / CLK_TCK, sys_s: stime / CLK_TCK })
}

/// CPU time of this process.
///
/// # Panics
///
/// Panics if `/proc/self/stat` is missing or malformed: the benchmark
/// cannot report `cpu_s_per_ksample` without it.
pub fn cpu_times() -> CpuTimes {
    let line = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_stat(&line).expect("utime/stime fields in /proc/self/stat")
}

fn status_field(status: &str, key: &str) -> Option<f64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.split_ascii_whitespace().next()?.parse().ok())
}

/// Peak resident set size (`VmHWM`) in MB (10⁶ bytes) since the process
/// started or [`reset_peak_rss`] last ran.
///
/// # Panics
///
/// Panics if `/proc/self/status` has no `VmHWM` line.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status_field(&status, "VmHWM").expect("VmHWM in /proc/self/status") * 1024.0 / 1e6
}

/// Restarts the kernel's peak-RSS watermark at the current resident set, so
/// that the next [`peak_rss_mb`] is the peak since this call and every unit
/// gets a peak of its own. `clear_refs` is this process's own control file in
/// `/proc`; where the kernel refuses the write the watermark simply keeps
/// running, and a unit's peak is the peak since the process started.
pub fn reset_peak_rss() {
    // Nothing to handle: see above for what a refused write means.
    fs::write("/proc/self/clear_refs", "5").ok();
}

/// Involuntary context switches summed over the threads alive right now
/// (a noise indicator: a busy neighbour shows up here first).
pub fn involuntary_ctx_switches() -> f64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else { return 0.0 };
    tasks
        .flatten()
        .filter_map(|t| fs::read_to_string(t.path().join("status")).ok())
        .filter_map(|s| status_field(&s, "nonvoluntary_ctxt_switches"))
        .sum()
}

/// The CPU model line of `/proc/cpuinfo`, for the run context.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")?.split_once(':').map(|(_, v)| v.trim().to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_line_with_hostile_command_name() {
        let line = "42 (a b) c)) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 3 0 100";
        assert_eq!(parse_stat(line), Some(CpuTimes { user_s: 2.5, sys_s: 0.5 }));
        assert_eq!(parse_stat("42 (x) S 1 2"), None);
    }

    #[test]
    fn status_fields() {
        let s = "Name:\tx\nVmHWM:\t   2048 kB\nnonvoluntary_ctxt_switches:\t7\n";
        assert_eq!(status_field(s, "VmHWM"), Some(2048.0));
        assert_eq!(status_field(s, "nonvoluntary_ctxt_switches"), Some(7.0));
        assert_eq!(status_field(s, "VmPeak"), None);
    }

    #[test]
    fn live_counters_are_sane() {
        let before = cpu_times();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(cpu_times().since(&before).total() >= 0.0);
        assert!(peak_rss_mb() > 0.1);
    }
}
