//! Process and host readings from `/proc`: peak resident set for the report,
//! plus CPU time, steal ticks and load average so a reader can tell host
//! drift from a regression.

use std::fs;

/// Kernel clock ticks per second for `/proc` CPU counters (`USER_HZ`, which
/// is 100 on every mainstream Linux configuration).
const TICKS_PER_SECOND: f64 = 100.0;

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// User plus system CPU seconds this process has used so far.
pub fn cpu_seconds() -> Option<f64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')')?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_SECOND)
}

/// The host's cumulative steal ticks (all CPUs).
pub fn steal_ticks() -> Option<u64> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().find(|line| line.starts_with("cpu "))?;
    cpu.split_whitespace().nth(8)?.parse().ok()
}

/// The 1, 5 and 15 minute load averages.
pub fn load_average() -> Option<String> {
    let text = fs::read_to_string("/proc/loadavg").ok()?;
    Some(
        text.split_whitespace()
            .take(3)
            .collect::<Vec<_>>()
            .join(" "),
    )
}

/// Host readings taken at the start of a run, to print deltas at its end.
pub struct HostProbe {
    cpu: Option<f64>,
    steal: Option<u64>,
}

impl HostProbe {
    /// Takes the starting readings.
    pub fn start() -> Self {
        Self {
            cpu: cpu_seconds(),
            steal: steal_ticks(),
        }
    }

    /// One diagnostic line: CPU seconds and steal ticks since
    /// [`start`](Self::start), and the current load average.
    pub fn summary(&self) -> String {
        let cpu = match (self.cpu, cpu_seconds()) {
            (Some(before), Some(after)) => format!("{:.2}", after - before),
            _ => "n/a".to_string(),
        };
        let steal = match (self.steal, steal_ticks()) {
            (Some(before), Some(after)) => (after.saturating_sub(before)).to_string(),
            _ => "n/a".to_string(),
        };
        let load = load_average().unwrap_or_else(|| "n/a".to_string());
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        format!("cpu_user_sys_s {cpu}, host steal_ticks {steal}, loadavg {load}, available_parallelism {threads}")
    }
}
