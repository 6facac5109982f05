//! Host and build facts recorded with every result, and the process's
//! peak memory.

use crate::report::Report;
use crate::stats::ratio;
use std::fs;
use std::path::Path;

/// `std::thread::available_parallelism`, or 1 when unknown.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Size of the cache at `level` as the kernel reports it for cpu0
/// (e.g. `2048K`), or `unknown`.
fn cache_size(level: &str) -> String {
    let Ok(dir) = fs::read_dir("/sys/devices/system/cpu/cpu0/cache") else {
        return "unknown".into();
    };
    let mut entries: Vec<_> = dir.flatten().map(|e| e.path()).collect();
    entries.sort();
    for p in entries {
        let read = |f: &str| fs::read_to_string(p.join(f)).map(|s| s.trim().to_string());
        if read("level").ok().as_deref() == Some(level)
            && read("type").ok().as_deref() != Some("Instruction")
        {
            return read("size").unwrap_or_else(|_| "unknown".into());
        }
    }
    "unknown".into()
}

/// The checked-out commit when run from a git work tree, else `unknown`.
fn commit() -> String {
    let Ok(head) = fs::read_to_string(".git/HEAD") else {
        return "unknown".into();
    };
    match head.trim().strip_prefix("ref: ") {
        Some(r) => fs::read_to_string(Path::new(".git").join(r))
            .map_or_else(|_| "unknown".into(), |c| c.trim().to_string()),
        None => head.trim().to_string(),
    }
}

/// The host line every output starts with.
pub fn describe(workload: &str, seed: u64, offered_rate: Option<f64>) -> String {
    let rate = offered_rate.map_or("none (closed loop)".to_string(), |r| format!("{r} req/s"));
    format!(
        "host: available_parallelism={} cpu=\"{}\" l2={} l3={} commit={} \
         workload={workload} seed={seed} offered_rate={rate}",
        cores(),
        cpu_model(),
        cache_size("2"),
        cache_size("3"),
        commit(),
    )
}

/// Clock ticks per second of `/proc/stat` (`USER_HZ`, 100 on every
/// Linux architecture).
const USER_HZ: f64 = 100.0;

/// A reading of the aggregate CPU clock in `/proc/stat`. CPU time stolen
/// between two readings is time the hypervisor gave to other guests
/// while a vCPU of this one had work — a host that steals slows every
/// wall-clock metric, parallel sections most.
#[derive(Clone, Copy)]
pub struct Ticks {
    stolen: u64,
    all: u64,
}

impl Ticks {
    pub fn now() -> Ticks {
        let line = fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|s| s.lines().next().map(str::to_string))
            .unwrap_or_default();
        let fields: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        // user nice system idle iowait irq softirq steal; guest time is
        // already inside user.
        Ticks {
            stolen: fields.get(7).copied().unwrap_or(0),
            all: fields.iter().take(8).sum(),
        }
    }

    /// The share of CPU time stolen since `earlier`: 0 when no time
    /// passed or the host does not report steal.
    pub fn steal_since(self, earlier: Ticks) -> f64 {
        ratio(
            self.stolen.saturating_sub(earlier.stolen) as f64,
            self.all.saturating_sub(earlier.all) as f64,
        )
    }

    /// CPU time stolen since `earlier`, summed over the vCPUs, in ms
    /// (a multiple of 10 ms).
    pub fn stolen_ms_since(self, earlier: Ticks) -> f64 {
        self.stolen.saturating_sub(earlier.stolen) as f64 * 1e3 / USER_HZ
    }
}

/// This process's resident set size and its peak, in MiB
/// (`VmRSS`, `VmHWM`).
fn rss_mb() -> (f64, f64) {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |name: &str| {
        status
            .lines()
            .find(|l| l.starts_with(name))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|kb| kb.parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    };
    (field("VmRSS:"), field("VmHWM:"))
}

/// Resets this process's peak resident set size to its current size,
/// at the start of the measured window. Answers the size it was reset
/// to, or `None` where the kernel refused the reset.
pub fn reset_peak_rss() -> Option<f64> {
    fs::write("/proc/self/clear_refs", "5")
        .ok()
        .map(|()| rss_mb().0)
}

/// Records `peak_rss_mb`: the peak resident set size since
/// [`reset_peak_rss`], which answered `reset` — the measured window,
/// including the inputs the benchmark holds for it.
pub fn record_peak_rss(reset: Option<f64>, report: &mut Report) {
    let peak = rss_mb().1;
    report.set("peak_rss_mb", peak);
    report.note(match reset {
        Some(held) => format!(
            "memory: peak RSS {peak:.1} MiB in the window, {held:.1} MiB held when it began"
        ),
        None => {
            format!("memory: peak RSS {peak:.1} MiB, set-up included (the peak could not be reset)")
        }
    });
}
