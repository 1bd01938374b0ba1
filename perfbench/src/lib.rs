//! The repository benchmark's measuring logic, kept apart from the
//! workload code in `main.rs` so it can be unit-tested.
//!
//! The benchmark measures GreenHetero from outside: it times calls into
//! the public API and reads its own aggregating telemetry sink. Nothing
//! here adds instrumentation to the program.

pub mod report;
pub mod sink;
pub mod split;
pub mod stats;
pub mod tally;
pub mod watchdog;

/// `VmHWM` (peak resident set) of this process in kB, where `/proc`
/// provides it.
#[must_use]
pub fn peak_rss_kb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        line.strip_prefix("VmHWM:")?
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse()
            .ok()
    })
}

/// The CPU model string from `/proc/cpuinfo`, or `"unknown"`.
#[must_use]
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines().find_map(|line| {
                let (key, value) = line.split_once(':')?;
                (key.trim() == "model name").then(|| value.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Worker threads the benchmark may use: the machine's parallelism.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}
