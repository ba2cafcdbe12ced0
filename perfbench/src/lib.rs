//! End-to-end and per-layer benchmark of the tseig solvers.
//!
//! `run.py` drives the `perfbench` binary built from this crate; see
//! `README.md` for the workloads, the metrics and how to run it.

pub mod check;
pub mod json;
pub mod layers;
pub mod pipeline;
pub mod rng;
pub mod stats;
pub mod trace;
pub mod workload;

/// True when `name` is a valid metric or workload name.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
