//! The jade-rs benchmark: four seeded workloads driven through the public
//! APIs of `jade-threads`, `jade-core`, `jade-apps`, `jade-ipsc` and
//! `jade-dash`, with end-to-end metrics from an untraced run and per-layer
//! metrics from a separate traced run. See `README.md` beside this crate
//! for why each workload and metric exists.

pub mod apps;
pub mod probe;
pub mod replay;
pub mod report;
pub mod rng;
pub mod service;
pub mod sim;
pub mod stats;
pub mod stress;

use std::time::{Duration, Instant};

/// The seed a run uses when none is given; `sim-paper` pins its simulator
/// results to values recorded under this seed.
pub const DEFAULT_SEED: u64 = 0;

/// How many times each run repeats its set-up; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "stress-batches",
    "apps-fixed",
    "service-closed",
    "sim-paper",
];

/// What one run was asked to do.
#[derive(Clone, Copy, Debug)]
pub struct RunCfg {
    pub seed: u64,
    /// Measurement budget.
    pub seconds: f64,
    pub traced: bool,
    /// Worker threads for the threaded workloads: the host's parallelism,
    /// so workers never outnumber cpus.
    pub workers: usize,
}

impl RunCfg {
    /// `share` of the measurement budget.
    pub fn budget(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }
}

/// The host's parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Run `setup` [`SETUP_REPS`] times, keeping the last result; returns it
/// with the median set-up time in seconds.
pub fn repeat_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        last = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), stats::median(&times))
}

/// Call `pass` until `budget` has elapsed and at least `min_passes` ran.
pub fn passes_for(budget: Duration, min_passes: usize, mut pass: impl FnMut()) -> usize {
    let t0 = Instant::now();
    let mut n = 0;
    while n < min_passes || t0.elapsed() < budget {
        pass();
        n += 1;
    }
    n
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where unknown.
pub fn peak_rss_mb() -> f64 {
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

/// Seconds to milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
