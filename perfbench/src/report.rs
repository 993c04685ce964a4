//! The metric catalogue and the result line.
//!
//! An untraced run reports every [`END_TO_END`] metric; a traced run every
//! [`PER_LAYER`] metric. A workload that does not load a layer reports that
//! layer's metrics as 0 and the table marks them `n/a`.

use crate::probe::Span;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: (name, unit).
pub const END_TO_END: [(&str, &str); 6] = [
    ("tasks_per_s", "1/s"),
    ("wall_s", "s"),
    ("sojourn_p50_ms", "ms"),
    ("sojourn_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The applications of `apps-fixed`, as they appear in metric names.
pub const APP_KEYS: [&str; 4] = ["water", "ocean", "cholesky", "pagerank"];

/// Per-layer metrics of the traced run: (name, unit).
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("threads.submit_ns_per_task", "ns"),
        ("threads.finish_ns_per_task", "ns"),
        ("threads.finish_fixed_us", "us"),
        ("threads.sync_locks_per_task", "locks/task"),
        ("threads.steal_ratio", "ratio"),
        ("threads.body_share", "ratio"),
        ("threads.tasks_per_s_1w", "1/s"),
        ("threads.locality_hit_ratio", "ratio"),
        ("sync.ns_per_task", "ns"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for app in APP_KEYS {
        v.push((format!("apps.{app}.wall_s"), "s"));
        v.push((format!("apps.{app}.serial_s"), "s"));
        v.push((format!("apps.{app}.tasks"), "count"));
    }
    v.extend(
        [
            ("apps.speedup_vs_serial", "ratio"),
            ("service.submit_us_p50", "us"),
            ("service.submit_us_p99", "us"),
            ("service.queue_wait_ms_p50", "ms"),
            ("service.queue_wait_ms_p99", "ms"),
            ("service.run_ms_p50", "ms"),
            ("service.shed", "count"),
            ("service.rejected", "count"),
            ("gen.lag_p99_ms", "ms"),
            ("ipsc.run_s", "s"),
            ("dash.run_s", "s"),
            ("ipsc.host_us_per_msg", "us"),
            ("dash.host_us_per_task", "us"),
            ("ipsc.messages", "count"),
            ("dash.bytes_moved", "bytes"),
            ("trace.gen_s", "s"),
            ("bench.sojourn_samples", "count"),
            ("bench.trace_overhead", "ratio"),
            ("bench.reconcile_gap", "ratio"),
        ]
        .iter()
        .map(|&(n, u)| (n.to_string(), u)),
    );
    v
}

/// Largest `bench.reconcile_gap` the benchmark accepts: the top-level
/// spans must account for all but this share of the traced wall time.
pub const RECONCILE_TOLERANCE: f64 = 0.05;

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (batches, application runs, DAGs, simulations).
    pub attempted: u64,
    /// Operations that failed, were refused, or produced a wrong output.
    pub failed: u64,
    /// One line per failed check.
    pub errors: Vec<String>,
    pub metrics: BTreeMap<String, f64>,
    /// Spans of the traced run (empty when untraced).
    pub spans: Vec<Span>,
    /// Extra human-readable lines for the table.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Record a failed check on `ops` operations.
    pub fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops;
        if self.errors.len() < 20 {
            self.errors.push(why);
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// The metrics a run of this kind reports: (name, unit).
fn reported(traced: bool) -> Vec<(String, &'static str)> {
    if traced {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    }
}

/// The table printed above the result line.
pub fn table(o: &Outcome, traced: bool) -> String {
    let mut s = String::new();
    for (name, unit) in reported(traced) {
        match o.metrics.get(&name) {
            Some(v) => writeln!(s, "  {name:<30} {v:>16.6} {unit}").unwrap(),
            None => writeln!(s, "  {name:<30} {:>16} {unit}", "n/a").unwrap(),
        }
    }
    for n in &o.notes {
        writeln!(s, "  {n}").unwrap();
    }
    let rate = o.failed as f64 / o.attempted.max(1) as f64;
    writeln!(
        s,
        "  error_rate = {} failed / {} attempted = {rate}",
        o.failed, o.attempted
    )
    .unwrap();
    for e in &o.errors {
        writeln!(s, "  FAILED CHECK: {e}").unwrap();
    }
    s
}

/// A finite number in JSON, all digits kept.
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".to_string()
    }
}

/// The result line: the metrics of this run's kind, with not-loaded
/// layers as 0.
pub fn json_line(o: &Outcome, traced: bool) -> String {
    let metrics: Vec<String> = reported(traced)
        .iter()
        .map(|(name, unit)| {
            let v = o.metrics.get(name).copied().unwrap_or(0.0);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(v)
            )
        })
        .collect();
    let correct = o.failed == 0 && o.errors.is_empty() && o.attempted > 0;
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.attempted.max(1),
        o.failed,
        metrics.join(", ")
    )
}
