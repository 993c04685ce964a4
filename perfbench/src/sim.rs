//! `sim-paper`: `jade_ipsc::run` and `jade_dash::run` on paper-scale traces
//! of the four paper applications and PageRank at 8 and 32 processors —
//! the `repro` user regenerating tables. Single-threaded; the only
//! workload that exercises `dsim`, `jade-ipsc` and `jade-dash`. Traces are
//! generated in set-up. Supersedes the simulator host-cost rows of
//! `repro bench` (`BENCH_sim.json`).
//!
//! Under the default seed the inputs are the paper's own and every
//! simulated result must equal `sim_golden.txt`, recorded from the
//! simulators as the benchmark was introduced. Any other seed draws new
//! Water and PageRank inputs and a new run order; there every pass must
//! agree bit for bit with the first and every trace task must execute.

use crate::probe::{Span, Tracer};
use crate::report::Outcome;
use crate::rng::{app_seed, Rng};
use crate::{passes_for, repeat_setup, stats, RunCfg, DEFAULT_SEED};
use jade_apps::{cholesky, ocean, pagerank, string_app, water};
use jade_core::{AccessSpec, LocalityMode, Trace};
use std::time::{Duration, Instant};

pub const PROCS: [usize; 2] = [8, 32];
const SALT: u64 = 0x0053_494D;

/// Simulated results of one pass, in golden-file order.
const GOLDEN: &str = include_str!("../sim_golden.txt");

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum App {
    Water,
    String,
    Ocean,
    Cholesky,
    Pagerank,
}

impl App {
    pub const ALL: [App; 5] = [
        App::Water,
        App::String,
        App::Ocean,
        App::Cholesky,
        App::Pagerank,
    ];

    pub fn key(self) -> &'static str {
        ["water", "string", "ocean", "cholesky", "pagerank"][self as usize]
    }

    /// Paper-calibrated stripped serial seconds on (iPSC/860, DASH).
    fn stripped_s(self) -> (f64, f64) {
        match self {
            App::Water => (water::calib::IPSC_STRIPPED_S, water::calib::DASH_STRIPPED_S),
            App::String => (
                string_app::calib::IPSC_STRIPPED_S,
                string_app::calib::DASH_STRIPPED_S,
            ),
            App::Ocean => (ocean::calib::IPSC_STRIPPED_S, ocean::calib::DASH_STRIPPED_S),
            App::Cholesky => (
                cholesky::calib::IPSC_STRIPPED_S,
                cholesky::calib::DASH_STRIPPED_S,
            ),
            App::Pagerank => (
                pagerank::calib::IPSC_STRIPPED_S,
                pagerank::calib::DASH_STRIPPED_S,
            ),
        }
    }
}

/// The generated input: app seeds and the order a pass simulates in.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Input {
    pub water_seed: u64,
    pub pagerank_seed: u64,
    pub order: Vec<(App, usize)>,
    pub default_seed: bool,
}

impl Input {
    pub fn generate(seed: u64) -> Input {
        let mut order: Vec<(App, usize)> = PROCS
            .iter()
            .flat_map(|&p| App::ALL.iter().map(move |&a| (a, p)))
            .collect();
        if seed != DEFAULT_SEED {
            Rng::new(seed, SALT).shuffle(&mut order);
        }
        Input {
            water_seed: app_seed(seed, water::WaterConfig::paper(1).seed),
            pagerank_seed: app_seed(seed, pagerank::PagerankConfig::paper(1).seed),
            order,
            default_seed: seed == DEFAULT_SEED,
        }
    }

    pub fn encode(&self) -> Vec<u8> {
        format!("{self:?}").into_bytes()
    }

    /// The paper-scale trace of `app` at `procs`.
    pub fn trace(&self, app: App, procs: usize) -> Trace {
        match app {
            App::Water => {
                let mut cfg = water::WaterConfig::paper(procs);
                cfg.seed = self.water_seed;
                water::run_trace(&cfg).0
            }
            App::String => string_app::run_trace(&string_app::StringConfig::paper(procs)).0,
            App::Ocean => ocean::run_trace(&ocean::OceanConfig::paper(procs)).0,
            App::Cholesky => cholesky::run_trace(&cholesky::CholeskyConfig::paper(procs)).0,
            App::Pagerank => {
                let mut cfg = pagerank::PagerankConfig::paper(procs);
                cfg.seed = self.pagerank_seed;
                pagerank::run_trace(&cfg).0
            }
        }
    }
}

/// Everything a pass checks of one (app, procs) simulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Row {
    pub app: App,
    pub procs: usize,
    pub ipsc_exec_bits: u64,
    pub ipsc_messages: u64,
    pub ipsc_comm_bytes: u64,
    pub dash_exec_bits: u64,
    pub dash_bytes: u64,
}

impl Row {
    /// One line of `sim_golden.txt`.
    pub fn golden_line(&self) -> String {
        format!(
            "{} {} {:016x} {} {} {:016x} {}",
            self.app.key(),
            self.procs,
            self.ipsc_exec_bits,
            self.ipsc_messages,
            self.ipsc_comm_bytes,
            self.dash_exec_bits,
            self.dash_bytes
        )
    }
}

/// One simulation's host cost.
struct Timing {
    ipsc: Duration,
    dash: Duration,
    tasks: usize,
}

/// Simulate `trace` on both machines.
fn simulate(app: App, procs: usize, trace: &Trace) -> (Row, Timing, [usize; 2]) {
    let (ipsc_s, dash_s) = app.stripped_s();
    let work = trace.total_work();
    let t0 = Instant::now();
    let cfg = jade_ipsc::IpscConfig::paper(procs, LocalityMode::Locality, ipsc_s / work);
    let i = jade_ipsc::run(trace, &cfg);
    let t1 = Instant::now();
    let cfg = jade_dash::DashConfig::paper(procs, LocalityMode::Locality, dash_s / work);
    let d = jade_dash::run(trace, &cfg);
    let t2 = Instant::now();
    let row = Row {
        app,
        procs,
        ipsc_exec_bits: i.exec_time_s.to_bits(),
        ipsc_messages: i.requests + i.fetch_messages + i.broadcasts,
        ipsc_comm_bytes: i.comm_bytes,
        dash_exec_bits: d.exec_time_s.to_bits(),
        dash_bytes: d.bytes_moved,
    };
    let timing = Timing {
        ipsc: t1 - t0,
        dash: t2 - t1,
        tasks: trace.task_count(),
    };
    (row, timing, [i.tasks_executed, d.tasks_executed])
}

/// The default-seed results in golden-file order, for regenerating
/// `sim_golden.txt` (`perfbench --print-sim-golden`).
pub fn golden_rows() -> Vec<Row> {
    let input = Input::generate(DEFAULT_SEED);
    input
        .order
        .iter()
        .map(|&(app, procs)| simulate(app, procs, &input.trace(app, procs)).0)
        .collect()
}

#[derive(Default)]
struct PassLog {
    pass_s: Vec<f64>,
    /// Host seconds of each simulation, per (order index) on each machine.
    ipsc_s: Vec<Vec<f64>>,
    dash_s: Vec<Vec<f64>>,
    messages: u64,
    dash_tasks: u64,
    bytes: u64,
    spans: Vec<Span>,
}

impl PassLog {
    /// Sum over simulations of each one's median host seconds.
    fn total(runs: &[Vec<f64>]) -> f64 {
        runs.iter().map(|t| stats::median(t)).sum()
    }

    /// Seconds for one pass of the problem set, from per-simulation
    /// medians (far steadier on a noisy host than whole-pass medians).
    fn wall_s(&self) -> f64 {
        Self::total(&self.ipsc_s) + Self::total(&self.dash_s)
    }
}

fn pass(
    input: &Input,
    traces: &[Trace],
    first: &mut Option<Vec<Row>>,
    tracer: Option<&'static Tracer>,
    log: &mut PassLog,
    out: &mut Outcome,
) {
    let t0 = Instant::now();
    let mut rows = Vec::with_capacity(traces.len());
    let (mut messages, mut bytes, mut dash_tasks) = (0, 0, 0);
    log.ipsc_s.resize(traces.len(), Vec::new());
    log.dash_s.resize(traces.len(), Vec::new());
    for (k, (&(app, procs), trace)) in input.order.iter().zip(traces).enumerate() {
        let s0 = Instant::now();
        let (row, timing, executed) = simulate(app, procs, trace);
        if let Some(tr) = tracer {
            let s1 = s0 + timing.ipsc;
            log.spans.push(tr.span("jade_ipsc::run", k as u64, s0, s1));
            log.spans
                .push(tr.span("jade_dash::run", k as u64, s1, s1 + timing.dash));
        }
        log.ipsc_s[k].push(timing.ipsc.as_secs_f64());
        log.dash_s[k].push(timing.dash.as_secs_f64());
        messages += row.ipsc_messages;
        bytes += row.dash_bytes;
        dash_tasks += timing.tasks as u64;
        out.attempted += 2;
        if executed != [timing.tasks; 2] {
            out.fail(
                2,
                format!(
                    "{} p{procs}: executed {executed:?} of {} trace tasks",
                    app.key(),
                    timing.tasks
                ),
            );
        }
        rows.push(row);
    }
    let dt = t0.elapsed().as_secs_f64();
    log.pass_s.push(dt);
    log.messages = messages;
    log.bytes = bytes;
    log.dash_tasks = dash_tasks;
    match first {
        None => {
            if input.default_seed {
                check_golden(&rows, out);
            }
            *first = Some(rows);
        }
        Some(want) => {
            for (got, want) in rows.iter().zip(want.iter()) {
                if got != want {
                    out.fail(2, format!("repeat run differs: {got:?} vs {want:?}"));
                }
            }
        }
    }
}

/// Compare a default-seed pass with the recorded results.
fn check_golden(rows: &[Row], out: &mut Outcome) {
    let want: Vec<&str> = GOLDEN.lines().filter(|l| !l.starts_with('#')).collect();
    if want.len() != rows.len() {
        out.fail(
            rows.len() as u64 * 2,
            format!(
                "golden file has {} rows, pass has {}",
                want.len(),
                rows.len()
            ),
        );
        return;
    }
    for (row, want) in rows.iter().zip(want) {
        let got = row.golden_line();
        if got != want.trim() {
            out.fail(
                2,
                format!("simulated result moved: got `{got}`, recorded `{want}`"),
            );
        }
    }
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let ((input, traces), setup_s) = repeat_setup(|| {
        let input = Input::generate(cfg.seed);
        let traces: Vec<Trace> = input
            .order
            .iter()
            .map(|&(app, procs)| input.trace(app, procs))
            .collect();
        (input, traces)
    });
    let total_tasks: usize = traces.iter().map(Trace::task_count).sum();
    out.note(format!(
        "{} simulations x 2 machines per pass, {total_tasks} trace tasks",
        traces.len()
    ));

    let mut first = None;
    let share = if cfg.traced { 0.45 } else { 1.0 };
    let mut plain = PassLog::default();
    let n = passes_for(cfg.budget(share), 3, || {
        pass(&input, &traces, &mut first, None, &mut plain, &mut out)
    });
    out.note(format!("{n} untraced passes"));
    if !cfg.traced {
        out.set("tasks_per_s", 2.0 * total_tasks as f64 / plain.wall_s());
        out.set("wall_s", plain.wall_s());
        out.set(
            "sojourn_p50_ms",
            stats::percentile(&plain.pass_s, 50.0) * 1e3,
        );
        out.set(
            "sojourn_p90_ms",
            stats::percentile(&plain.pass_s, 90.0) * 1e3,
        );
        out.set("setup_s", setup_s);
        return out;
    }

    let tracer = Tracer::leak();
    let mut traced = PassLog::default();
    passes_for(cfg.budget(0.45), 3, || {
        pass(
            &input,
            &traces,
            &mut first,
            Some(tracer),
            &mut traced,
            &mut out,
        )
    });
    let ipsc_s = PassLog::total(&traced.ipsc_s);
    let dash_s = PassLog::total(&traced.dash_s);
    out.set("ipsc.run_s", ipsc_s);
    out.set("dash.run_s", dash_s);
    out.set(
        "ipsc.host_us_per_msg",
        ipsc_s * 1e6 / traced.messages.max(1) as f64,
    );
    out.set(
        "dash.host_us_per_task",
        dash_s * 1e6 / traced.dash_tasks.max(1) as f64,
    );
    out.set("ipsc.messages", traced.messages as f64);
    out.set("dash.bytes_moved", traced.bytes as f64);
    out.set("trace.gen_s", setup_s);
    let wall: f64 = traced.pass_s.iter().sum();
    out.set(
        "bench.reconcile_gap",
        crate::probe::reconcile_gap(&traced.spans, Duration::from_secs_f64(wall)),
    );
    out.set(
        "bench.trace_overhead",
        traced.wall_s() / plain.wall_s() - 1.0,
    );
    out.set("bench.sojourn_samples", plain.pass_s.len() as f64);
    let specs: Vec<Vec<AccessSpec>> = traces
        .iter()
        .map(|t| t.tasks.iter().map(|r| r.spec.clone()).collect())
        .collect();
    let dags: Vec<&[AccessSpec]> = specs.iter().map(Vec::as_slice).collect();
    match crate::replay::ns_per_task(&dags, cfg.budget(0.05)) {
        Ok(ns) => out.set("sync.ns_per_task", ns),
        Err(e) => out.fail(0, e),
    }
    out.spans = traced.spans;
    out
}
