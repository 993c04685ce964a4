//! `apps-fixed`: paper-scale Water and Ocean, plus Panel Cholesky and
//! PageRank, on `ThreadRuntime` at `nproc` workers. Task bodies dominate
//! and the scheduler handles few tasks, so scheduler changes should not
//! move this workload while locality and kernel changes do. Supersedes the
//! application rows of `repro bench` (thread backend).
//!
//! The decomposition is fixed and independent of the worker count: each
//! app's `procs` is a constant below, chosen for at least 2-way (and
//! evenly 2- and 4-way) task parallelism. Sweep-style `procs = workers`
//! would leave Ocean serial at 2 workers (`OceanConfig::blocks()` is
//! `procs − 1`) and make Water's task count grow with the workers.

use crate::probe::{Span, Timed, Tracer};
use crate::report::{Outcome, APP_KEYS};
use crate::rng::{app_seed, Rng};
use crate::{passes_for, repeat_setup, stats, RunCfg};
use jade_apps::{cholesky, ocean, pagerank, water};
use jade_core::{AccessSpec, JadeRuntime, Trace};
use jade_threads::ThreadRuntime;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Water: 4 tasks per phase.
pub const WATER_PROCS: usize = 4;
/// Ocean: `procs − 1` = 4 interior blocks per sweep.
pub const OCEAN_PROCS: usize = 5;
/// Panel Cholesky: panels placed over 4 processors.
pub const CHOLESKY_PROCS: usize = 4;
/// PageRank: 6 partitions per worker processor = 24 partitions.
pub const PAGERANK_PROCS: usize = 5;
const SALT: u64 = 0x4150_5053;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum App {
    Water,
    Ocean,
    Cholesky,
    Pagerank,
}

impl App {
    pub const ALL: [App; 4] = [App::Water, App::Ocean, App::Cholesky, App::Pagerank];

    pub fn key(self) -> &'static str {
        APP_KEYS[self as usize]
    }
}

/// The generated input: the four problems and the order a pass runs them.
#[derive(Clone, Debug)]
pub struct Input {
    pub water: water::WaterConfig,
    pub ocean: ocean::OceanConfig,
    pub cholesky: cholesky::CholeskyConfig,
    pub pagerank: pagerank::PagerankConfig,
    pub order: [App; 4],
}

impl Input {
    pub fn generate(seed: u64) -> Input {
        let mut water = water::WaterConfig::paper(WATER_PROCS);
        water.seed = app_seed(seed, water.seed);
        let mut pagerank = pagerank::PagerankConfig::paper(PAGERANK_PROCS);
        pagerank.seed = app_seed(seed, pagerank.seed);
        let mut order = App::ALL;
        Rng::new(seed, SALT).shuffle(&mut order);
        Input {
            water,
            ocean: ocean::OceanConfig::paper(OCEAN_PROCS),
            cholesky: cholesky::CholeskyConfig::paper(CHOLESKY_PROCS),
            pagerank,
            order,
        }
    }

    pub fn encode(&self) -> Vec<u8> {
        format!(
            "{:?}|{:?}|{:?}|{:?}|{:?}",
            self.water, self.ocean, self.cholesky, self.pagerank, self.order
        )
        .into_bytes()
    }

    /// Run `app` on `rt` and return its output bits. `build` holds every
    /// submit, `finish` the whole parallel execution.
    fn run_on<R: JadeRuntime>(&self, app: App, rt: &mut R) -> ([u64; 2], Instant) {
        fn bits(a: f64, b: f64) -> [u64; 2] {
            [a.to_bits(), b.to_bits()]
        }
        macro_rules! go {
            ($m:ident, $cfg:expr) => {{
                let h = $m::build(rt, $cfg);
                let submitted = Instant::now();
                rt.finish();
                ($m::output(rt, &h), submitted)
            }};
        }
        match app {
            App::Water => {
                let (o, t) = go!(water, &self.water);
                (bits(o.potential, o.positions_checksum), t)
            }
            App::Ocean => {
                let (o, t) = go!(ocean, &self.ocean);
                (bits(o.residual, o.grid_checksum), t)
            }
            App::Cholesky => {
                let (o, t) = go!(cholesky, &self.cholesky);
                (bits(o.log_det, o.factor_checksum), t)
            }
            App::Pagerank => {
                let (o, t) = go!(pagerank, &self.pagerank);
                (bits(o.rank_sum, o.rank_checksum), t)
            }
        }
    }

    /// Serial execution under `TraceRuntime`: the reference output and
    /// the task trace.
    pub fn serial(&self, app: App) -> ([u64; 2], Trace) {
        let mut rt = jade_core::TraceRuntime::new();
        let (out, _) = self.run_on(app, &mut rt);
        let (_, trace) = rt.into_parts();
        (out, trace)
    }

    /// The plain serial program (no Jade constructs).
    fn plain_serial(&self, app: App) {
        match app {
            App::Water => drop(black_box(water::reference(&self.water))),
            App::Ocean => drop(black_box(ocean::reference(&self.ocean))),
            App::Cholesky => drop(black_box(cholesky::reference(&self.cholesky))),
            App::Pagerank => drop(black_box(pagerank::reference(&self.pagerank))),
        }
    }
}

/// The serial reference of every app, built in set-up.
struct Reference {
    out: [[u64; 2]; 4],
    traces: Vec<Trace>,
}

#[derive(Default)]
struct PassLog {
    pass_s: Vec<f64>,
    app_s: [Vec<f64>; 4],
    submit: Duration,
    finish: Duration,
    tasks: u64,
    stats: jade_threads::BatchStats,
    spans: Vec<Span>,
}

impl PassLog {
    /// Seconds for one pass of the problem set: the sum over apps of each
    /// app's median run time. Per-app medians over many runs are far
    /// steadier on a noisy host than the median of whole passes.
    fn wall_s(&self) -> f64 {
        self.app_s.iter().map(|t| stats::median(t)).sum()
    }
}

fn pass(
    input: &Input,
    reference: &Reference,
    workers: usize,
    tracer: Option<&'static Tracer>,
    log: &mut PassLog,
    out: &mut Outcome,
) {
    let t0 = Instant::now();
    let mut tasks = 0;
    for (run, &app) in input.order.iter().enumerate() {
        let mut rt = ThreadRuntime::new(workers);
        let a0 = Instant::now();
        let (got, submitted) = match tracer {
            None => input.run_on(app, &mut rt),
            Some(tracer) => {
                let mut timed = Timed {
                    inner: &mut rt,
                    tracer,
                    id: run as u64,
                };
                input.run_on(app, &mut timed)
            }
        };
        let a1 = Instant::now();
        log.app_s[app as usize].push((a1 - a0).as_secs_f64());
        log.submit += submitted - a0;
        log.finish += a1 - submitted;
        if let Some(tr) = tracer {
            log.spans.push(tr.span(app.key(), run as u64, a0, a1));
        }
        let st = rt.total_stats();
        log.stats.executed += st.executed;
        log.stats.steals += st.steals;
        log.stats.locality_hits += st.locality_hits;
        log.stats.sync_locks += st.sync_locks;
        tasks += reference.traces[app as usize].task_count();
        out.attempted += 1;
        if got != reference.out[app as usize] {
            out.fail(
                1,
                format!("{} output {got:?} differs from the serial run", app.key()),
            );
        }
    }
    let dt = t0.elapsed().as_secs_f64();
    log.pass_s.push(dt);
    log.tasks += tasks as u64;
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let ((input, reference), setup_s) = repeat_setup(|| {
        let input = Input::generate(cfg.seed);
        let mut outs = [[0; 2]; 4];
        let mut traces = Vec::new();
        for app in App::ALL {
            let (o, t) = input.serial(app);
            outs[app as usize] = o;
            traces.push(t);
        }
        (input, Reference { out: outs, traces })
    });
    out.note(format!(
        "procs water={WATER_PROCS} ocean={OCEAN_PROCS} cholesky={CHOLESKY_PROCS} \
         pagerank={PAGERANK_PROCS}; {} workers; tasks {:?}",
        cfg.workers,
        reference
            .traces
            .iter()
            .map(Trace::task_count)
            .collect::<Vec<_>>()
    ));

    let share = if cfg.traced { 0.4 } else { 1.0 };
    let mut plain = PassLog::default();
    let n = passes_for(cfg.budget(share), 3, || {
        pass(&input, &reference, cfg.workers, None, &mut plain, &mut out)
    });
    out.note(format!("{n} untraced passes"));
    if !cfg.traced {
        let tasks: usize = reference.traces.iter().map(Trace::task_count).sum();
        out.set("tasks_per_s", tasks as f64 / plain.wall_s());
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
    tracer.take_body_totals();
    let mut traced = PassLog::default();
    passes_for(cfg.budget(0.4), 3, || {
        pass(
            &input,
            &reference,
            cfg.workers,
            Some(tracer),
            &mut traced,
            &mut out,
        )
    });
    let (body, bodies) = tracer.take_body_totals();
    if bodies != traced.tasks {
        out.fail(
            0,
            format!("traced {bodies} bodies for {} tasks", traced.tasks),
        );
    }
    let tasks = traced.tasks.max(1) as f64;
    let executed = traced.stats.executed.max(1) as f64;
    out.set(
        "threads.submit_ns_per_task",
        traced.submit.as_nanos() as f64 / tasks,
    );
    out.set(
        "threads.finish_ns_per_task",
        traced.finish.as_nanos() as f64 / tasks,
    );
    out.set(
        "threads.sync_locks_per_task",
        traced.stats.sync_locks as f64 / executed,
    );
    out.set("threads.steal_ratio", traced.stats.steals as f64 / executed);
    out.set(
        "threads.locality_hit_ratio",
        traced.stats.locality_hits as f64 / executed,
    );
    out.set(
        "threads.body_share",
        body.as_secs_f64() / (traced.finish.as_secs_f64() * cfg.workers as f64),
    );
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

    // Plain serial baselines, each app timed until its share of the budget
    // is spent (twice at least).
    let mut wall_sum = 0.0;
    let mut serial_sum = 0.0;
    for app in App::ALL {
        let mut serial = Vec::new();
        passes_for(cfg.budget(0.04), 2, || {
            let t0 = Instant::now();
            input.plain_serial(app);
            serial.push(t0.elapsed().as_secs_f64());
        });
        let serial_s = stats::median(&serial);
        let wall_s = stats::median(&plain.app_s[app as usize]);
        serial_sum += serial_s;
        wall_sum += wall_s;
        out.set(&format!("apps.{}.serial_s", app.key()), serial_s);
        out.set(&format!("apps.{}.wall_s", app.key()), wall_s);
        out.set(
            &format!("apps.{}.tasks", app.key()),
            reference.traces[app as usize].task_count() as f64,
        );
    }
    out.set("apps.speedup_vs_serial", serial_sum / wall_sum);

    let specs: Vec<Vec<AccessSpec>> = reference
        .traces
        .iter()
        .map(|t| t.tasks.iter().map(|r| r.spec.clone()).collect())
        .collect();
    let dags: Vec<&[AccessSpec]> = specs.iter().map(Vec::as_slice).collect();
    match crate::replay::ns_per_task(&dags, cfg.budget(0.02)) {
        Ok(ns) => out.set("sync.ns_per_task", ns),
        Err(e) => out.fail(0, e),
    }
    out.spans = traced.spans;
    out.spans.extend(tracer.take_body_spans());
    out
}
