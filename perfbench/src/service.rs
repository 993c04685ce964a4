//! `service-closed`: a closed loop of seeded DAGs through a `JadeService`
//! with `nproc` workers. The generator keeps [`IN_FLIGHT`] tenants in the
//! service, more than its `max_active`, so admission queues some of them;
//! each DAG's last task signals the generator, which takes the report and
//! submits the next DAG. This is the only workload that runs the service's
//! own scheduler (admission, `Mutex<Core>`, pick, per-tenant synchronizers,
//! report assembly). Supersedes the ServiceStress rows of `repro bench`.
//!
//! DAGs are chains or fan-outs of tens to hundreds of tasks whose bodies
//! are a few µs of integer arithmetic, with tenant weights 1, 2 or 4. A
//! seed fixes a pool of DAG templates and the sequence drawn from it; each
//! template's expected accumulator comes from a serial interpreter of the
//! same arithmetic.
//!
//! An open loop at a fixed rate was tried first and dropped: on a 2-vCPU
//! host whose speed drifts, its latency swung several-fold between runs
//! (see README.md). A closed loop's latency follows throughput instead.

use crate::probe::{Span, Tracer};
use crate::report::Outcome;
use crate::rng::Rng;
use crate::{ms, repeat_setup, stats, RunCfg};
use jade_core::{AccessSpec, Handle, ObjectId, TaskBuilder, TaskCtx, TenantId};
use jade_threads::{
    JadeService, Outcome as TenantOutcome, Program, ServiceConfig, SubmitError, TenantOptions,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

/// Tenants the generator keeps in the service: `MAX_ACTIVE` resident plus
/// 4 pending admission.
pub const IN_FLIGHT: usize = MAX_ACTIVE + 4;
/// Completions per window. Sojourn percentiles and `wall_s` are taken per
/// window and the median over windows is reported, so one host stall moves
/// one window, not the run's figure.
pub const WINDOW_DAGS: usize = 1000;
/// Slots of the traced per-DAG clock, indexed by DAG number modulo this;
/// far more than the DAGs in flight, so live DAGs never share a slot.
const CLOCK_SLOTS: usize = 4096;
/// Distinct DAG templates a seed draws its sequence from.
pub const TEMPLATES: usize = 256;
/// Tenants resident at once.
pub const MAX_ACTIVE: usize = 8;
/// Pending-queue bound; a submission beyond it is rejected and counted.
pub const MAX_PENDING: usize = 4096;
/// Inner-loop iterations of a task body (about 1–4 µs).
const WORK: (usize, usize) = (500, 2000);
const SALT: u64 = 0x5345_5256;
const SEQUENCE_SALT: u64 = 0x5345_5100_0000;

#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Shape {
    /// `len` tasks, each `rd_wr(acc)`.
    Chain { len: usize },
    /// `rounds` × (a writer of `src`, then `width` readers of `src` each
    /// folding it into its own lane), then a join of every lane into `acc`.
    FanOut { width: usize, rounds: usize },
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Template {
    pub shape: Shape,
    /// Body iterations, one per task in program order.
    pub work: Vec<u32>,
    pub weight: u32,
}

impl Template {
    /// Template `i` of [`TEMPLATES`]: even ones are chains, odd ones
    /// fan-outs; the size comes from stratum `i / 2`, so every seed's pool
    /// spans the same size range evenly and seeds differ in detail, not in
    /// load.
    fn generate(rng: &mut Rng, i: usize) -> Template {
        let strata = TEMPLATES / 2;
        let u = ((i / 2) as f64 + rng.unit()) / strata as f64;
        let shape = if i.is_multiple_of(2) {
            Shape::Chain {
                len: 20 + (u * 180.0) as usize,
            }
        } else {
            Shape::FanOut {
                width: 2 + rng.below(7),
                rounds: 3 + (u * 18.0) as usize,
            }
        };
        let n = match shape {
            Shape::Chain { len } => len,
            Shape::FanOut { width, rounds } => rounds * (width + 1) + 1,
        };
        let work = (0..n)
            .map(|_| (WORK.0 + rng.below(WORK.1 - WORK.0 + 1)) as u32)
            .collect();
        Template {
            shape,
            work,
            weight: [1, 2, 4][i % 3],
        }
    }

    pub fn tasks(&self) -> usize {
        self.work.len()
    }

    /// The accumulator a correct run ends with: the DAG's arithmetic run
    /// serially in program order.
    pub fn expected(&self) -> u64 {
        match self.shape {
            Shape::Chain { .. } => self.work.iter().fold(1, |acc, &w| spin(acc, w)),
            Shape::FanOut { width, rounds } => {
                let mut src = 1u64;
                let mut lanes = vec![0u64; width];
                let mut k = 0;
                for _ in 0..rounds {
                    src = spin(src, self.work[k]);
                    k += 1;
                    for lane in lanes.iter_mut() {
                        *lane = spin(*lane ^ src, self.work[k]);
                        k += 1;
                    }
                }
                join(&lanes, self.work[k])
            }
        }
    }

    /// Declared accesses, in program order, over object ids `0..` (for the
    /// synchronizer replay).
    fn specs(&self) -> Vec<AccessSpec> {
        let acc = ObjectId(0);
        let spec = |b: TaskBuilder| b.spec().clone();
        match self.shape {
            Shape::Chain { len } => (0..len)
                .map(|_| spec(TaskBuilder::new("chain").rd_wr(acc)))
                .collect(),
            Shape::FanOut { width, rounds } => {
                let src = ObjectId(1);
                let lane = |i: usize| ObjectId(2 + i as u32);
                let mut v = Vec::with_capacity(self.tasks());
                for _ in 0..rounds {
                    v.push(spec(TaskBuilder::new("write").rd_wr(src)));
                    for i in 0..width {
                        v.push(spec(TaskBuilder::new("read").rd(src).rd_wr(lane(i))));
                    }
                }
                let join = (0..width).fold(TaskBuilder::new("join"), |b, i| b.rd(lane(i)));
                v.push(spec(join.rd_wr(acc)));
                v
            }
        }
    }
}

/// A few µs of dependent integer arithmetic.
pub fn spin(mut x: u64, n: u32) -> u64 {
    for i in 0..n as u64 {
        x = (x ^ (x >> 29))
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(i);
    }
    x
}

fn join(lanes: &[u64], w: u32) -> u64 {
    spin(lanes.iter().fold(0, |a, &l| a.rotate_left(7) ^ l), w)
}

/// The generated input: templates and the submission sequence.
#[derive(Clone, Debug)]
pub struct Input {
    pub templates: Vec<Template>,
    seed: u64,
}

impl Input {
    pub fn generate(seed: u64) -> Input {
        let mut rng = Rng::new(seed, SALT);
        Input {
            templates: (0..TEMPLATES)
                .map(|i| Template::generate(&mut rng, i))
                .collect(),
            seed,
        }
    }

    /// The template sequence the generator submits, endless; `stream`
    /// selects one of several independent sequences.
    pub fn sequence(&self, stream: u64) -> impl Iterator<Item = usize> + '_ {
        let mut rng = Rng::new(self.seed, SEQUENCE_SALT ^ stream);
        std::iter::repeat_with(move || rng.below(self.templates.len()))
    }

    /// Byte encoding of the templates and the first `n` DAGs submitted.
    pub fn encode(&self, n: usize) -> Vec<u8> {
        let mut out = format!("{:?}", self.templates).into_bytes();
        for t in self.sequence(0).take(n) {
            out.extend_from_slice(&(t as u32).to_le_bytes());
        }
        out
    }
}

/// First body start and last body end of each traced DAG (ns), in slot
/// `dag % CLOCK_SLOTS`.
struct DagClock {
    first: Vec<AtomicU64>,
    last: Vec<AtomicU64>,
}

#[derive(Clone, Copy)]
struct Probe {
    tracer: &'static Tracer,
    clock: &'static DagClock,
}

/// Wrap a body: time it if traced, and signal completion if it is the
/// DAG's last task.
fn body(
    f: impl Fn(&TaskCtx<'_>) + Send + 'static,
    dag: u64,
    probe: Option<Probe>,
    done: Option<Sender<u64>>,
) -> impl Fn(&TaskCtx<'_>) + Send + 'static {
    move |ctx| {
        match probe {
            None => f(ctx),
            Some(p) => {
                let (t0, t1) = p.tracer.body("svc.body", dag, || f(ctx));
                let slot = dag as usize % CLOCK_SLOTS;
                p.clock.first[slot].fetch_min(t0, Ordering::Relaxed);
                p.clock.last[slot].fetch_max(t1, Ordering::Relaxed);
            }
        }
        if let Some(tx) = &done {
            // The generator may already have stopped listening; a lost
            // signal only delays taking the report to the final drain.
            let _ = tx.send(dag);
        }
    }
}

/// Build template `t` as a tenant program; returns it with its accumulator.
fn program(
    t: &Template,
    dag: u64,
    probe: Option<Probe>,
    done: &Sender<u64>,
) -> (Program, Handle<u64>) {
    let mut p = Program::new();
    let acc = p.create("acc", 8, 1u64);
    let n = t.tasks();
    let sig = |k: usize| (k + 1 == n).then(|| done.clone());
    match t.shape {
        Shape::Chain { .. } => {
            for (k, &w) in t.work.iter().enumerate() {
                p.submit(TaskBuilder::new("chain").rd_wr(acc).body(body(
                    move |ctx| {
                        let mut a = ctx.wr(acc);
                        *a = spin(*a, w);
                    },
                    dag,
                    probe,
                    sig(k),
                )));
            }
        }
        Shape::FanOut { width, rounds } => {
            let src = p.create("src", 8, 1u64);
            let lanes: Vec<Handle<u64>> = (0..width)
                .map(|i| p.create(format!("lane{i}"), 8, 0u64))
                .collect();
            let mut k = 0;
            for _ in 0..rounds {
                let w = t.work[k];
                p.submit(TaskBuilder::new("write").rd_wr(src).body(body(
                    move |ctx| {
                        let mut s = ctx.wr(src);
                        *s = spin(*s, w);
                    },
                    dag,
                    probe,
                    sig(k),
                )));
                k += 1;
                for &lane in &lanes {
                    let w = t.work[k];
                    p.submit(TaskBuilder::new("read").rd(src).rd_wr(lane).body(body(
                        move |ctx| {
                            let s = *ctx.rd(src);
                            let mut l = ctx.wr(lane);
                            *l = spin(*l ^ s, w);
                        },
                        dag,
                        probe,
                        sig(k),
                    )));
                    k += 1;
                }
            }
            let w = t.work[k];
            let mut tb = TaskBuilder::new("join");
            for &lane in &lanes {
                tb = tb.rd(lane);
            }
            let lanes2 = lanes.clone();
            p.submit(tb.rd_wr(acc).body(body(
                move |ctx| {
                    let vals: Vec<u64> = lanes2.iter().map(|&l| *ctx.rd(l)).collect();
                    *ctx.wr(acc) = join(&vals, w);
                },
                dag,
                probe,
                sig(k),
            )));
        }
    }
    (p, acc)
}

/// What one closed-loop run measured.
#[derive(Default)]
struct Log {
    /// (window, sojourn) of every correct DAG; see [`WINDOW_DAGS`].
    sojourn_ms: Vec<(usize, f64)>,
    /// Duration of every complete window.
    window_s: Vec<f64>,
    /// Last body end to the generator taking the signal (traced).
    lag_ms: Vec<f64>,
    submit_us: Vec<f64>,
    queue_ms: Vec<f64>,
    run_ms: Vec<f64>,
    tasks: u64,
    completed: usize,
    wall: Duration,
    rejected: u64,
    shed: u64,
    spans: Vec<Span>,
}

struct InFlight {
    id: TenantId,
    acc: Handle<u64>,
    template: usize,
    submitted: Instant,
}

/// The generator's side of one closed loop.
struct Generator<'a, S> {
    svc: &'a JadeService,
    input: &'a Input,
    expected: &'a [u64],
    sequence: S,
    tracer: Option<&'static Tracer>,
    probe: Option<Probe>,
    done: Sender<u64>,
    next: u64,
    inflight: HashMap<u64, InFlight>,
    window_start: Instant,
    log: Log,
}

impl<S: Iterator<Item = usize>> Generator<'_, S> {
    fn span(&mut self, name: &'static str, id: u64, t0: Instant, t1: Instant) {
        if let Some(tr) = self.tracer {
            self.log.spans.push(tr.span(name, id, t0, t1));
        }
    }

    /// Build the next DAG of the sequence and submit it.
    fn submit_next(&mut self, out: &mut Outcome) {
        let t = self.sequence.next().expect("endless sequence");
        let dag = self.next;
        self.next += 1;
        if let Some(p) = self.probe {
            let slot = dag as usize % CLOCK_SLOTS;
            p.clock.first[slot].store(u64::MAX, Ordering::Relaxed);
            p.clock.last[slot].store(0, Ordering::Relaxed);
        }
        let b0 = Instant::now();
        let template = &self.input.templates[t];
        let (prog, acc) = program(template, dag, self.probe, &self.done);
        let s0 = Instant::now();
        self.span("gen.build", dag, b0, s0);
        let r = self
            .svc
            .submit(prog, TenantOptions::default().with_weight(template.weight));
        let s1 = Instant::now();
        self.span("service.submit", dag, s0, s1);
        self.log.submit_us.push((s1 - s0).as_secs_f64() * 1e6);
        match r {
            Ok(id) => {
                let f = InFlight {
                    id,
                    acc,
                    template: t,
                    submitted: s0,
                };
                self.inflight.insert(dag, f);
            }
            Err(e) => {
                if matches!(e, SubmitError::Overloaded { .. }) {
                    self.log.rejected += 1;
                }
                out.attempted += 1;
                out.fail(1, format!("DAG {dag} refused: {e}"));
            }
        }
    }

    /// Take DAG `dag`'s report and check it.
    fn take(&mut self, out: &mut Outcome, dag: u64) {
        let Some(f) = self.inflight.remove(&dag) else {
            return;
        };
        let w0 = Instant::now();
        let rep = self.svc.wait(f.id);
        let taken = Instant::now();
        self.span("service.wait", dag, w0, taken);
        out.attempted += 1;
        let want = self.expected[f.template];
        match rep.outcome {
            TenantOutcome::Completed => {
                let got = *rep.store.read(f.acc);
                if got == want {
                    let window = self.log.completed / WINDOW_DAGS;
                    self.log.sojourn_ms.push((window, ms(taken - f.submitted)));
                    self.log.tasks += rep.tasks_completed as u64;
                } else {
                    out.fail(
                        1,
                        format!("DAG {dag}: accumulator {got:#x}, expected {want:#x}"),
                    );
                }
            }
            TenantOutcome::Shed => {
                self.log.shed += 1;
                out.fail(1, format!("DAG {dag} shed"));
            }
            other => out.fail(1, format!("DAG {dag} ended {other:?}")),
        }
        self.log.completed += 1;
        if self.log.completed.is_multiple_of(WINDOW_DAGS) {
            self.log
                .window_s
                .push((taken - self.window_start).as_secs_f64());
            self.window_start = taken;
        }
        if let Some(p) = self.probe {
            let slot = dag as usize % CLOCK_SLOTS;
            let first = p.clock.first[slot].load(Ordering::Relaxed);
            let last = p.clock.last[slot].load(Ordering::Relaxed);
            if first != u64::MAX {
                let submitted = p.tracer.ns(f.submitted) as f64;
                self.log.queue_ms.push((first as f64 - submitted) / 1e6);
                self.log.run_ms.push((last - first) as f64 / 1e6);
                self.log
                    .lag_ms
                    .push((p.tracer.ns(w0) as f64 - last as f64) / 1e6);
            }
        }
    }
}

/// Run the closed loop for `budget`, then drain what is in flight.
fn closed_loop(
    svc: &JadeService,
    input: &Input,
    expected: &[u64],
    stream: u64,
    budget: Duration,
    tracer: Option<&'static Tracer>,
    out: &mut Outcome,
) -> Log {
    let probe = tracer.map(|tracer| Probe {
        tracer,
        clock: Box::leak(Box::new(DagClock {
            first: (0..CLOCK_SLOTS).map(|_| AtomicU64::new(u64::MAX)).collect(),
            last: (0..CLOCK_SLOTS).map(|_| AtomicU64::new(0)).collect(),
        })),
    });
    let (done, rx) = mpsc::channel::<u64>();
    let start = Instant::now();
    let mut g = Generator {
        svc,
        input,
        expected,
        sequence: input.sequence(stream),
        tracer,
        probe,
        done,
        next: 0,
        inflight: HashMap::new(),
        window_start: start,
        log: Log::default(),
    };
    for _ in 0..IN_FLIGHT {
        g.submit_next(out);
    }
    while !g.inflight.is_empty() {
        let idle = Instant::now();
        match rx.recv_timeout(Duration::from_secs(5)) {
            Ok(dag) => {
                g.span("gen.idle", dag, idle, Instant::now());
                g.take(out, dag);
                if start.elapsed() < budget {
                    g.submit_next(out);
                }
            }
            // A DAG that never signals (a failed tenant) is taken by a
            // blocking wait; its replacement keeps the loop full.
            Err(RecvTimeoutError::Timeout) => {
                let left: Vec<u64> = g.inflight.keys().copied().collect();
                for dag in left {
                    g.take(out, dag);
                    if start.elapsed() < budget {
                        g.submit_next(out);
                    }
                }
            }
            Err(RecvTimeoutError::Disconnected) => unreachable!("generator holds a sender"),
        }
    }
    g.log.wall = start.elapsed();
    g.log
}

fn service(workers: usize) -> JadeService {
    let mut cfg = ServiceConfig::new(workers);
    cfg.max_active = MAX_ACTIVE;
    cfg.max_pending = MAX_PENDING;
    JadeService::new(cfg)
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let ((input, expected, svc), setup_s) = repeat_setup(|| {
        let input = Input::generate(cfg.seed);
        let expected: Vec<u64> = input.templates.iter().map(Template::expected).collect();
        let svc = service(cfg.workers);
        // Warm the pool and the allocator with a short burst.
        let (tx, _rx) = mpsc::channel();
        let ids: Vec<_> = (0..64)
            .map(|k| {
                let t = k % input.templates.len();
                let (p, acc) = program(&input.templates[t], k as u64, None, &tx);
                let id = svc
                    .submit(p, TenantOptions::default())
                    .expect("warm-up admitted");
                (id, acc, t)
            })
            .collect();
        for (id, acc, t) in ids {
            let rep = svc.wait(id);
            assert_eq!(*rep.store.read(acc), expected[t], "warm-up DAG result");
        }
        (input, expected, svc)
    });

    let share = if cfg.traced { 0.45 } else { 1.0 };
    let plain = closed_loop(
        &svc,
        &input,
        &expected,
        0,
        cfg.budget(share),
        None,
        &mut out,
    );
    out.note(format!(
        "{} DAGs, {IN_FLIGHT} in flight, {} workers; {} sojourn samples in {} windows",
        plain.completed,
        cfg.workers,
        plain.sojourn_ms.len(),
        plain.window_s.len()
    ));
    if !cfg.traced {
        out.set("tasks_per_s", plain.tasks as f64 / plain.wall.as_secs_f64());
        out.set("wall_s", stats::median(&plain.window_s));
        out.set(
            "sojourn_p50_ms",
            stats::windowed_percentile(&plain.sojourn_ms, 50.0),
        );
        out.set(
            "sojourn_p90_ms",
            stats::windowed_percentile(&plain.sojourn_ms, 90.0),
        );
        out.set("setup_s", setup_s);
        return out;
    }

    let tracer = Tracer::leak();
    let traced = closed_loop(
        &svc,
        &input,
        &expected,
        1,
        cfg.budget(0.45),
        Some(tracer),
        &mut out,
    );
    let pct = |xs: &[f64], p| stats::percentile(xs, p);
    out.set("service.submit_us_p50", pct(&traced.submit_us, 50.0));
    out.set("service.submit_us_p99", pct(&traced.submit_us, 99.0));
    out.set("service.queue_wait_ms_p50", pct(&traced.queue_ms, 50.0));
    out.set("service.queue_wait_ms_p99", pct(&traced.queue_ms, 99.0));
    out.set("service.run_ms_p50", pct(&traced.run_ms, 50.0));
    out.set("service.shed", (plain.shed + traced.shed) as f64);
    out.set(
        "service.rejected",
        (plain.rejected + traced.rejected) as f64,
    );
    out.set("gen.lag_p99_ms", pct(&traced.lag_ms, 99.0));
    out.set("bench.sojourn_samples", plain.sojourn_ms.len() as f64);
    out.set(
        "bench.trace_overhead",
        stats::median(&traced.window_s) / stats::median(&plain.window_s) - 1.0,
    );
    out.set(
        "bench.reconcile_gap",
        crate::probe::reconcile_gap(&traced.spans, traced.wall),
    );
    let specs: Vec<Vec<AccessSpec>> = input.templates.iter().map(Template::specs).collect();
    let dags: Vec<&[AccessSpec]> = specs.iter().map(Vec::as_slice).collect();
    match crate::replay::ns_per_task(&dags, cfg.budget(0.05)) {
        Ok(ns) => out.set("sync.ns_per_task", ns),
        Err(e) => out.fail(0, e),
    }
    out.spans = traced.spans;
    out.spans.extend(tracer.take_body_spans());
    out
}
