//! `stress-batches`: one `ThreadRuntime` at `nproc` workers runs many
//! `finish()` batches of near-empty tasks, so the scheduler, synchronizer,
//! drain flush, deque/steal, park and per-batch spawn/join do almost all
//! the work. Supersedes the SchedStress rows of `repro bench`.
//!
//! Batch sizes are log-uniform over 10²..10⁴ tasks: the midpoints of
//! [`BATCHES_PER_PASS`] equal strata, shuffled, so every seed covers the
//! range evenly and seeds differ in batch order and task mix, not in load. A batch mixes
//! `rd_wr` increments of a small counter set with fan-outs: up to eight
//! readers of one shared object, each adding it into its own lane, then a
//! writer of that object.

use crate::probe::{Span, Timed, Tracer};
use crate::report::Outcome;
use crate::rng::Rng;
use crate::{ms, passes_for, repeat_setup, stats, RunCfg};
use jade_core::{AccessSpec, Handle, JadeRuntime, TaskBuilder};
use jade_threads::ThreadRuntime;
use std::time::{Duration, Instant};

pub const COUNTERS: usize = 16;
pub const SHARED: usize = 4;
pub const LANES: usize = 8;
pub const BATCHES_PER_PASS: usize = 45;
pub const MIN_BATCH: f64 = 100.0;
pub const MAX_BATCH: f64 = 10_000.0;
/// Share of a batch's tasks that start a fan-out group.
const FANOUT_PERCENT: usize = 30;
const SALT: u64 = 0x5354_5245_5353;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// `counters[c] += 1`.
    Inc(u8),
    /// `lanes[shared][lane] += shared value`.
    Read { shared: u8, lane: u8 },
    /// `shared[s] += 1`.
    Write(u8),
}

/// The generated input: one pass worth of batches.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Plan {
    pub batches: Vec<Vec<Op>>,
}

impl Plan {
    pub fn generate(seed: u64) -> Plan {
        let mut rng = Rng::new(seed, SALT);
        let mut sizes: Vec<usize> = (0..BATCHES_PER_PASS)
            .map(|i| {
                let u = (i as f64 + 0.5) / BATCHES_PER_PASS as f64;
                (MIN_BATCH * (MAX_BATCH / MIN_BATCH).powf(u)).round() as usize
            })
            .collect();
        rng.shuffle(&mut sizes);
        let batches = sizes.iter().map(|&n| batch(&mut rng, n)).collect();
        Plan { batches }
    }

    pub fn tasks(&self) -> usize {
        self.batches.iter().map(Vec::len).sum()
    }

    /// Byte encoding of the input (for the same-seed, same-bytes test).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for b in &self.batches {
            out.extend_from_slice(&(b.len() as u32).to_le_bytes());
            for op in b {
                out.extend_from_slice(&match *op {
                    Op::Inc(c) => [0, c, 0],
                    Op::Read { shared, lane } => [1, shared, lane],
                    Op::Write(s) => [2, s, 0],
                });
            }
        }
        out
    }
}

fn batch(rng: &mut Rng, n: usize) -> Vec<Op> {
    let mut ops = Vec::with_capacity(n);
    while ops.len() < n {
        let left = n - ops.len();
        if left >= 3 && rng.below(100) < FANOUT_PERCENT {
            let readers = (2 + rng.below(LANES - 1)).min(left - 1);
            let s = rng.below(SHARED) as u8;
            let lane0 = rng.below(LANES);
            for r in 0..readers {
                ops.push(Op::Read {
                    shared: s,
                    lane: ((lane0 + r) % LANES) as u8,
                });
            }
            ops.push(Op::Write(s));
        } else {
            ops.push(Op::Inc(rng.below(COUNTERS) as u8));
        }
    }
    ops
}

/// The serial meaning of the ops: what every object must hold.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Model {
    pub counters: [u64; COUNTERS],
    pub shared: [u64; SHARED],
    pub lanes: [[u64; LANES]; SHARED],
}

impl Model {
    pub fn apply(&mut self, op: Op) {
        match op {
            Op::Inc(c) => self.counters[c as usize] += 1,
            Op::Read { shared, lane } => {
                let l = &mut self.lanes[shared as usize][lane as usize];
                *l = l.wrapping_add(self.shared[shared as usize]);
            }
            Op::Write(s) => self.shared[s as usize] += 1,
        }
    }
}

/// The objects one runtime holds for the workload.
pub struct Objects {
    counters: Vec<Handle<u64>>,
    shared: Vec<Handle<u64>>,
    lanes: Vec<Handle<u64>>,
}

impl Objects {
    pub fn create<R: JadeRuntime>(rt: &mut R) -> Objects {
        let mut make = |prefix: &str, n: usize| -> Vec<Handle<u64>> {
            (0..n)
                .map(|i| rt.create(&format!("{prefix}{i}"), 8, 0u64))
                .collect()
        };
        Objects {
            counters: make("c", COUNTERS),
            shared: make("s", SHARED),
            lanes: make("l", SHARED * LANES),
        }
    }

    fn lane(&self, shared: u8, lane: u8) -> Handle<u64> {
        self.lanes[shared as usize * LANES + lane as usize]
    }

    pub fn submit<R: JadeRuntime>(&self, rt: &mut R, op: Op) {
        match op {
            Op::Inc(c) => {
                let h = self.counters[c as usize];
                rt.submit(TaskBuilder::new("inc").rd_wr(h).body(move |ctx| {
                    *ctx.wr(h) += 1;
                }));
            }
            Op::Read { shared, lane } => {
                let (src, dst) = (self.shared[shared as usize], self.lane(shared, lane));
                rt.submit(
                    TaskBuilder::new("read")
                        .rd(src)
                        .rd_wr(dst)
                        .body(move |ctx| {
                            let v = *ctx.rd(src);
                            let mut d = ctx.wr(dst);
                            *d = d.wrapping_add(v);
                        }),
                );
            }
            Op::Write(s) => {
                let h = self.shared[s as usize];
                rt.submit(TaskBuilder::new("write").rd_wr(h).body(move |ctx| {
                    *ctx.wr(h) += 1;
                }));
            }
        }
    }

    /// The access specification `submit` declares for `op`.
    pub fn spec(&self, op: Op) -> AccessSpec {
        let mut spec = AccessSpec::new();
        match op {
            Op::Inc(c) => spec.rd_wr(self.counters[c as usize]),
            Op::Read { shared, lane } => spec
                .rd(self.shared[shared as usize])
                .rd_wr(self.lane(shared, lane)),
            Op::Write(s) => spec.rd_wr(self.shared[s as usize]),
        };
        spec
    }

    pub fn read<R: JadeRuntime>(&self, rt: &R) -> Model {
        let st = rt.store();
        let mut m = Model::default();
        for (v, &h) in m.counters.iter_mut().zip(&self.counters) {
            *v = *st.read(h);
        }
        for (v, &h) in m.shared.iter_mut().zip(&self.shared) {
            *v = *st.read(h);
        }
        for s in 0..SHARED {
            for l in 0..LANES {
                m.lanes[s][l] = *st.read(self.lane(s as u8, l as u8));
            }
        }
        m
    }
}

/// One runtime with its objects and the serial model of their contents.
struct Bench {
    rt: ThreadRuntime,
    objs: Objects,
    model: Model,
}

impl Bench {
    fn new(workers: usize) -> Bench {
        let mut rt = ThreadRuntime::new(workers);
        let objs = Objects::create(&mut rt);
        Bench {
            rt,
            objs,
            model: Model::default(),
        }
    }
}

/// Per-pass timings.
#[derive(Default)]
struct PassLog {
    pass_s: Vec<f64>,
    rate: Vec<f64>,
    batch_ms: Vec<f64>,
    submit: Duration,
    finish: Duration,
    tasks: u64,
    spans: Vec<Span>,
}

/// Run one pass of `plan` on `b` (traced through `tracer` if given), then
/// check every object against the serial model.
fn pass(
    b: &mut Bench,
    plan: &Plan,
    tracer: Option<&'static Tracer>,
    log: &mut PassLog,
    out: &mut Outcome,
) {
    let t0 = Instant::now();
    for (i, ops) in plan.batches.iter().enumerate() {
        let b0 = Instant::now();
        match tracer {
            None => {
                for &op in ops {
                    b.objs.submit(&mut b.rt, op);
                }
            }
            Some(tracer) => {
                let mut timed = Timed {
                    inner: &mut b.rt,
                    tracer,
                    id: i as u64,
                };
                for &op in ops {
                    b.objs.submit(&mut timed, op);
                }
            }
        }
        let b1 = Instant::now();
        b.rt.finish();
        let b2 = Instant::now();
        log.batch_ms.push(ms(b2 - b0));
        log.submit += b1 - b0;
        log.finish += b2 - b1;
        if let Some(tr) = tracer {
            log.spans.push(tr.span("submit", i as u64, b0, b1));
            log.spans.push(tr.span("finish", i as u64, b1, b2));
        }
    }
    let dt = t0.elapsed().as_secs_f64();
    log.pass_s.push(dt);
    log.rate.push(plan.tasks() as f64 / dt);
    log.tasks += plan.tasks() as u64;
    for ops in &plan.batches {
        for &op in ops {
            b.model.apply(op);
        }
    }
    out.attempted += plan.batches.len() as u64;
    let got = b.objs.read(&b.rt);
    if got != b.model {
        out.fail(
            plan.batches.len() as u64,
            format!(
                "stress counters differ from the serial model: {got:?} vs {:?}",
                b.model
            ),
        );
        b.model = got;
    }
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let ((plan, mut bench), setup_s) = repeat_setup(|| {
        let plan = Plan::generate(cfg.seed);
        let mut b = Bench::new(cfg.workers);
        let mut warm = PassLog::default();
        pass(&mut b, &plan, None, &mut warm, &mut Outcome::default());
        (plan, b)
    });
    out.note(format!(
        "{} batches/pass, {} tasks/pass, {} workers",
        plan.batches.len(),
        plan.tasks(),
        cfg.workers
    ));

    let share = if cfg.traced { 0.4 } else { 1.0 };
    let mut plain = PassLog::default();
    let n = passes_for(cfg.budget(share), 3, || {
        pass(&mut bench, &plan, None, &mut plain, &mut out)
    });
    out.note(format!(
        "{n} untraced passes, {} batch samples",
        plain.batch_ms.len()
    ));
    if !cfg.traced {
        out.set("tasks_per_s", stats::median(&plain.rate));
        out.set("wall_s", stats::median(&plain.pass_s));
        out.set("sojourn_p50_ms", stats::percentile(&plain.batch_ms, 50.0));
        out.set("sojourn_p90_ms", stats::percentile(&plain.batch_ms, 90.0));
        out.set("setup_s", setup_s);
        return out;
    }

    // Traced passes on the same warmed runtime.
    let tracer = Tracer::leak();
    let before = bench.rt.total_stats();
    tracer.take_body_totals();
    let mut traced = PassLog::default();
    passes_for(cfg.budget(0.4), 3, || {
        pass(&mut bench, &plan, Some(tracer), &mut traced, &mut out)
    });
    let after = bench.rt.total_stats();
    let (body, bodies) = tracer.take_body_totals();
    let executed = (after.executed - before.executed).max(1) as f64;
    let tasks = traced.tasks.max(1) as f64;
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
        (after.sync_locks - before.sync_locks) as f64 / executed,
    );
    out.set(
        "threads.steal_ratio",
        (after.steals - before.steals) as f64 / executed,
    );
    out.set(
        "threads.locality_hit_ratio",
        (after.locality_hits - before.locality_hits) as f64 / executed,
    );
    out.set(
        "threads.body_share",
        body.as_secs_f64() / (traced.finish.as_secs_f64() * cfg.workers as f64),
    );
    if bodies != traced.tasks {
        out.fail(
            0,
            format!("traced {bodies} bodies for {} tasks", traced.tasks),
        );
    }
    let wall: f64 = traced.pass_s.iter().sum();
    out.set(
        "bench.reconcile_gap",
        crate::probe::reconcile_gap(&traced.spans, Duration::from_secs_f64(wall)),
    );
    let (plain_rate, traced_rate) = (stats::median(&plain.rate), stats::median(&traced.rate));
    out.note(format!(
        "tasks/s untraced {plain_rate:.0}, traced {traced_rate:.0}"
    ));
    out.set("bench.trace_overhead", plain_rate / traced_rate - 1.0);
    out.set("bench.sojourn_samples", plain.batch_ms.len() as f64);
    out.set("threads.finish_fixed_us", finish_fixed_us(&mut bench));

    // The same input at one worker: the scaling reference.
    let mut one = Bench::new(1);
    let mut single = PassLog::default();
    passes_for(cfg.budget(0.15), 2, || {
        pass(&mut one, &plan, None, &mut single, &mut out)
    });
    out.set("threads.tasks_per_s_1w", stats::median(&single.rate));

    let specs: Vec<Vec<AccessSpec>> = plan
        .batches
        .iter()
        .map(|ops| ops.iter().map(|&op| bench.objs.spec(op)).collect())
        .collect();
    let dags: Vec<&[AccessSpec]> = specs.iter().map(Vec::as_slice).collect();
    match crate::replay::ns_per_task(&dags, cfg.budget(0.05)) {
        Ok(ns) => out.set("sync.ns_per_task", ns),
        Err(e) => out.fail(0, e),
    }
    out.spans = traced.spans;
    out.spans.extend(tracer.take_body_spans());
    out
}

/// Median time of a one-task `finish()` on the warmed runtime: the fixed
/// per-batch cost (worker spawn and join), measured from outside.
fn finish_fixed_us(b: &mut Bench) -> f64 {
    let mut samples = Vec::with_capacity(200);
    for _ in 0..200 {
        b.objs.submit(&mut b.rt, Op::Inc(0));
        b.model.apply(Op::Inc(0));
        let t0 = Instant::now();
        b.rt.finish();
        samples.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    stats::median(&samples)
}
