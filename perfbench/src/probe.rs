//! Spans placed by the benchmark around each call into a layer.
//!
//! The runtimes are not instrumented: the benchmark times the calls it
//! makes (`submit`, `finish`, `JadeService::submit`/`wait`, simulator
//! runs) and wraps task bodies at submission ([`Timed`], [`Tracer::body`]).
//! Spans live in memory and are written out once, at the end, as a Chrome
//! `trace_event` file in the layout `repro --trace-out` uses. Readings only
//! measure: none is ever handed back to a runtime.

use jade_core::{JadeRuntime, Store, TaskCtx, TaskDef, TaskId};
use std::cell::Cell;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One timed interval. `id` groups the spans of one request (a service
/// DAG, a stress batch, an application run); `tid` is the track.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub tid: u32,
    pub id: u64,
}

/// Track slots for task-body timing. Worker threads take slots round
/// robin, so the few threads alive at once never share one.
const SLOTS: usize = 16;

/// Body spans kept per slot; bodies past the cap are still counted and
/// timed, only not stored.
const SPANS_PER_SLOT: usize = 8192;

#[repr(align(128))]
#[derive(Default)]
struct Slot {
    body_ns: AtomicU64,
    bodies: AtomicU64,
    /// Spans stored so far; checked before locking, so bodies past the cap
    /// take no lock.
    stored: AtomicUsize,
    spans: Mutex<Vec<Span>>,
}

static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static MY_SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn my_slot() -> usize {
    MY_SLOT.with(|s| {
        if s.get() == usize::MAX {
            s.set(NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % SLOTS);
        }
        s.get()
    })
}

/// The clock and span store of one traced run.
pub struct Tracer {
    epoch: Instant,
    slots: Vec<Slot>,
}

impl Tracer {
    /// A tracer that lives for the rest of the process, so task bodies can
    /// hold a plain `&'static` to it (no reference count on the hot path).
    pub fn leak() -> &'static Tracer {
        Box::leak(Box::new(Tracer {
            epoch: Instant::now(),
            slots: (0..SLOTS).map(|_| Slot::default()).collect(),
        }))
    }

    /// Nanoseconds from the tracer's epoch to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// A main-thread span from `t0` to `t1`.
    pub fn span(&self, name: &'static str, id: u64, t0: Instant, t1: Instant) -> Span {
        Span {
            name,
            start_ns: self.ns(t0),
            dur_ns: t1.saturating_duration_since(t0).as_nanos() as u64,
            tid: 0,
            id,
        }
    }

    /// Run a task body under a span on the calling worker's slot and
    /// return its start and end (ns from the epoch).
    pub fn body(&self, name: &'static str, id: u64, f: impl FnOnce()) -> (u64, u64) {
        let t0 = self.ns(Instant::now());
        f();
        let t1 = self.ns(Instant::now());
        let s = my_slot();
        let slot = &self.slots[s];
        slot.body_ns.fetch_add(t1 - t0, Ordering::Relaxed);
        slot.bodies.fetch_add(1, Ordering::Relaxed);
        if slot.stored.fetch_add(1, Ordering::Relaxed) < SPANS_PER_SLOT {
            slot.spans.lock().expect("span slot poisoned").push(Span {
                name,
                start_ns: t0,
                dur_ns: (t1 - t0).max(1),
                tid: s as u32 + 1,
                id,
            });
        }
        (t0, t1)
    }

    /// Total body time and body count since the last call; resets both.
    pub fn take_body_totals(&self) -> (Duration, u64) {
        let mut ns = 0;
        let mut n = 0;
        for s in &self.slots {
            ns += s.body_ns.swap(0, Ordering::Relaxed);
            n += s.bodies.swap(0, Ordering::Relaxed);
        }
        (Duration::from_nanos(ns), n)
    }

    /// Every stored body span, in no particular order.
    pub fn take_body_spans(&self) -> Vec<Span> {
        let mut out = Vec::new();
        for s in &self.slots {
            out.append(&mut s.spans.lock().expect("span slot poisoned"));
        }
        out
    }
}

/// Wrap a task's body so it runs under [`Tracer::body`].
pub fn wrap_body(def: TaskDef, tracer: &'static Tracer, id: u64) -> TaskDef {
    let TaskDef {
        label,
        spec,
        placement,
        serial_phase,
        body,
    } = def;
    TaskDef {
        label,
        spec,
        placement,
        serial_phase,
        body: Box::new(move |ctx: &TaskCtx<'_>| {
            tracer.body(label, id, || body(ctx));
        }),
    }
}

/// A runtime seen through the tracer: every submitted body is wrapped by
/// [`wrap_body`]; everything else goes straight to the inner runtime, so
/// unmodified application code (`jade_apps::*::build`) runs traced.
pub struct Timed<'a, R> {
    pub inner: &'a mut R,
    pub tracer: &'static Tracer,
    /// Request id stamped on the body spans.
    pub id: u64,
}

impl<R: JadeRuntime> JadeRuntime for Timed<'_, R> {
    fn store(&self) -> &Store {
        self.inner.store()
    }

    fn store_mut(&mut self) -> &mut Store {
        self.inner.store_mut()
    }

    fn submit(&mut self, def: TaskDef) -> TaskId {
        self.inner.submit(wrap_body(def, self.tracer, self.id))
    }

    fn begin_phase(&mut self) {
        self.inner.begin_phase();
    }

    fn finish(&mut self) {
        self.inner.finish();
    }
}

fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// Write `spans` as a Chrome `trace_event` document (complete events,
/// microsecond timestamps, one track per `tid`), the format
/// `repro --trace-out` writes, so Perfetto opens both.
pub fn write_chrome<W: Write>(w: &mut W, spans: &[Span]) -> io::Result<()> {
    write!(w, "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")?;
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            write!(w, ",")?;
        }
        write!(
            w,
            "\n{{\"name\":\"{}\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{},\"args\":{{\"id\":{}}}}}",
            s.name,
            micros(s.start_ns),
            micros(s.dur_ns.max(1)),
            s.tid,
            s.id
        )?;
    }
    writeln!(w, "\n]}}")
}

/// Share by which the sum of top-level spans misses the measured wall
/// time they tile: how much of the run the spans fail to account for.
pub fn reconcile_gap(top_level: &[Span], wall: Duration) -> f64 {
    let covered: u64 = top_level.iter().map(|s| s.dur_ns).sum();
    let wall = wall.as_nanos() as f64;
    (wall - covered as f64).abs() / wall.max(1.0)
}
