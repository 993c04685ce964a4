//! A long-lived multi-tenant Jade service over the shared worker pool.
//!
//! [`ThreadRuntime`](crate::ThreadRuntime) executes one program's task DAG
//! per batch and tears its scheduler down afterwards. This module is the
//! request-level front end the ROADMAP's "heavy traffic" north star asks
//! for: a [`JadeService`] owns a pool of long-lived worker threads and
//! admits a *stream* of independent program DAGs ([`Program`]s). Each
//! admitted tenant gets its own [`Synchronizer`], its own [`Store`] and its
//! own event stream (tagged with a [`TenantId`]); all tenants share the
//! worker pool and the write-owner locality table mechanism.
//!
//! Robustness contracts, in order of importance:
//!
//! * **Admission control / backpressure.** At most `max_active` tenants are
//!   resident; further submissions queue in a bounded pending queue. A full
//!   queue never panics and never buffers unboundedly: depending on
//!   [`ShedPolicy`] the new submission is rejected with
//!   [`SubmitError::Overloaded`] or the *oldest* pending DAG is shed (its
//!   report resolves to [`Outcome::Shed`]).
//! * **Tenant fault isolation.** Task bodies run under the same
//!   catch-unwind crash path as `ThreadRuntime`: injected crashes (a
//!   tenant's [`FaultPlan`], keyed purely on `(seed, task, attempt)`) are
//!   re-executed to a bit-identical result; a *genuine* panic fails only
//!   its own tenant ([`Outcome::Failed`]) — the pool keeps running and
//!   every other tenant's outputs and deterministic counters are exactly
//!   what they would be running alone.
//! * **Deadlines.** A tenant may carry a wall-clock deadline (the budget
//!   starts at submission, so time spent queued counts). An expired tenant
//!   stops being dispatched, its remaining tasks are cancelled, running
//!   tasks drain, and the report resolves to [`Outcome::DeadlineExceeded`]
//!   with partial per-tenant metrics — the pool is never wedged. (The
//!   simulators carry the same budget as a `SimDuration` through
//!   `dsim::SimBudget` / `IpscConfig::deadline`.)
//! * **Fair scheduling.** Workers scan tenants round-robin (optionally
//!   weighted): a tenant with continuously ready work is served again
//!   after at most Σ other tenants' weights dispatches — the starvation
//!   bound asserted in the tests.
//! * **Per-tenant metrics.** Every event is recorded in the tenant's own
//!   stream under one service-global logical clock, so
//!   [`TenantReport::tagged_events`] merge into a globally ordered tagged
//!   stream and `Metrics::per_tenant` / `check_lifecycle_per_tenant` split
//!   cleanly.
//!
//! Determinism note: fairness and the global clock order events across
//! tenants nondeterministically, but everything *within* a tenant that Jade
//! semantics pins down — final object values and the interleaving-
//! independent counters — is identical to a solo run of the same program
//! on the same seed (enforced by proptests in `tests/service.rs`).

use crate::{lock, InjectedFailure, OwnerTable, MAX_TASK_ATTEMPTS};
use dsim::FaultPlan;
use jade_core::{
    tag_events, Event, EventKind, EventSink, Handle, Locality, Metrics, ObjectId, Store,
    Synchronizer, TaggedEvent, TaskCtx, TaskDef, TaskId, TenantId, Transition,
};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::ops::Bound;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// One tenant's program: a private object store plus its task DAG, built
/// up-front and handed to [`JadeService::submit`]. Task ids are
/// tenant-local, starting at zero.
#[derive(Default)]
pub struct Program {
    store: Store,
    tasks: Vec<TaskDef>,
}

impl Program {
    pub fn new() -> Program {
        Program::default()
    }

    /// Create a shared object in this tenant's store.
    pub fn create<T: Send + Sync + 'static>(
        &mut self,
        name: impl Into<String>,
        size_bytes: usize,
        data: T,
    ) -> Handle<T> {
        self.store.create(name, size_bytes, data)
    }

    pub fn store_mut(&mut self) -> &mut Store {
        &mut self.store
    }

    /// Queue a task; tasks execute in declared-access serial order once the
    /// program is admitted.
    pub fn submit(&mut self, def: TaskDef) -> TaskId {
        let id = TaskId(self.tasks.len() as u32);
        self.tasks.push(def);
        id
    }

    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }
}

/// What happens when a submission arrives with the pending queue full.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ShedPolicy {
    /// Reject the new submission with [`SubmitError::Overloaded`].
    #[default]
    RejectNew,
    /// Admit the new submission and shed the *oldest* still-pending DAG;
    /// its report resolves to [`Outcome::Shed`].
    DropOldest,
}

/// Static configuration of a [`JadeService`].
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Worker threads in the shared pool (minimum 1).
    pub workers: usize,
    /// Tenants resident (registered with a live synchronizer) at once.
    pub max_active: usize,
    /// Bound of the pending-DAG admission queue; `0` disables queueing
    /// entirely (submissions beyond `max_active` shed immediately).
    pub max_pending: usize,
    /// Behavior when the pending queue is full.
    pub shed: ShedPolicy,
    /// Tenant-aware fair-share tuning (DESIGN.md §19): cap how many
    /// consecutive dispatches one tenant receives while other tenants have
    /// ready work, banking the unserved portion of its weighted turn so
    /// long-run weight ratios are preserved. Bounds the dispatch-latency
    /// skew a single heavy tenant can impose on small tenants.
    pub tune: bool,
}

impl ServiceConfig {
    pub fn new(workers: usize) -> ServiceConfig {
        ServiceConfig {
            workers: workers.max(1),
            max_active: 8,
            max_pending: 32,
            shed: ShedPolicy::RejectNew,
            tune: false,
        }
    }
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig::new(2)
    }
}

/// Per-submission options.
#[derive(Clone, Debug, Default)]
pub struct TenantOptions {
    /// Wall-clock budget, measured from submission (queueing time counts).
    pub deadline: Option<Duration>,
    /// Injected-fault plan for this tenant only. `panic_p` crashes task
    /// attempts via the keyed `(seed, task, attempt)` hash; `fail_proc = p`
    /// simulates fail-stop of virtual worker `p`: every task placed on it
    /// (tenant-local id modulo pool width) crashes on its first attempt and
    /// re-executes. Both crash *before* the body runs, so recovery is
    /// bit-identical.
    pub faults: Option<FaultPlan>,
    /// Fair-share weight (0 is treated as 1): consecutive dispatches the
    /// tenant may receive before the round-robin cursor moves on.
    pub weight: u32,
}

impl TenantOptions {
    pub fn with_deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    pub fn with_weight(mut self, w: u32) -> Self {
        self.weight = w;
        self
    }
}

/// Why a submission was not admitted. Never a panic: overload is an
/// expected operating condition of a loaded service.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// Active slots and the pending queue are full (under
    /// [`ShedPolicy::RejectNew`]).
    Overloaded { pending: usize, limit: usize },
    /// The service is shutting down.
    ShuttingDown,
    /// The tenant's fault plan failed validation.
    InvalidFaultPlan(String),
    /// The program contains no tasks.
    EmptyProgram,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Overloaded { pending, limit } => {
                write!(f, "service overloaded: {pending}/{limit} DAGs pending")
            }
            SubmitError::ShuttingDown => write!(f, "service is shutting down"),
            SubmitError::InvalidFaultPlan(why) => write!(f, "invalid fault plan: {why}"),
            SubmitError::EmptyProgram => write!(f, "program has no tasks"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Terminal state of one tenant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Every task completed.
    Completed,
    /// The wall-clock deadline expired; remaining tasks were cancelled.
    DeadlineExceeded,
    /// A task body genuinely panicked (or exhausted the injected-failure
    /// retry budget); remaining tasks were cancelled. The pool survives.
    Failed(String),
    /// Shed from the pending queue under [`ShedPolicy::DropOldest`]
    /// before any task ran.
    Shed,
}

/// Everything a tenant's run produced. The store is shared (`Arc`) because
/// task bodies may still be unwinding when the report is built; readers use
/// [`Store::read`]/[`Store::snapshot`] as usual.
pub struct TenantReport {
    pub tenant: TenantId,
    pub outcome: Outcome,
    pub tasks_total: usize,
    pub tasks_completed: usize,
    /// Tasks never completed (cancelled by a deadline, a failure, or a
    /// shed). Zero iff `outcome == Completed`.
    pub tasks_cancelled: usize,
    /// Injected-crash re-executions recovered inside this tenant.
    pub recoveries: usize,
    pub store: Arc<Store>,
    /// This tenant's event stream. Times are service-global logical
    /// sequence numbers, so merged tagged streams are totally ordered.
    pub events: Vec<Event>,
}

impl TenantReport {
    /// The event stream tagged with this tenant's id, ready to merge with
    /// other tenants' streams for `Metrics::per_tenant` /
    /// `check_lifecycle_per_tenant`.
    pub fn tagged_events(&self) -> Vec<TaggedEvent> {
        tag_events(self.tenant, &self.events)
    }

    /// Per-tenant metrics reconstructed from this tenant's events alone.
    pub fn metrics(&self, procs: usize) -> Metrics {
        Metrics::from_events(&self.events, procs)
    }
}

/// One tenant, built on the submitter's thread and then handed to the core
/// lock: once admitted, all fields are guarded by it; only the store (and
/// the executing task's body) escape it.
struct Tenant {
    store: Arc<Store>,
    /// Task bodies, taken by the executing worker; restored on an injected
    /// crash so the re-execution runs the same body.
    bodies: Vec<Option<TaskDef>>,
    sync: Synchronizer,
    events: EventSink,
    /// Enabled, not-yet-dispatched tenant-local task indices (FIFO). Empty
    /// once the tenant is cancelled.
    ready: VecDeque<usize>,
    attempts: Vec<u32>,
    /// Locality target recorded when the task became ready (most recent
    /// writer of its declared objects at that moment), if any.
    targets: Vec<Option<usize>>,
    owners: OwnerTable,
    n_tasks: usize,
    /// Tasks not yet completed.
    live: usize,
    /// Tasks currently executing on workers.
    running: usize,
    completed: usize,
    recoveries: usize,
    /// Set once cancellation triggers (deadline or failure); the terminal
    /// outcome. Cancelled tenants dispatch nothing further and finalize
    /// when the last running task drains.
    cancel: Option<Outcome>,
    deadline: Option<Instant>,
    faults: Option<FaultPlan>,
    weight: u32,
    /// Unserved dispatches banked when the controller cut this tenant's
    /// weighted turn short ([`ServiceConfig::tune`]); restored as the grant
    /// of its next turn so long-run weight ratios survive the cap.
    carry: u32,
}

/// A submission waiting for an active slot, already built.
struct PendingTenant {
    id: u32,
    tenant: Tenant,
}

struct Core {
    active: BTreeMap<u32, Tenant>,
    pending: VecDeque<PendingTenant>,
    finished: HashMap<u32, TenantReport>,
    next_id: u32,
    /// Tenant currently holding the round-robin turn.
    rr_cursor: u32,
    /// Dispatches left in the cursor tenant's turn (its weight, counted
    /// down; at zero the next scan starts after the cursor).
    rr_credit: u32,
    /// Consecutive dispatches the cursor tenant has received in its current
    /// stretch; the tuned policy forces a handoff when this reaches the
    /// controller's credit cap while other tenants have ready work.
    burst: u32,
    /// Fair-share feedback controller ([`ServiceConfig::tune`]).
    ctl: jade_core::Controller,
    /// Service-global logical event clock shared by every tenant's stream.
    clock: u64,
    shutdown: bool,
    /// Workers parked on [`Inner::work`] (counted from the critical section
    /// that found nothing to pick until the worker relocks).
    idle: usize,
    /// Dispatchable tasks: the summed `ready` queues of the active tenants.
    ready: usize,
    /// Active tenants carrying a deadline; deadlines are swept only while
    /// this is non-zero.
    deadlines: usize,
    /// Scratch for the tasks a transition enables, reused so settling
    /// allocates nothing.
    newly: Vec<TaskId>,
}

impl Core {
    fn tick(clock: &mut u64) -> u64 {
        let t = *clock;
        *clock += 1;
        t
    }

    /// Ready work is waiting and a worker is parked: whoever releases the
    /// lock after seeing this must `notify_one` (DESIGN.md §16).
    fn should_wake(&self) -> bool {
        self.ready > 0 && self.idle > 0
    }
}

struct Inner {
    cfg: ServiceConfig,
    core: Mutex<Core>,
    /// Workers park here when no tenant has ready work.
    work: Condvar,
    /// `wait` callers park here until their report lands in `finished`.
    done: Condvar,
}

/// A task picked for execution; everything `execute` needs off-lock.
struct Picked {
    tenant: u32,
    local: usize,
    def: TaskDef,
    attempt: u32,
    injected: bool,
    store: Arc<Store>,
}

/// The long-lived multi-tenant front end. See the module docs for the
/// contracts; see `repro service-stress` for the acceptance harness.
pub struct JadeService {
    inner: Arc<Inner>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl JadeService {
    pub fn new(cfg: ServiceConfig) -> JadeService {
        let cfg = ServiceConfig {
            workers: cfg.workers.max(1),
            max_active: cfg.max_active.max(1),
            ..cfg
        };
        let inner = Arc::new(Inner {
            cfg,
            core: Mutex::new(Core {
                active: BTreeMap::new(),
                pending: VecDeque::new(),
                finished: HashMap::new(),
                next_id: 0,
                rr_cursor: 0,
                rr_credit: 0,
                burst: 0,
                ctl: jade_core::Controller::new(),
                clock: 0,
                shutdown: false,
                idle: 0,
                ready: 0,
                deadlines: 0,
                newly: Vec::new(),
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let threads = (0..cfg.workers)
            .map(|w| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("jade-svc-{w}"))
                    .spawn(move || worker_loop(&inner, w))
                    .expect("spawn service worker")
            })
            .collect();
        JadeService { inner, threads }
    }

    pub fn workers(&self) -> usize {
        self.inner.cfg.workers
    }

    /// Decisions the fair-share controller has taken so far. Empty unless
    /// [`ServiceConfig::tune`] is set.
    pub fn tune_log(&self) -> jade_core::TuneLog {
        lock(&self.inner.core).ctl.log.clone()
    }

    /// Submit a tenant program. Returns its [`TenantId`] (pass to
    /// [`wait`](Self::wait)) or an explicit [`SubmitError`] — admission
    /// never panics and never queues unboundedly. The program's tasks are
    /// registered on the calling thread, before the service lock is taken.
    pub fn submit(&self, prog: Program, opts: TenantOptions) -> Result<TenantId, SubmitError> {
        if prog.tasks.is_empty() {
            return Err(SubmitError::EmptyProgram);
        }
        if let Some(plan) = &opts.faults {
            plan.validate().map_err(SubmitError::InvalidFaultPlan)?;
        }
        let deadline = opts.deadline.map(|d| Instant::now() + d);
        // Registration is O(tasks); build the tenant here, on the caller's
        // thread, so workers never wait on it.
        let tenant = build_tenant(prog, deadline, opts.faults, opts.weight.max(1));
        let mut core = lock(&self.inner.core);
        if core.shutdown {
            return Err(SubmitError::ShuttingDown);
        }
        if core.active.len() >= self.inner.cfg.max_active
            && core.pending.len() >= self.inner.cfg.max_pending
        {
            match self.inner.cfg.shed {
                ShedPolicy::RejectNew => {
                    return Err(SubmitError::Overloaded {
                        pending: core.pending.len(),
                        limit: self.inner.cfg.max_pending,
                    });
                }
                ShedPolicy::DropOldest => {
                    if let Some(old) = core.pending.pop_front() {
                        let report = shed_report(&old);
                        core.finished.insert(old.id, report);
                        self.inner.done.notify_all();
                    } else {
                        // max_pending == 0: nothing to shed, reject.
                        return Err(SubmitError::Overloaded {
                            pending: 0,
                            limit: 0,
                        });
                    }
                }
            }
        }
        let id = core.next_id;
        core.next_id += 1;
        if core.active.len() < self.inner.cfg.max_active {
            admit(&mut core, id, tenant);
        } else {
            core.pending.push_back(PendingTenant { id, tenant });
        }
        let wake = core.should_wake();
        drop(core);
        if wake {
            self.inner.work.notify_one();
        }
        Ok(TenantId(id))
    }

    /// Block until tenant `id`'s report is ready and take it. Each report
    /// can be taken exactly once.
    ///
    /// # Panics
    ///
    /// If `id` was never issued by this service or its report was already
    /// taken.
    pub fn wait(&self, id: TenantId) -> TenantReport {
        let mut core = lock(&self.inner.core);
        loop {
            if let Some(r) = core.finished.remove(&id.0) {
                return r;
            }
            assert!(
                id.0 < core.next_id
                    && (core.active.contains_key(&id.0)
                        || core.pending.iter().any(|p| p.id == id.0)),
                "unknown or already-taken tenant {id}"
            );
            core = self
                .inner
                .done
                .wait(core)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Take tenant `id`'s report if it is already finished.
    pub fn try_take(&self, id: TenantId) -> Option<TenantReport> {
        lock(&self.inner.core).finished.remove(&id.0)
    }

    /// Tenants currently pending admission (backpressure observability).
    pub fn pending_len(&self) -> usize {
        lock(&self.inner.core).pending.len()
    }

    /// Tenants currently resident.
    pub fn active_len(&self) -> usize {
        lock(&self.inner.core).active.len()
    }

    /// Stop accepting submissions, drain every admitted tenant, and join
    /// the worker pool. Unclaimed reports are dropped.
    pub fn shutdown(mut self) {
        self.drain_and_join();
    }

    fn drain_and_join(&mut self) {
        {
            let mut core = lock(&self.inner.core);
            core.shutdown = true;
        }
        self.inner.work.notify_all();
        for h in self.threads.drain(..) {
            if let Err(p) = h.join() {
                // A panic *outside* the body's catch_unwind is a service
                // bug, not a tenant fault; surface it.
                resume_unwind(p);
            }
        }
    }
}

impl Drop for JadeService {
    fn drop(&mut self) {
        self.drain_and_join();
    }
}

fn shed_report(p: &PendingTenant) -> TenantReport {
    TenantReport {
        tenant: TenantId(p.id),
        outcome: Outcome::Shed,
        tasks_total: p.tenant.n_tasks,
        tasks_completed: 0,
        tasks_cancelled: p.tenant.n_tasks,
        recoveries: 0,
        store: Arc::new(Store::new()),
        events: Vec::new(),
    }
}

/// Build a submission into a tenant off the core lock: give it a
/// synchronizer, register every task in serial program order, and queue the
/// initially enabled ones. Registration takes one logical tick per task,
/// stamped from 0; [`admit`] rebases the stamps onto the service clock.
fn build_tenant(
    prog: Program,
    deadline: Option<Instant>,
    faults: Option<FaultPlan>,
    weight: u32,
) -> Tenant {
    let n = prog.tasks.len();
    let mut tenant = Tenant {
        store: Arc::new(prog.store),
        bodies: Vec::with_capacity(n),
        sync: Synchronizer::new(true),
        // A clean run emits five lifecycle events per task (created,
        // enabled, dispatched, started, completed); reserving them here
        // keeps buffer growth out of the locked path.
        events: EventSink::Record(Vec::with_capacity(5 * n)),
        ready: VecDeque::new(),
        attempts: vec![0; n],
        targets: vec![None; n],
        owners: OwnerTable::default(),
        n_tasks: n,
        live: n,
        running: 0,
        completed: 0,
        recoveries: 0,
        cancel: None,
        deadline,
        faults,
        weight,
        carry: 0,
    };
    tenant.owners.ensure(tenant.store.len());
    for (i, def) in prog.tasks.into_iter().enumerate() {
        let enabled = tenant.sync.add_task_traced(
            TaskId(i as u32),
            &def.spec,
            &mut tenant.events,
            i as u64,
            0,
        );
        tenant.bodies.push(Some(def));
        if enabled {
            tenant.ready.push_back(i);
        }
    }
    tenant
}

/// Make a built tenant resident. Its registration events move to the
/// service clock's next `n_tasks` ticks, the times an under-lock
/// registration at this point would have stamped.
fn admit(core: &mut Core, id: u32, mut tenant: Tenant) {
    if let EventSink::Record(events) = &mut tenant.events {
        for e in events {
            e.time_ps += core.clock;
        }
    }
    core.clock += tenant.n_tasks as u64;
    core.ready += tenant.ready.len();
    core.deadlines += usize::from(tenant.deadline.is_some());
    core.active.insert(id, tenant);
}

/// Trigger cancellation of a tenant: set the terminal outcome (first cause
/// wins), drop its not-yet-dispatched work, and finalize immediately if
/// nothing is still running.
fn cancel_tenant(core: &mut Core, inner: &Inner, id: u32, outcome: Outcome) {
    let Some(t) = core.active.get_mut(&id) else {
        return;
    };
    if t.cancel.is_none() {
        t.cancel = Some(outcome);
    }
    core.ready -= t.ready.len();
    t.ready.clear();
    if t.running == 0 {
        finalize_tenant(core, inner, id);
    }
}

/// Remove a terminal tenant from the active set, build its report, wake
/// waiters, and free its slot for pending admissions.
fn finalize_tenant(core: &mut Core, inner: &Inner, id: u32) {
    let Some(mut t) = core.active.remove(&id) else {
        return;
    };
    debug_assert_eq!(t.running, 0, "finalizing tenant {id} with running tasks");
    debug_assert!(
        t.ready.is_empty(),
        "finalizing tenant {id} with ready tasks"
    );
    core.deadlines -= usize::from(t.deadline.is_some());
    let outcome = t.cancel.take().unwrap_or(Outcome::Completed);
    let report = TenantReport {
        tenant: TenantId(id),
        outcome,
        tasks_total: t.n_tasks,
        tasks_completed: t.completed,
        tasks_cancelled: t.n_tasks - t.completed,
        recoveries: t.recoveries,
        store: t.store,
        events: t.events.take(),
    };
    core.finished.insert(id, report);
    inner.done.notify_all();
}

/// Lazily observe expired deadlines; returns whether any tenant expired.
/// Runs at every pick while some active tenant has a deadline, so an
/// expired tenant is cancelled before any further task of it is dispatched.
fn sweep_deadlines(core: &mut Core, inner: &Inner, now: Instant) -> bool {
    let mut expired = false;
    while let Some(id) = core
        .active
        .iter()
        .find(|(_, t)| t.cancel.is_none() && t.deadline.is_some_and(|d| now >= d))
        .map(|(&id, _)| id)
    {
        cancel_tenant(core, inner, id, Outcome::DeadlineExceeded);
        expired = true;
    }
    expired
}

/// Admit pending submissions into freed active slots, oldest first.
fn pump_admissions(core: &mut Core, inner: &Inner) {
    while core.active.len() < inner.cfg.max_active {
        let Some(pend) = core.pending.pop_front() else {
            return;
        };
        admit(core, pend.id, pend.tenant);
    }
}

/// Pick the next task under the fairness policy. Also pumps admissions and
/// sweeps deadlines (both are cheap and must happen even when no task is
/// runnable, or an all-expired service would never drain).
fn pick(core: &mut Core, inner: &Inner, w: usize) -> Option<Picked> {
    // Sweep after pumping, so an admitted tenant that has already expired
    // is cancelled before dispatch; pump again after a sweep, since an
    // expired tenant may have freed its slot.
    loop {
        pump_admissions(core, inner);
        if core.deadlines == 0 || !sweep_deadlines(core, inner, Instant::now()) {
            break;
        }
    }
    debug_assert_eq!(
        core.ready,
        core.active.values().map(|t| t.ready.len()).sum::<usize>()
    );
    if core.active.is_empty() {
        return None;
    }
    // Tuned policy: bound how long one tenant may monopolize the dispatch
    // stream while others wait. The cap shrinks as more tenants have ready
    // work; u32::MAX (tuning off) makes the forced-handoff branch dead.
    let (cap, ready_tenants) = if inner.cfg.tune {
        let ready_tenants = core.active.values().filter(|t| !t.ready.is_empty()).count();
        (core.ctl.credit_cap(ready_tenants), ready_tenants)
    } else {
        (u32::MAX, 0)
    };
    // Checked after the cap, which the controller logs at every pick over
    // a non-empty active set.
    if core.ready == 0 {
        return None;
    }
    // Weighted round-robin: keep serving the cursor tenant while it has
    // credit, otherwise start scanning just past it, wrapping around.
    let cursor = core.rr_cursor;
    let (from, wrap_to) = if core.rr_credit > 0 {
        (Bound::Included(cursor), Bound::Excluded(cursor))
    } else {
        (Bound::Excluded(cursor), Bound::Included(cursor))
    };
    let mut handoff = false;
    let mut chosen = None;
    for (&id, t) in core
        .active
        .range((from, Bound::Unbounded))
        .chain(core.active.range((Bound::Unbounded, wrap_to)))
    {
        if t.ready.is_empty() {
            continue;
        }
        let continuing = id == cursor && core.rr_credit > 0;
        if continuing && core.burst >= cap && ready_tenants > 1 {
            // Forced handoff: bank the unserved credit (below) so the
            // tenant's next turn finishes it (long-run weight ratios are
            // untouched) and let the scan move on to the waiting tenants.
            handoff = true;
            continue;
        }
        chosen = Some((id, continuing));
        break;
    }
    if handoff {
        let t = core
            .active
            .get_mut(&cursor)
            .expect("handed-off tenant is active");
        t.carry = t.carry.saturating_add(core.rr_credit);
        core.rr_credit = 0;
    }
    let (id, continuing) = chosen.expect("ready work implies a pickable tenant");
    let t = core.active.get_mut(&id).expect("chosen tenant is active");
    if !continuing {
        if id != core.rr_cursor {
            core.burst = 0;
        }
        core.rr_cursor = id;
        core.rr_credit = if t.carry > 0 {
            std::mem::take(&mut t.carry)
        } else {
            t.weight.max(1)
        };
    }
    core.rr_credit -= 1;
    core.burst = core.burst.saturating_add(1);
    core.ready -= 1;
    let local = t.ready.pop_front().expect("ready checked non-empty");
    let def = t.bodies[local].take().expect("task dispatched twice");
    let attempt = t.attempts[local];
    let injected = t
        .faults
        .as_ref()
        .is_some_and(|plan| task_crashes(plan, local as u64, attempt, inner.cfg.workers));
    t.running += 1;
    let locality = match t.targets[local] {
        None => Locality::Untracked,
        Some(tw) if tw == w => Locality::Hit,
        Some(_) => Locality::Miss,
    };
    let time = Core::tick(&mut core.clock);
    t.events.emit_task(
        time,
        w,
        EventKind::TaskDispatched {
            stolen: false,
            locality,
        },
        TaskId(local as u32),
    );
    t.events
        .emit_task(time, w, EventKind::TaskStarted, TaskId(local as u32));
    Some(Picked {
        tenant: id,
        local,
        def,
        attempt,
        injected,
        store: Arc::clone(&t.store),
    })
}

/// The tenant-plan crash decision for one attempt: the keyed `panic_p`
/// hash, plus fail-stop of a *virtual* worker — every task placed on
/// `fail_proc` (tenant-local id modulo pool width) crashes once and
/// re-executes elsewhere. Both are pure functions of `(plan, task,
/// attempt)`, independent of interleaving — that is what keeps a faulty
/// tenant's recovered output bit-identical to its solo run.
fn task_crashes(plan: &FaultPlan, task: u64, attempt: u32, workers: usize) -> bool {
    if plan.task_fails(task, attempt) {
        return true;
    }
    plan.fail_proc
        .is_some_and(|p| attempt == 0 && task as usize % workers == p % workers)
}

/// Apply a synchronizer transition for `tenant` and queue newly enabled
/// tasks (unless the tenant is cancelled), recording their locality
/// targets.
fn apply_transition(core: &mut Core, tenant: u32, tr: Transition, w: usize) {
    let Core {
        active,
        clock,
        ready,
        newly,
        ..
    } = core;
    let t = active.get_mut(&tenant).expect("tenant still active");
    let time = Core::tick(clock);
    newly.clear();
    t.sync.apply_traced(tr, newly, &mut t.events, time, w);
    if t.cancel.is_some() {
        return;
    }
    for id in newly.iter() {
        let local = id.index();
        let def = t.bodies[local].as_ref().expect("enabled task has a body");
        t.targets[local] = t.owners.latest_writer(&def.spec);
        t.ready.push_back(local);
    }
    *ready += newly.len();
}

/// Run one picked task outside the core lock, then settle the result.
/// Returns the guard taken to settle, so the worker picks its next task
/// in the same critical section.
fn execute_and_settle(inner: &Inner, w: usize, p: Picked) -> MutexGuard<'_, Core> {
    let Picked {
        tenant,
        local,
        def,
        attempt,
        injected,
        store,
    } = p;
    let id = TaskId(local as u32);
    // The body stays outside the closure (`TaskBody` is `Fn`), so a caught
    // unwind leaves `def` intact for re-execution.
    let result = catch_unwind(AssertUnwindSafe(|| {
        if injected {
            // Simulated crash before the body runs — quiet unwind, no
            // panic-hook noise. Crashing before any body effect is what
            // makes the re-execution exact.
            resume_unwind(Box::new(InjectedFailure));
        }
        // Mid-task releases flush eagerly (a buffered release could
        // deadlock a pipeline whose consumer is the only runnable task),
        // and wake a parked worker for what they enable: this worker is
        // still busy with the body.
        let hook = |obj: ObjectId| {
            let mut core = lock(&inner.core);
            apply_transition(&mut core, tenant, Transition::Release(id, obj), w);
            let wake = core.should_wake();
            drop(core);
            if wake {
                inner.work.notify_one();
            }
        };
        let ctx = TaskCtx::with_release_hook(&store, id, def.label, &def.spec, &hook);
        (def.body)(&ctx);
    }));

    let mut core = lock(&inner.core);
    match result {
        Ok(()) => {
            {
                let t = core.active.get_mut(&tenant).expect("tenant still active");
                // Publish write ownership before successors are enabled, so
                // the locality heuristic routes them toward this worker.
                for o in def.spec.written_objects() {
                    t.owners.record(o, w);
                }
            }
            apply_transition(&mut core, tenant, Transition::Complete(id), w);
            let t = core.active.get_mut(&tenant).expect("tenant still active");
            t.running -= 1;
            t.live -= 1;
            t.completed += 1;
            // Finalize on the last task, or — for a cancelled tenant —
            // once the last in-flight body has drained.
            if t.live == 0 || (t.cancel.is_some() && t.running == 0) {
                finalize_tenant(&mut core, inner, tenant);
            }
        }
        Err(_) if injected && attempt + 1 < MAX_TASK_ATTEMPTS => {
            // Injected-crash recovery: re-roll the fault hash with the
            // bumped attempt and re-queue; the body never ran, so the
            // retry is exact.
            let core = &mut *core;
            let t = core.active.get_mut(&tenant).expect("tenant still active");
            t.attempts[local] = attempt + 1;
            t.recoveries += 1;
            t.running -= 1;
            let time = Core::tick(&mut core.clock);
            t.events.emit(time, w, EventKind::WorkerFailed);
            let time = Core::tick(&mut core.clock);
            t.events.emit_task(time, w, EventKind::TaskReExecuted, id);
            t.bodies[local] = Some(def);
            if t.cancel.is_none() {
                t.ready.push_back(local);
                core.ready += 1;
            } else if t.running == 0 {
                finalize_tenant(core, inner, tenant);
            }
        }
        Err(p) => {
            // Genuine tenant failure: contain it. Only this tenant is
            // cancelled; the pool and every other tenant keep running.
            let msg = panic_message(&*p, injected);
            let core = &mut *core;
            let t = core.active.get_mut(&tenant).expect("tenant still active");
            t.running -= 1;
            let time = Core::tick(&mut core.clock);
            t.events.emit(time, w, EventKind::WorkerFailed);
            cancel_tenant(core, inner, tenant, Outcome::Failed(msg));
        }
    }
    core
}

fn panic_message(p: &(dyn std::any::Any + Send), injected: bool) -> String {
    if injected {
        return format!("injected failure persisted for {MAX_TASK_ATTEMPTS} attempts");
    }
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "task body panicked".to_string()
    }
}

/// One lock acquisition per task: settle the last task and pick the next
/// in one critical section, then run the body unlocked. A worker that
/// takes a task while more ready work remains wakes one parked peer, which
/// repeats the rule when it picks — so wake-ups chain exactly as far as
/// there is work (DESIGN.md §16).
fn worker_loop(inner: &Inner, w: usize) {
    let mut core = lock(&inner.core);
    loop {
        match pick(&mut core, inner, w) {
            Some(p) => {
                let wake = core.should_wake();
                drop(core);
                if wake {
                    inner.work.notify_one();
                }
                core = execute_and_settle(inner, w, p);
            }
            None => {
                if core.shutdown && core.active.is_empty() && core.pending.is_empty() {
                    inner.work.notify_all();
                    return;
                }
                core.idle += 1;
                // Expired-but-undrained deadlines need a periodic observer
                // even when no completion or submission will wake us.
                core = if core.deadlines > 0 {
                    inner
                        .work
                        .wait_timeout(core, Duration::from_millis(5))
                        .unwrap_or_else(|e| e.into_inner())
                        .0
                } else {
                    inner.work.wait(core).unwrap_or_else(|e| e.into_inner())
                };
                core.idle -= 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jade_core::{check_conservation_per_tenant, check_lifecycle_per_tenant, TaskBuilder};
    use std::collections::HashSet;
    use std::sync::mpsc::{self, RecvTimeoutError};
    use std::sync::Barrier;

    /// A chain program: `n` tasks serially incrementing one counter; task i
    /// also records its index, so the final value pins execution order.
    fn chain_program(n: usize) -> (Program, Handle<u64>) {
        let mut prog = Program::new();
        let h = prog.create("acc", 8, 0u64);
        for i in 0..n {
            prog.submit(TaskBuilder::new("chain").rd_wr(h).body(move |ctx| {
                let mut v = ctx.wr(h);
                *v = v.wrapping_mul(31).wrapping_add(i as u64 + 1);
            }));
        }
        (prog, h)
    }

    fn chain_expected(n: usize) -> u64 {
        let mut v = 0u64;
        for i in 0..n {
            v = v.wrapping_mul(31).wrapping_add(i as u64 + 1);
        }
        v
    }

    /// `n` independent tasks each bumping their own slot.
    fn wide_program(n: usize) -> (Program, Handle<Vec<u64>>) {
        let mut prog = Program::new();
        let hs: Vec<Handle<u64>> = (0..n)
            .map(|i| prog.create(format!("s{i}"), 8, 0u64))
            .collect();
        let sum = prog.create("sum", 8, Vec::<u64>::new());
        for (i, &h) in hs.iter().enumerate() {
            prog.submit(TaskBuilder::new("wide").rd_wr(h).body(move |ctx| {
                *ctx.wr(h) = i as u64 + 1;
            }));
        }
        (prog, sum)
    }

    /// Run `f` on its own thread under a 10 s watchdog, so a lost wake-up
    /// fails the test by name instead of hanging the suite.
    fn within_watchdog(name: &str, f: impl FnOnce() + Send + 'static) {
        let (tx, rx) = mpsc::channel();
        let h = std::thread::spawn(move || {
            f();
            let _ = tx.send(());
        });
        match rx.recv_timeout(Duration::from_secs(10)) {
            Ok(()) => h.join().expect("watched test finished"),
            Err(RecvTimeoutError::Timeout) => {
                panic!("{name}: no progress within 10 s (lost wake-up)")
            }
            Err(RecvTimeoutError::Disconnected) => {
                resume_unwind(h.join().expect_err("watched test dropped its sender"))
            }
        }
    }

    /// Spin until at least `n` workers are parked on the work condvar.
    fn until_parked(inner: &Inner, n: usize) {
        while lock(&inner.core).idle < n {
            std::thread::yield_now();
        }
    }

    /// Two readers enabled by one completion meet on a barrier: the
    /// settling worker runs one and must wake the parked worker for the
    /// other, or both wait forever.
    #[test]
    fn settle_wakes_a_parked_worker_for_remaining_ready_work() {
        within_watchdog("barrier readers", || {
            let svc = JadeService::new(ServiceConfig::new(2));
            let inner = Arc::clone(&svc.inner);
            let barrier = Arc::new(Barrier::new(2));
            let mut prog = Program::new();
            let x = prog.create("x", 8, 0u64);
            let lanes = [prog.create("l0", 8, 0u64), prog.create("l1", 8, 0u64)];
            prog.submit(TaskBuilder::new("writer").rd_wr(x).body(move |ctx| {
                // Complete only once the other worker is parked, so the
                // settle's wake-up is the only way to reach it.
                until_parked(&inner, 1);
                *ctx.wr(x) = 7;
            }));
            for lane in lanes {
                let b = Arc::clone(&barrier);
                prog.submit(
                    TaskBuilder::new("reader")
                        .rd(x)
                        .rd_wr(lane)
                        .body(move |ctx| {
                            b.wait();
                            *ctx.wr(lane) = *ctx.rd(x);
                        }),
                );
            }
            let id = svc.submit(prog, TenantOptions::default()).unwrap();
            let r = svc.wait(id);
            assert_eq!(r.outcome, Outcome::Completed);
            assert_eq!(lanes.map(|l| *r.store.read(l)), [7, 7]);
        });
    }

    #[test]
    fn submission_wakes_a_fully_parked_pool() {
        within_watchdog("submit to parked pool", || {
            let svc = JadeService::new(ServiceConfig::new(2));
            until_parked(&svc.inner, 2);
            let (prog, h) = chain_program(10);
            let id = svc.submit(prog, TenantOptions::default()).unwrap();
            assert_eq!(*svc.wait(id).store.read(h), chain_expected(10));
        });
    }

    #[test]
    fn shutdown_joins_parked_workers() {
        within_watchdog("shutdown with parked workers", || {
            let svc = JadeService::new(ServiceConfig::new(3));
            let id = svc
                .submit(chain_program(5).0, TenantOptions::default())
                .unwrap();
            assert_eq!(svc.wait(id).outcome, Outcome::Completed);
            until_parked(&svc.inner, 3);
            svc.shutdown();
        });
    }

    /// The producer releases its object only after the other worker has
    /// parked, then blocks until the consumer ran: the release hook's
    /// wake-up is the only way the consumer gets a worker.
    #[test]
    fn mid_task_release_wakes_a_parked_worker() {
        within_watchdog("release wakes parked worker", || {
            let svc = JadeService::new(ServiceConfig::new(2));
            let inner = Arc::clone(&svc.inner);
            let mut prog = Program::new();
            let a = prog.create("a", 8, 0u64);
            let b = prog.create("b", 8, 0u64);
            let flag = Arc::new((Mutex::new(false), Condvar::new()));
            let f1 = Arc::clone(&flag);
            prog.submit(TaskBuilder::new("producer").rd_wr(a).body(move |ctx| {
                *ctx.wr(a) = 42;
                until_parked(&inner, 1);
                ctx.release(a);
                let (m, cv) = &*f1;
                let mut ran = lock(m);
                while !*ran {
                    ran = cv.wait(ran).unwrap_or_else(|e| e.into_inner());
                }
            }));
            let f2 = Arc::clone(&flag);
            prog.submit(
                TaskBuilder::new("consumer")
                    .rd(a)
                    .rd_wr(b)
                    .body(move |ctx| {
                        *ctx.wr(b) = *ctx.rd(a) + 1;
                        let (m, cv) = &*f2;
                        *lock(m) = true;
                        cv.notify_all();
                    }),
            );
            let id = svc.submit(prog, TenantOptions::default()).unwrap();
            let r = svc.wait(id);
            assert_eq!(r.outcome, Outcome::Completed);
            assert_eq!(*r.store.read(b), 43);
        });
    }

    /// Registration runs off the lock with stamps from 0 and is rebased at
    /// admission. Tenants admitted from the pending queue after others ran
    /// must get registration stamps contiguous from the service clock at
    /// that moment (one past the previous tenant's last event, on one
    /// worker), and every tick of the global clock belongs to exactly one
    /// tenant.
    #[test]
    fn pending_admission_rebases_registration_onto_the_service_clock() {
        let cfg = ServiceConfig {
            workers: 1,
            max_active: 1,
            max_pending: 4,
            shed: ShedPolicy::RejectNew,
            tune: false,
        };
        let svc = JadeService::new(cfg);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let (mut first, _) = chain_program(6);
        let hb = first.create("b", 8, 0u64);
        let g = Arc::clone(&gate);
        first.submit(TaskBuilder::new("block").rd_wr(hb).body(move |_| {
            let (m, cv) = &*g;
            let mut open = lock(m);
            while !*open {
                open = cv.wait(open).unwrap_or_else(|e| e.into_inner());
            }
        }));
        let mut ids = vec![svc.submit(first, TenantOptions::default()).unwrap()];
        ids.push(
            svc.submit(wide_program(5).0, TenantOptions::default())
                .unwrap(),
        );
        ids.push(
            svc.submit(chain_program(4).0, TenantOptions::default())
                .unwrap(),
        );
        assert_eq!(svc.pending_len(), 2, "later tenants must queue");
        let (m, cv) = &*gate;
        *lock(m) = true;
        cv.notify_all();
        let reports: Vec<TenantReport> = ids.iter().map(|&id| svc.wait(id)).collect();
        let mut tagged = Vec::new();
        for pair in reports.windows(2) {
            let (prev, next) = (&pair[0], &pair[1]);
            assert_eq!(next.outcome, Outcome::Completed);
            let admitted_at = prev.events.iter().map(|e| e.time_ps).max().unwrap() + 1;
            let created: Vec<u64> = next
                .events
                .iter()
                .filter(|e| e.kind == EventKind::TaskCreated)
                .map(|e| e.time_ps)
                .collect();
            let want: Vec<u64> = (admitted_at..admitted_at + next.tasks_total as u64).collect();
            assert_eq!(created, want, "tenant {} registration stamps", next.tenant);
            let first_dispatch = next
                .events
                .iter()
                .filter(|e| matches!(e.kind, EventKind::TaskDispatched { .. }))
                .map(|e| e.time_ps)
                .min();
            assert_eq!(first_dispatch, Some(admitted_at + next.tasks_total as u64));
        }
        let mut keys = HashSet::new();
        let mut owner: HashMap<u64, TenantId> = HashMap::new();
        for r in &reports {
            for te in r.tagged_events() {
                let e = &te.event;
                assert!(
                    keys.insert((te.tenant, e.time_ps, format!("{:?}", e.kind), e.task)),
                    "duplicate event key in tenant {}: {e:?}",
                    te.tenant
                );
                let first = *owner.entry(e.time_ps).or_insert(te.tenant);
                assert_eq!(first, te.tenant, "tick {} shared by two tenants", e.time_ps);
                tagged.push(te);
            }
        }
        let ticks = owner.len() as u64;
        assert!(
            (0..ticks).all(|t| owner.contains_key(&t)),
            "service clock has gaps"
        );
        check_lifecycle_per_tenant(&tagged).expect("per-tenant lifecycle");
        check_conservation_per_tenant(&tagged, 1).expect("per-tenant conservation");
    }

    #[test]
    fn single_tenant_completes_with_clean_report() {
        let svc = JadeService::new(ServiceConfig::new(4));
        let (prog, h) = chain_program(20);
        let id = svc.submit(prog, TenantOptions::default()).unwrap();
        let r = svc.wait(id);
        assert_eq!(r.outcome, Outcome::Completed);
        assert_eq!(r.tasks_total, 20);
        assert_eq!(r.tasks_completed, 20);
        assert_eq!(r.tasks_cancelled, 0);
        assert_eq!(*r.store.read(h), chain_expected(20));
        check_lifecycle_per_tenant(&r.tagged_events()).expect("lifecycle");
        let m = r.metrics(4);
        assert_eq!(m.tasks_created, 20);
        assert_eq!(m.tasks_completed, 20);
        assert_eq!(m.tasks_started, 20);
    }

    #[test]
    fn injected_crashes_recover_bit_identically() {
        let plan = FaultPlan {
            panic_p: 0.4,
            seed: 7,
            ..FaultPlan::none()
        };
        let svc = JadeService::new(ServiceConfig::new(3));
        let (clean, hc) = chain_program(30);
        let (faulty, hf) = chain_program(30);
        let a = svc.submit(clean, TenantOptions::default()).unwrap();
        let b = svc
            .submit(faulty, TenantOptions::default().with_faults(plan))
            .unwrap();
        let ra = svc.wait(a);
        let rb = svc.wait(b);
        assert_eq!(ra.outcome, Outcome::Completed);
        assert_eq!(rb.outcome, Outcome::Completed);
        assert!(
            rb.recoveries > 0,
            "plan with p=0.4 over 30 tasks must crash"
        );
        assert_eq!(*ra.store.read(hc), chain_expected(30));
        assert_eq!(*rb.store.read(hf), chain_expected(30));
        let m = rb.metrics(3);
        assert_eq!(m.tasks_reexecuted as usize, rb.recoveries);
        assert_eq!(m.tasks_started, 30 + rb.recoveries);
        check_lifecycle_per_tenant(&rb.tagged_events()).expect("lifecycle under faults");
    }

    #[test]
    fn fail_stop_plan_recovers() {
        let plan = FaultPlan {
            fail_proc: Some(1),
            ..FaultPlan::none()
        };
        let svc = JadeService::new(ServiceConfig::new(2));
        let (prog, h) = chain_program(10);
        let id = svc
            .submit(prog, TenantOptions::default().with_faults(plan))
            .unwrap();
        let r = svc.wait(id);
        assert_eq!(r.outcome, Outcome::Completed);
        // Tasks 1, 3, 5, 7, 9 sit on virtual worker 1 and crash once each.
        assert_eq!(r.recoveries, 5);
        assert_eq!(*r.store.read(h), chain_expected(10));
    }

    #[test]
    fn genuine_panic_fails_only_its_tenant() {
        let svc = JadeService::new(ServiceConfig::new(2));
        let mut bad = Program::new();
        let hb = bad.create("b", 8, 0u64);
        bad.submit(TaskBuilder::new("ok").rd_wr(hb).body(move |ctx| {
            *ctx.wr(hb) = 1;
        }));
        bad.submit(
            TaskBuilder::new("boom")
                .rd_wr(hb)
                .body(|_| panic!("tenant bug")),
        );
        bad.submit(TaskBuilder::new("never").rd_wr(hb).body(move |ctx| {
            *ctx.wr(hb) = 99;
        }));
        let (clean, hc) = chain_program(25);
        let b = svc.submit(bad, TenantOptions::default()).unwrap();
        let c = svc.submit(clean, TenantOptions::default()).unwrap();
        let rb = svc.wait(b);
        let rc = svc.wait(c);
        match &rb.outcome {
            Outcome::Failed(msg) => assert!(msg.contains("tenant bug"), "{msg}"),
            other => panic!("expected Failed, got {other:?}"),
        }
        assert_eq!(rb.tasks_completed, 1);
        assert_eq!(rb.tasks_cancelled, 2);
        assert_eq!(*rb.store.read(hb), 1, "cancelled task must not run");
        // The clean tenant is untouched and the pool is still alive.
        assert_eq!(rc.outcome, Outcome::Completed);
        assert_eq!(*rc.store.read(hc), chain_expected(25));
        let (after, ha) = chain_program(5);
        let a = svc.submit(after, TenantOptions::default()).unwrap();
        let r = svc.wait(a);
        assert_eq!(r.outcome, Outcome::Completed);
        assert_eq!(*r.store.read(ha), chain_expected(5));
    }

    #[test]
    fn zero_deadline_cancels_before_any_dispatch() {
        let svc = JadeService::new(ServiceConfig::new(2));
        let (prog, h) = chain_program(50);
        let id = svc
            .submit(prog, TenantOptions::default().with_deadline(Duration::ZERO))
            .unwrap();
        let r = svc.wait(id);
        assert_eq!(r.outcome, Outcome::DeadlineExceeded);
        assert_eq!(r.tasks_completed, 0);
        assert_eq!(r.tasks_cancelled, 50);
        assert_eq!(*r.store.read(h), 0);
        // Partial metrics still parse: all 50 created, none started.
        let m = r.metrics(2);
        assert_eq!(m.tasks_created, 50);
        assert_eq!(m.tasks_started, 0);
        // The pool is not wedged.
        let (next, hn) = chain_program(8);
        let n = svc.submit(next, TenantOptions::default()).unwrap();
        assert_eq!(*svc.wait(n).store.read(hn), chain_expected(8));
    }

    #[test]
    fn midrun_deadline_drains_cleanly() {
        let svc = JadeService::new(ServiceConfig::new(2));
        let mut prog = Program::new();
        let h = prog.create("acc", 8, 0u64);
        for _ in 0..200 {
            prog.submit(TaskBuilder::new("slow").rd_wr(h).body(move |ctx| {
                std::thread::sleep(Duration::from_millis(2));
                *ctx.wr(h) += 1;
            }));
        }
        let id = svc
            .submit(
                prog,
                TenantOptions::default().with_deadline(Duration::from_millis(30)),
            )
            .unwrap();
        let r = svc.wait(id);
        assert_eq!(r.outcome, Outcome::DeadlineExceeded);
        assert!(r.tasks_completed < 200, "deadline should cut the chain");
        assert_eq!(*r.store.read(h), r.tasks_completed as u64);
        check_lifecycle_per_tenant(&Vec::new()).unwrap();
    }

    #[test]
    fn overload_rejects_new_without_panicking() {
        let cfg = ServiceConfig {
            workers: 1,
            max_active: 1,
            max_pending: 2,
            shed: ShedPolicy::RejectNew,
            tune: false,
        };
        let svc = JadeService::new(cfg);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let mut blocker = Program::new();
        let hb = blocker.create("b", 8, 0u64);
        let g = Arc::clone(&gate);
        blocker.submit(TaskBuilder::new("block").rd_wr(hb).body(move |_| {
            let (m, cv) = &*g;
            let mut open = lock(m);
            while !*open {
                open = cv.wait(open).unwrap_or_else(|e| e.into_inner());
            }
        }));
        let b = svc.submit(blocker, TenantOptions::default()).unwrap();
        // Wait until the blocker actually occupies the only active slot.
        while svc.active_len() == 0 {
            std::thread::yield_now();
        }
        let q1 = svc
            .submit(chain_program(3).0, TenantOptions::default())
            .unwrap();
        let q2 = svc
            .submit(chain_program(3).0, TenantOptions::default())
            .unwrap();
        let err = svc
            .submit(chain_program(3).0, TenantOptions::default())
            .unwrap_err();
        assert_eq!(
            err,
            SubmitError::Overloaded {
                pending: 2,
                limit: 2
            }
        );
        assert_eq!(svc.pending_len(), 2);
        let (m, cv) = &*gate;
        *lock(m) = true;
        cv.notify_all();
        for id in [b, q1, q2] {
            assert_eq!(svc.wait(id).outcome, Outcome::Completed);
        }
    }

    #[test]
    fn drop_oldest_sheds_the_oldest_pending_dag() {
        let cfg = ServiceConfig {
            workers: 1,
            max_active: 1,
            max_pending: 1,
            shed: ShedPolicy::DropOldest,
            tune: false,
        };
        let svc = JadeService::new(cfg);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let mut blocker = Program::new();
        let hb = blocker.create("b", 8, 0u64);
        let g = Arc::clone(&gate);
        blocker.submit(TaskBuilder::new("block").rd_wr(hb).body(move |_| {
            let (m, cv) = &*g;
            let mut open = lock(m);
            while !*open {
                open = cv.wait(open).unwrap_or_else(|e| e.into_inner());
            }
        }));
        let b = svc.submit(blocker, TenantOptions::default()).unwrap();
        while svc.active_len() == 0 {
            std::thread::yield_now();
        }
        let old = svc
            .submit(chain_program(3).0, TenantOptions::default())
            .unwrap();
        let new = svc
            .submit(chain_program(4).0, TenantOptions::default())
            .unwrap();
        let shed = svc.wait(old);
        assert_eq!(shed.outcome, Outcome::Shed);
        assert_eq!(shed.tasks_cancelled, 3);
        let (m, cv) = &*gate;
        *lock(m) = true;
        cv.notify_all();
        assert_eq!(svc.wait(b).outcome, Outcome::Completed);
        assert_eq!(svc.wait(new).outcome, Outcome::Completed);
    }

    /// The starvation bound: with one worker (so dispatch order is the
    /// fairness policy and nothing else), a tenant with continuously ready
    /// work is served again within Σ other tenants' weights dispatches.
    #[test]
    fn round_robin_bounds_starvation() {
        let cfg = ServiceConfig {
            workers: 1,
            max_active: 8,
            max_pending: 8,
            shed: ShedPolicy::RejectNew,
            tune: false,
        };
        let svc = JadeService::new(cfg);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        // Hold the single worker hostage until all tenants are registered,
        // so every tenant's queue is continuously non-empty during the
        // measured region.
        let mut blocker = Program::new();
        let hb = blocker.create("b", 8, 0u64);
        let g = Arc::clone(&gate);
        blocker.submit(TaskBuilder::new("block").rd_wr(hb).body(move |_| {
            let (m, cv) = &*g;
            let mut open = lock(m);
            while !*open {
                open = cv.wait(open).unwrap_or_else(|e| e.into_inner());
            }
        }));
        let b = svc.submit(blocker, TenantOptions::default()).unwrap();
        while svc.active_len() == 0 {
            std::thread::yield_now();
        }
        const TENANTS: usize = 3;
        const TASKS: usize = 12;
        let ids: Vec<TenantId> = (0..TENANTS)
            .map(|_| {
                svc.submit(wide_program(TASKS).0, TenantOptions::default())
                    .unwrap()
            })
            .collect();
        let (m, cv) = &*gate;
        *lock(m) = true;
        cv.notify_all();
        let _ = svc.wait(b);
        let mut tagged: Vec<TaggedEvent> = Vec::new();
        for &id in &ids {
            tagged.extend(svc.wait(id).tagged_events());
        }
        // Merge by the service-global clock and extract the dispatch order.
        tagged.sort_by_key(|te| te.event.time_ps);
        let dispatches: Vec<TenantId> = tagged
            .iter()
            .filter(|te| matches!(te.event.kind, EventKind::TaskDispatched { .. }))
            .map(|te| te.tenant)
            .collect();
        assert_eq!(dispatches.len(), TENANTS * TASKS);
        for &id in &ids {
            let picks: Vec<usize> = dispatches
                .iter()
                .enumerate()
                .filter(|(_, &t)| t == id)
                .map(|(i, _)| i)
                .collect();
            assert_eq!(picks.len(), TASKS);
            for pair in picks.windows(2) {
                let gap = pair[1] - pair[0];
                assert!(
                    gap <= TENANTS,
                    "tenant {id} starved: gap {gap} > {TENANTS} in {dispatches:?}"
                );
            }
        }
    }

    /// Weighted fairness: a weight-3 tenant gets up to three consecutive
    /// dispatches per turn, and the weight-1 tenant still gets served
    /// within the weighted bound.
    #[test]
    fn weighted_round_robin_honors_weights() {
        let cfg = ServiceConfig {
            workers: 1,
            max_active: 4,
            max_pending: 4,
            shed: ShedPolicy::RejectNew,
            tune: false,
        };
        let svc = JadeService::new(cfg);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let mut blocker = Program::new();
        let hb = blocker.create("b", 8, 0u64);
        let g = Arc::clone(&gate);
        blocker.submit(TaskBuilder::new("block").rd_wr(hb).body(move |_| {
            let (m, cv) = &*g;
            let mut open = lock(m);
            while !*open {
                open = cv.wait(open).unwrap_or_else(|e| e.into_inner());
            }
        }));
        let b = svc.submit(blocker, TenantOptions::default()).unwrap();
        while svc.active_len() == 0 {
            std::thread::yield_now();
        }
        let heavy = svc
            .submit(wide_program(9).0, TenantOptions::default().with_weight(3))
            .unwrap();
        let light = svc
            .submit(wide_program(9).0, TenantOptions::default().with_weight(1))
            .unwrap();
        let (m, cv) = &*gate;
        *lock(m) = true;
        cv.notify_all();
        let _ = svc.wait(b);
        let mut tagged = svc.wait(heavy).tagged_events();
        tagged.extend(svc.wait(light).tagged_events());
        tagged.sort_by_key(|te| te.event.time_ps);
        let dispatches: Vec<TenantId> = tagged
            .iter()
            .filter(|te| matches!(te.event.kind, EventKind::TaskDispatched { .. }))
            .map(|te| te.tenant)
            .collect();
        // While both tenants have work the pattern is HHHL repeating; the
        // light tenant's gap is bounded by heavy's weight + 1.
        let light_picks: Vec<usize> = dispatches
            .iter()
            .enumerate()
            .filter(|(_, &t)| t == light)
            .map(|(i, _)| i)
            .collect();
        for pair in light_picks.windows(2) {
            assert!(
                pair[1] - pair[0] <= 4,
                "light tenant starved: {dispatches:?}"
            );
        }
        // Heavy runs in bursts: some gap between consecutive heavy picks
        // must be 1 (consecutive dispatches of the same tenant).
        let heavy_picks: Vec<usize> = dispatches
            .iter()
            .enumerate()
            .filter(|(_, &t)| t == heavy)
            .map(|(i, _)| i)
            .collect();
        assert!(
            heavy_picks.windows(2).any(|p| p[1] - p[0] == 1),
            "weight-3 tenant never got consecutive dispatches: {dispatches:?}"
        );
    }

    /// Heavy-skew starvation bound (tuned policy): a weight-8 tenant with a
    /// huge DAG gets its turn cut at the controller's credit cap while the
    /// weight-1 tenant has ready work, and the banked carry preserves the
    /// long-run weight ratio.
    #[test]
    fn tuned_credit_cap_bounds_heavy_tenant_bursts() {
        let cfg = ServiceConfig {
            workers: 1,
            max_active: 4,
            max_pending: 4,
            shed: ShedPolicy::RejectNew,
            tune: true,
        };
        let svc = JadeService::new(cfg);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let mut blocker = Program::new();
        let hb = blocker.create("b", 8, 0u64);
        let g = Arc::clone(&gate);
        blocker.submit(TaskBuilder::new("block").rd_wr(hb).body(move |_| {
            let (m, cv) = &*g;
            let mut open = lock(m);
            while !*open {
                open = cv.wait(open).unwrap_or_else(|e| e.into_inner());
            }
        }));
        let b = svc.submit(blocker, TenantOptions::default()).unwrap();
        while svc.active_len() == 0 {
            std::thread::yield_now();
        }
        let heavy = svc
            .submit(wide_program(48).0, TenantOptions::default().with_weight(8))
            .unwrap();
        let light = svc
            .submit(wide_program(12).0, TenantOptions::default().with_weight(1))
            .unwrap();
        let (m, cv) = &*gate;
        *lock(m) = true;
        cv.notify_all();
        let _ = svc.wait(b);
        let rh = svc.wait(heavy);
        let rl = svc.wait(light);
        assert_eq!(rh.outcome, Outcome::Completed);
        assert_eq!(rl.outcome, Outcome::Completed);
        let mut tagged = rh.tagged_events();
        tagged.extend(rl.tagged_events());
        tagged.sort_by_key(|te| te.event.time_ps);
        let dispatches: Vec<TenantId> = tagged
            .iter()
            .filter(|te| matches!(te.event.kind, EventKind::TaskDispatched { .. }))
            .map(|te| te.tenant)
            .collect();
        // Between two light dispatches both tenants are continuously ready,
        // so the cap (CREDIT_CAP_MAX / 2 ready tenants = 4) bounds every
        // heavy stretch — even though heavy's weight is 8.
        let light_picks: Vec<usize> = dispatches
            .iter()
            .enumerate()
            .filter(|(_, &t)| t == light)
            .map(|(i, _)| i)
            .collect();
        let cap = (jade_core::tune::CREDIT_CAP_MAX / 2) as usize;
        for pair in light_picks.windows(2) {
            let gap = pair[1] - pair[0];
            assert!(
                gap <= cap + 1,
                "light tenant starved: gap {gap} > {} in {dispatches:?}",
                cap + 1
            );
        }
        let log = svc.tune_log();
        assert!(!log.decisions.is_empty(), "controller took no decisions");
        log.check_ranges().unwrap();
    }

    #[test]
    fn submit_validates_inputs() {
        let svc = JadeService::new(ServiceConfig::new(1));
        assert_eq!(
            svc.submit(Program::new(), TenantOptions::default()),
            Err(SubmitError::EmptyProgram)
        );
        let bad_plan = FaultPlan {
            panic_p: 1.5,
            ..FaultPlan::none()
        };
        let err = svc
            .submit(
                chain_program(1).0,
                TenantOptions::default().with_faults(bad_plan),
            )
            .unwrap_err();
        assert!(matches!(err, SubmitError::InvalidFaultPlan(_)), "{err:?}");
    }

    #[test]
    fn per_tenant_metrics_split_across_concurrent_tenants() {
        let svc = JadeService::new(ServiceConfig::new(4));
        let ids: Vec<TenantId> = (0..6)
            .map(|i| {
                svc.submit(chain_program(5 + i).0, TenantOptions::default())
                    .unwrap()
            })
            .collect();
        let mut tagged = Vec::new();
        for (i, &id) in ids.iter().enumerate() {
            let r = svc.wait(id);
            assert_eq!(r.outcome, Outcome::Completed);
            assert_eq!(r.tasks_completed, 5 + i);
            tagged.extend(r.tagged_events());
        }
        check_lifecycle_per_tenant(&tagged).expect("per-tenant lifecycle");
        let per = Metrics::per_tenant(&tagged, 4);
        assert_eq!(per.len(), 6);
        let mut seen: Vec<(TenantId, usize)> =
            per.iter().map(|(t, m)| (*t, m.tasks_completed)).collect();
        seen.sort();
        for (i, &(t, done)) in seen.iter().enumerate() {
            assert_eq!(t, ids[i]);
            assert_eq!(done, 5 + i);
        }
    }

    #[test]
    fn release_hook_pipelines_within_a_tenant() {
        let svc = JadeService::new(ServiceConfig::new(2));
        let mut prog = Program::new();
        let a = prog.create("a", 8, 0u64);
        let b = prog.create("b", 8, 0u64);
        let flag = Arc::new((Mutex::new(false), Condvar::new()));
        let f1 = Arc::clone(&flag);
        // Producer: writes `a`, releases it mid-task, then blocks until the
        // consumer (which needs `a`) has run — only an eager release flush
        // lets the consumer start while the producer still executes.
        prog.submit(TaskBuilder::new("producer").rd_wr(a).body(move |ctx| {
            *ctx.wr(a) = 42;
            drop(ctx.wr(a));
            ctx.release(a);
            let (m, cv) = &*f1;
            let mut ran = lock(m);
            while !*ran {
                ran = cv.wait(ran).unwrap_or_else(|e| e.into_inner());
            }
        }));
        let f2 = Arc::clone(&flag);
        prog.submit(
            TaskBuilder::new("consumer")
                .rd(a)
                .rd_wr(b)
                .body(move |ctx| {
                    *ctx.wr(b) = *ctx.rd(a) + 1;
                    let (m, cv) = &*f2;
                    *lock(m) = true;
                    cv.notify_all();
                }),
        );
        let id = svc.submit(prog, TenantOptions::default()).unwrap();
        let r = svc.wait(id);
        assert_eq!(r.outcome, Outcome::Completed);
        assert_eq!(*r.store.read(b), 43);
        let m = r.metrics(2);
        assert_eq!(m.releases, 1);
    }

    #[test]
    fn shutdown_drains_admitted_tenants() {
        let svc = JadeService::new(ServiceConfig::new(2));
        let (prog, h) = chain_program(40);
        let id = svc.submit(prog, TenantOptions::default()).unwrap();
        // Shut down immediately: the admitted tenant must still drain.
        let inner = Arc::clone(&svc.inner);
        svc.shutdown();
        let core = lock(&inner.core);
        let r = core.finished.get(&id.0).expect("tenant drained");
        assert_eq!(r.outcome, Outcome::Completed);
        assert_eq!(*r.store.read(h), chain_expected(40));
    }
}
