//! The counting-allocator harness and the zero-allocation steady-state
//! gate.
//!
//! This test binary installs a counting `#[global_allocator]` shim (the
//! same ~12 lines as the `repro` binary — it cannot live in a library:
//! `jade-bench` is `#![forbid(unsafe_code)]`, and Rust allows exactly one
//! global allocator per binary). Three things are covered:
//!
//! 1. the counter actually observes a deliberate allocation (the harness
//!    is not vacuously "passing" a dead counter);
//! 2. at equilibrium, the sharded scheduler's dispatch → execute →
//!    complete → retire cycle performs **zero** heap allocations per task
//!    on the SchedStress shape, for both deque implementations — measured
//!    differentially (a 2N-task batch must allocate exactly as much as an
//!    N-task batch, so per-batch fixed costs like thread spawns cancel);
//! 3. the multi-tenant service's pick → execute → settle cycle allocates
//!    (almost) nothing per task: a long chain tenant through a warm
//!    `JadeService` stays under 0.05 allocations per executed task;
//! 4. when no counting shim feeds the counter (another global allocator
//!    is active), the probe reports inactive and the assertions skip
//!    cleanly — the probe side of that contract is exercised in
//!    `jade-bench`'s in-crate tests, which install no shim.

use jade_core::{JadeRuntime, TaskBuilder};
use jade_threads::{
    DequeImpl, JadeService, Program, SchedMode, ServiceConfig, TenantOptions, ThreadRuntime,
};
use std::sync::Mutex;

struct CountingAlloc;

// SAFETY: pure delegation to the system allocator — same layout
// contracts, same returned pointers; the only addition is a relaxed
// counter increment on the allocating paths.
unsafe impl std::alloc::GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        jade_bench::alloc::note_alloc();
        std::alloc::GlobalAlloc::alloc(&std::alloc::System, layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        std::alloc::GlobalAlloc::dealloc(&std::alloc::System, ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new_size: usize) -> *mut u8 {
        jade_bench::alloc::note_alloc();
        std::alloc::GlobalAlloc::realloc(&std::alloc::System, ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Serializes the allocation-sensitive tests: a concurrent test's
/// allocations would pollute another's measurement window.
static SERIAL: Mutex<()> = Mutex::new(());

/// Clean-skip guard: with a different global allocator active nothing
/// feeds the counter, and alloc assertions would pass vacuously — skip
/// loudly instead.
fn counting_inactive() -> bool {
    if jade_bench::alloc::counting_active() {
        return false;
    }
    eprintln!("skipping: no counting global allocator is active in this binary");
    true
}

#[test]
fn counter_observes_a_deliberate_allocation() {
    let _guard = SERIAL.lock().unwrap();
    if counting_inactive() {
        return;
    }
    let (n, v) = jade_bench::alloc::allocs_during(|| std::hint::black_box(vec![0u8; 4096]));
    assert!(n >= 1, "a 4 KiB Vec must hit the allocator (saw {n})");
    drop(v);
}

#[test]
fn probe_reports_active_with_the_shim_installed() {
    let _guard = SERIAL.lock().unwrap();
    assert!(
        jade_bench::alloc::counting_active(),
        "this binary installs the shim; the probe must see it"
    );
}

const STRESS_OBJECTS: usize = 16;

/// One differential measurement: allocations during `finish()` for a
/// batch of `2n` minus a batch of `n` tasks, after warming the runtime's
/// arena and synchronizer window at the larger size. At equilibrium the
/// difference is exactly zero — every per-task allocation would show up
/// `n` times over.
fn steady_state_alloc_delta(rt: &mut ThreadRuntime, counters: &[jade_core::Handle<u64>]) -> u64 {
    let n = 1000usize;
    let submit = |rt: &mut ThreadRuntime, count: usize| {
        for i in 0..count {
            let c = counters[i % STRESS_OBJECTS];
            rt.submit(TaskBuilder::new("inc").rd_wr(c).body(move |ctx| {
                *ctx.wr(c) += 1;
            }));
        }
    };
    for _ in 0..3 {
        submit(rt, 2 * n);
        rt.finish();
    }
    submit(rt, n);
    let (a1, ()) = jade_bench::alloc::allocs_during(|| rt.finish());
    submit(rt, 2 * n);
    let (a2, ()) = jade_bench::alloc::allocs_during(|| rt.finish());
    a2.saturating_sub(a1)
}

#[test]
fn steady_state_allocs_per_task_is_zero_for_both_deques() {
    let _guard = SERIAL.lock().unwrap();
    if counting_inactive() {
        return;
    }
    for deque in [DequeImpl::Locked, DequeImpl::ChaseLev] {
        for workers in [1usize, 2] {
            let mut rt = ThreadRuntime::with_mode(workers, SchedMode::Sharded);
            rt.set_deque_impl(deque);
            let counters: Vec<_> = (0..STRESS_OBJECTS)
                .map(|i| rt.create(&format!("c{i}"), 8, 0u64))
                .collect();
            // The test-harness runner may allocate on its own threads
            // mid-window (it only ever inflates the count), so accept
            // the first of a few attempts that lands clean; a genuine
            // per-task allocation inflates *every* attempt by >= 1000.
            let mut deltas = Vec::new();
            let clean = (0..5).any(|_| {
                let d = steady_state_alloc_delta(&mut rt, &counters);
                deltas.push(d);
                d == 0
            });
            assert!(
                clean,
                "{} @ {workers} workers: steady-state batches kept allocating \
                 (extra allocs for +1000 tasks across attempts: {deltas:?})",
                deque.name()
            );
        }
    }
}

/// Allocations per executed task of one chain tenant through `svc`,
/// counted from `submit` returning to `wait` returning: registration (on
/// the submitter's thread) is outside the window, so what remains is the
/// workers' per-task path plus a few per-tenant constants (its ready
/// queue's first push, its report slot).
fn service_allocs_per_task(svc: &JadeService, tasks: usize) -> f64 {
    let mut prog = Program::new();
    let c = prog.create("acc", 8, 0u64);
    for _ in 0..tasks {
        prog.submit(TaskBuilder::new("inc").rd_wr(c).body(move |ctx| {
            *ctx.wr(c) += 1;
        }));
    }
    let id = svc
        .submit(prog, TenantOptions::default())
        .expect("idle service admits");
    let (n, report) = jade_bench::alloc::allocs_during(|| svc.wait(id));
    assert_eq!(*report.store.read(c), tasks as u64, "chain result");
    n as f64 / tasks as f64
}

#[test]
fn service_steady_state_allocs_per_task_is_near_zero() {
    let _guard = SERIAL.lock().unwrap();
    if counting_inactive() {
        return;
    }
    const TASKS: usize = 2000;
    const BOUND: f64 = 0.05;
    let svc = JadeService::new(ServiceConfig::new(2));
    for _ in 0..3 {
        service_allocs_per_task(&svc, TASKS);
    }
    // As above: accept the first clean attempt, since harness threads may
    // allocate mid-window; a genuine per-task allocation inflates every
    // attempt to >= 1 per task.
    let mut seen = Vec::new();
    let clean = (0..5).any(|_| {
        let a = service_allocs_per_task(&svc, TASKS);
        seen.push(a);
        a < BOUND
    });
    assert!(
        clean,
        "service kept allocating at steady state: allocs/task across attempts {seen:?} \
         (bound {BOUND})"
    );
}
