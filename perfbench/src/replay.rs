//! `sync.ns_per_task`: a workload's DAGs replayed, single-threaded, through
//! a bare [`Synchronizer`] — `add_task` in serial order, then `complete`
//! in FIFO enable order — so the synchronizer's own cost is measured apart
//! from any scheduler, lock or worker.

use jade_core::{AccessSpec, Synchronizer, TaskId};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Register and retire one DAG; returns the tasks completed.
fn replay_one(
    sync: &mut Synchronizer,
    specs: &[AccessSpec],
    ready: &mut VecDeque<TaskId>,
) -> usize {
    let base = sync.base_task();
    for (i, spec) in specs.iter().enumerate() {
        let id = TaskId(base + i as u32);
        if sync.add_task(id, spec) {
            ready.push_back(id);
        }
    }
    let mut newly = Vec::new();
    let mut done = 0;
    while let Some(id) = ready.pop_front() {
        sync.complete(id, &mut newly);
        ready.extend(newly.drain(..));
        done += 1;
    }
    sync.recycle();
    done
}

/// Replay `dags` repeatedly for about `budget` (at least once) and return
/// nanoseconds per task, or an error if a replay left tasks incomplete.
pub fn ns_per_task(dags: &[&[AccessSpec]], budget: Duration) -> Result<f64, String> {
    let mut sync = Synchronizer::new(true);
    let mut ready = VecDeque::new();
    let mut tasks = 0usize;
    let t0 = Instant::now();
    loop {
        for dag in dags {
            let done = replay_one(&mut sync, dag, &mut ready);
            if done != dag.len() {
                return Err(format!(
                    "synchronizer replay completed {done} of {} tasks",
                    dag.len()
                ));
            }
            tasks += done;
        }
        if t0.elapsed() >= budget {
            break;
        }
    }
    Ok(t0.elapsed().as_nanos() as f64 / tasks.max(1) as f64)
}
