//! Master–worker task management through a lock-protected shared queue
//! — the mutual-exclusion-bound workload (one producer fills a queue,
//! workers drain it). The lock guards the queue indices and slots, so
//! under entry consistency the whole queue region is bound to the lock
//! and rides its grants.

use crate::table::{App, Words};
use crate::util::u64_at;
use dsm_core::{Dsm, DsmConfig, Dur, Engine, GlobalAddr};
use dsm_sync::LockId;
use std::ops::Range;

/// Queue workload description.
#[derive(Debug, Clone, Copy)]
pub struct TaskQueueParams {
    /// Total tasks the master produces.
    pub tasks: usize,
    /// Modeled time to execute one task.
    pub task_time: Dur,
    /// Modeled time for the master to produce one task.
    pub produce_time: Dur,
    /// Worker poll interval while the queue is empty.
    pub poll: Dur,
}

/// The lock guarding the queue.
pub const QUEUE_LOCK: LockId = 0;

const HEAD: GlobalAddr = GlobalAddr(0);
const TAIL: GlobalAddr = GlobalAddr(8);
const DONE: GlobalAddr = GlobalAddr(16);
const SLOTS: GlobalAddr = GlobalAddr(24);

impl TaskQueueParams {
    pub fn heap_bytes(&self) -> usize {
        24 + self.tasks * 8
    }
}

/// Per-node result: tasks executed and an order-independent digest of
/// their ids (sum + xor) for exactly-once verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerResult {
    pub executed: u64,
    pub id_sum: u64,
    pub id_xor: u64,
}

/// Run the workload. Node 0 produces; every node (including 0 once
/// production finishes) consumes.
pub fn run(dsm: &Dsm<'_, impl Engine>, p: &TaskQueueParams) -> WorkerResult {
    let me = dsm.id().0;
    dsm.barrier(0);

    if me == 0 {
        for t in 0..p.tasks as u64 {
            dsm.compute(p.produce_time);
            dsm.acquire(QUEUE_LOCK);
            let tail = dsm.read_u64(TAIL);
            dsm.write_u64(u64_at(SLOTS, tail as usize), t + 1);
            dsm.write_u64(TAIL, tail + 1);
            dsm.release(QUEUE_LOCK);
        }
        dsm.acquire(QUEUE_LOCK);
        dsm.write_u64(DONE, 1);
        dsm.release(QUEUE_LOCK);
    }

    let mut res = WorkerResult {
        executed: 0,
        id_sum: 0,
        id_xor: 0,
    };
    loop {
        dsm.acquire(QUEUE_LOCK);
        let head = dsm.read_u64(HEAD);
        let tail = dsm.read_u64(TAIL);
        if head < tail {
            let id = dsm.read_u64(u64_at(SLOTS, head as usize));
            dsm.write_u64(HEAD, head + 1);
            dsm.release(QUEUE_LOCK);
            debug_assert!(id > 0, "popped an unwritten slot");
            res.executed += 1;
            res.id_sum += id;
            res.id_xor ^= id;
            dsm.compute(p.task_time);
        } else {
            let done = dsm.read_u64(DONE);
            dsm.release(QUEUE_LOCK);
            if done == 1 {
                break;
            }
            dsm.compute(p.poll);
        }
    }
    dsm.barrier(1);
    res
}

/// Expected aggregate digest over all nodes.
pub fn expected_digest(p: &TaskQueueParams) -> (u64, u64) {
    let ids = 1..=p.tasks as u64;
    (ids.clone().sum(), ids.fold(0, |a, b| a ^ b))
}

impl App for TaskQueueParams {
    fn name(&self) -> &'static str {
        "taskqueue"
    }

    /// The whole queue bound to its lock, for entry consistency.
    fn machine(&mut self, cfg: DsmConfig) -> DsmConfig {
        let bytes = self.heap_bytes();
        cfg.heap_bytes(bytes).bind(QUEUE_LOCK, GlobalAddr(0), bytes)
    }

    fn program(&self, d: &Dsm<'_, impl Engine>) -> Words {
        let r = run(d, self);
        vec![r.executed, r.id_sum, r.id_xor]
    }

    /// Each task ran exactly once, on whichever rank.
    fn verdict(&self, results: &[Words]) -> bool {
        let (sum, xor) = expected_digest(self);
        self.comparable(results) == [vec![self.tasks as u64, sum, xor]]
    }

    /// Only the aggregate (tasks run, id sum, id xor): the split of the
    /// tasks between ranks is the schedule's.
    fn comparable(&self, results: &[Words]) -> Vec<Words> {
        let agg = results.iter().fold(vec![0u64; 3], |agg, w| {
            vec![agg[0] + w[0], agg[1].wrapping_add(w[1]), agg[2] ^ w[2]]
        });
        vec![agg]
    }

    /// None: every write is under the queue lock.
    fn writes(&self, _: usize, _: usize) -> Vec<Range<usize>> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_matches_closed_form() {
        let p = TaskQueueParams {
            tasks: 10,
            task_time: Dur::millis(5),
            produce_time: Dur::micros(50),
            poll: Dur::micros(500),
        };
        let (sum, _) = expected_digest(&p);
        assert_eq!(sum, 55);
    }
}
