//! Master–worker task management through a lock-protected shared queue
//! — the mutual-exclusion-bound workload (one producer fills a queue,
//! workers drain it). The lock guards the queue indices and slots, so
//! under entry consistency the whole queue region is bound to the lock
//! and rides its grants.

use crate::util::u64_at;
use dsm_core::{Dsm, Dur, Engine, GlobalAddr};
use dsm_sync::LockId;

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

    /// Entry-consistency binding covering the whole queue.
    pub fn binding(&self) -> (LockId, GlobalAddr, usize) {
        (QUEUE_LOCK, GlobalAddr(0), self.heap_bytes())
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
