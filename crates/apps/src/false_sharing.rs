//! The false-sharing microkernel: every node repeatedly increments its
//! own private counter, but the counters are packed `stride` bytes
//! apart — so for strides below the page size several "private"
//! counters share a page. Single-writer protocols ping-pong the page on
//! every increment; twin/diff multiple-writer protocols keep every
//! increment local. This is the motivating measurement for Munin and
//! TreadMarks (experiment E5).

use crate::util::u64_at;
use dsm_core::{Dsm, Dur, Engine, GlobalAddr};

/// Microkernel description.
#[derive(Debug, Clone, Copy)]
pub struct FalseSharingParams {
    /// Increments per node.
    pub iters: usize,
    /// Byte distance between consecutive nodes' counters.
    pub stride: usize,
    /// Modeled work between increments.
    pub think: Dur,
}

impl FalseSharingParams {
    pub fn small() -> Self {
        FalseSharingParams {
            iters: 20,
            stride: 8,
            think: Dur::micros(10),
        }
    }

    pub fn heap_bytes(&self, nodes: usize) -> usize {
        (nodes * self.stride).max(8)
    }

    fn counter(&self, node: usize) -> GlobalAddr {
        u64_at(GlobalAddr(node * self.stride), 0)
    }
}

/// Run; returns this node's final counter value (must equal `iters`).
pub fn run(dsm: &Dsm<'_, impl Engine>, p: &FalseSharingParams) -> u64 {
    let me = dsm.id().0 as usize;
    let addr = p.counter(me);
    dsm.barrier(0);
    for _ in 0..p.iters {
        let v = dsm.read_u64(addr);
        dsm.write_u64(addr, v + 1);
        dsm.compute(p.think);
    }
    dsm.barrier(1);
    dsm.read_u64(addr)
}

/// Object build of the same kernel: one `DsmBox<u64>` counter per
/// node, homed at that node. Coherence is per-object, so "private"
/// counters really are private — no two nodes' counters ever share a
/// coherence unit regardless of packing, and the increment loop runs
/// with zero remote traffic. Returns the heap (for
/// `DsmConfig::objects`) and the counter handles.
pub fn build_obj_counters(nodes: u32) -> (dsm_obj::DsmHeap, Vec<dsm_obj::DsmBox<u64>>) {
    let mut heap = dsm_obj::DsmHeap::new((64 * nodes) as usize, nodes);
    let counters = (0..nodes)
        .map(|n| heap.alloc::<u64>(dsm_core::NodeId(n)))
        .collect();
    (heap, counters)
}

/// Run the object build; returns this node's final counter value
/// (must equal `iters`, same as [`run`]).
pub fn run_obj(dsm: &Dsm<'_>, p: &FalseSharingParams, counters: &[dsm_obj::DsmBox<u64>]) -> u64 {
    let mine = counters[dsm.id().0 as usize];
    dsm.barrier(0);
    for _ in 0..p.iters {
        *mine.get_mut(dsm) += 1;
        dsm.compute(p.think);
    }
    dsm.barrier(1);
    *mine.get(dsm)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_disjoint_for_any_stride() {
        let p = FalseSharingParams {
            stride: 8,
            ..FalseSharingParams::small()
        };
        assert_ne!(p.counter(0), p.counter(1));
        assert_eq!(p.counter(3), GlobalAddr(24));
    }
}
