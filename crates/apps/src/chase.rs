//! Pointer chasing over linked elements — the object-granularity
//! showcase workload (experiment E22).
//!
//! Each node owns one logical chain of small elements and repeatedly
//! traverses it, following `next` links and incrementing a per-element
//! counter. The *physical* placement is adversarial for page
//! protocols: consecutive elements of the same chain are interleaved
//! with every other chain, so a page holds elements of all chains and
//! every increment invalidates the page copies other nodes are
//! chasing through (false sharing at page granularity, plus a whole
//! page of traffic per 16-byte element). The object build ships each
//! element individually: ownership migrates to the traversing node on
//! the first round and every later round runs local.
//!
//! Both builds compute the same answer — after `rounds` traversals the
//! counters along a chain sum to `chain_len * rounds` — so protocol
//! comparisons are at identical results.

use crate::table::{App, Words};
use dsm_core::{Dsm, DsmConfig, Dur, Engine, GlobalAddr, NodeId};
use dsm_obj::{DsmBox, DsmHeap, Pod};
use std::ops::Range;

/// One chain element. 16 bytes, two `u64` fields, no padding — a
/// valid [`Pod`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C)]
pub struct ChaseElem {
    /// Successor: an object id (object build) or a flat slot index
    /// (page build); `u64::MAX` terminates the chain.
    pub next: u64,
    /// Visits so far.
    pub counter: u64,
}

// SAFETY: two u64 fields in repr(C) — no padding, any bit pattern valid.
unsafe impl Pod for ChaseElem {}

/// End-of-chain sentinel for `ChaseElem::next`.
pub const CHASE_END: u64 = u64::MAX;

/// Byte slot per element in the page build (padded from 16 to 32 to
/// keep addresses simple; still far below a page).
const SLOT: usize = 32;

/// Workload description.
#[derive(Debug, Clone, Copy)]
pub struct ChaseParams {
    /// Elements per chain (one chain per node).
    pub chain_len: usize,
    /// Full traversals per node.
    pub rounds: usize,
    /// Modeled work per visited element.
    pub think: Dur,
}

impl ChaseParams {
    /// Global-space footprint of the page build.
    pub fn heap_bytes(&self, nodes: usize) -> usize {
        self.chain_len * nodes * SLOT
    }

    /// The expected per-node result (counters along the chain after
    /// all rounds), identical for every protocol.
    pub fn expected(&self) -> u64 {
        (self.chain_len * self.rounds) as u64
    }

    /// Page build: flat slot index of element `i` of chain `c` —
    /// chains interleave, so each page mixes all chains.
    fn slot(&self, c: usize, i: usize, nodes: usize) -> usize {
        i * nodes + c
    }

    fn slot_addr(&self, slot: usize) -> GlobalAddr {
        GlobalAddr(slot * SLOT)
    }
}

/// Build the object layout: `nodes` chains of `chain_len` elements,
/// element `i` of chain `c` homed at node `(c + i) % nodes` — spread
/// across every home, like the page build's interleaving. Returns the
/// heap (for `DsmConfig::objects`) and per-chain element handles.
pub fn build_obj_chains(p: &ChaseParams, nodes: u32) -> (DsmHeap, Vec<Vec<DsmBox<ChaseElem>>>) {
    // Same footprint as the page build; the `(c + i) % nodes` homing
    // puts exactly `chain_len` 16-byte elements in each node's arena
    // of `chain_len * SLOT` bytes.
    let mut heap = DsmHeap::new(p.heap_bytes(nodes as usize), nodes);
    let chains = (0..nodes as usize)
        .map(|c| {
            (0..p.chain_len)
                .map(|i| heap.alloc::<ChaseElem>(NodeId((c as u32 + i as u32) % nodes)))
                .collect()
        })
        .collect();
    (heap, chains)
}

/// Object build: link, then chase. Returns the counter sum along this
/// node's chain (= [`ChaseParams::expected`]).
pub fn run_obj(dsm: &Dsm<'_>, p: &ChaseParams, chains: &[Vec<DsmBox<ChaseElem>>]) -> u64 {
    let me = dsm.id().0 as usize;
    let chain = &chains[me];
    // Link my chain (ownership of each element migrates here).
    for i in 0..chain.len() {
        let mut e = chain[i].get_mut(dsm);
        e.next = if i + 1 < chain.len() {
            chain[i + 1].id() as u64
        } else {
            CHASE_END
        };
        e.counter = 0;
    }
    dsm.barrier(0);
    for r in 0..p.rounds {
        let mut cur = chain[0].id() as u64;
        while cur != CHASE_END {
            let mut e = DsmBox::<ChaseElem>::from_raw(cur as u32).get_mut(dsm);
            e.counter += 1;
            cur = e.next;
            drop(e);
            dsm.compute(p.think);
        }
        dsm.barrier(1 + r as u32);
    }
    let mut sum = 0;
    let mut cur = chain[0].id() as u64;
    while cur != CHASE_END {
        let e = DsmBox::<ChaseElem>::from_raw(cur as u32).get(dsm);
        sum += e.counter;
        cur = e.next;
    }
    sum
}

/// Page build: the same chase over flat slots in the byte space.
pub fn run_pages(dsm: &Dsm<'_, impl Engine>, p: &ChaseParams) -> u64 {
    let me = dsm.id().0 as usize;
    let nodes = dsm.nodes() as usize;
    for i in 0..p.chain_len {
        let a = p.slot_addr(p.slot(me, i, nodes));
        let next = if i + 1 < p.chain_len {
            p.slot(me, i + 1, nodes) as u64
        } else {
            CHASE_END
        };
        dsm.write_u64(a, next);
        dsm.write_u64(a.offset(8), 0);
    }
    dsm.barrier(0);
    for r in 0..p.rounds {
        let mut cur = p.slot(me, 0, nodes) as u64;
        while cur != CHASE_END {
            let a = p.slot_addr(cur as usize);
            let c = dsm.read_u64(a.offset(8));
            dsm.write_u64(a.offset(8), c + 1);
            cur = dsm.read_u64(a);
            dsm.compute(p.think);
        }
        dsm.barrier(1 + r as u32);
    }
    let mut sum = 0;
    let mut cur = p.slot(me, 0, nodes) as u64;
    while cur != CHASE_END {
        let a = p.slot_addr(cur as usize);
        sum += dsm.read_u64(a.offset(8));
        cur = dsm.read_u64(a);
    }
    sum
}

/// `chase` as the app table runs it: the page build, or, under a
/// protocol that answers object ops, the chase over allocated objects
/// (E22's workload), which only the simulator runs.
#[derive(Clone)]
pub struct Chase {
    pub params: ChaseParams,
    /// The object build's chains, once [`App::machine`] chose it.
    chains: Option<Vec<Vec<DsmBox<ChaseElem>>>>,
}

impl From<ChaseParams> for Chase {
    fn from(params: ChaseParams) -> Self {
        Chase {
            params,
            chains: None,
        }
    }
}

impl App for Chase {
    fn name(&self) -> &'static str {
        "chase"
    }

    fn machine(&mut self, cfg: DsmConfig) -> DsmConfig {
        let nodes = cfg.nnodes;
        let cfg = cfg.heap_bytes(self.params.heap_bytes(nodes as usize));
        if cfg.protocol.facts().object_ops.is_err() {
            return cfg;
        }
        let (heap, chains) = build_obj_chains(&self.params, nodes);
        self.chains = Some(chains);
        cfg.objects(heap.table())
    }

    fn program(&self, d: &Dsm<'_, impl Engine>) -> Words {
        vec![run_pages(d, &self.params)]
    }

    fn sim_program(&self, d: &Dsm<'_>) -> Words {
        match &self.chains {
            Some(chains) => vec![run_obj(d, &self.params, chains)],
            None => self.program(d),
        }
    }

    fn verdict(&self, results: &[Words]) -> bool {
        let want = [self.params.expected()];
        results.iter().all(|w| w[..] == want)
    }

    /// The page build's elements of its own chain, interleaved with
    /// every other chain's.
    fn writes(&self, nodes: usize, rank: usize) -> Vec<Range<usize>> {
        let p = &self.params;
        let elem = |i| p.slot_addr(p.slot(rank, i, nodes)).0;
        let len = std::mem::size_of::<ChaseElem>();
        (0..p.chain_len).map(|i| elem(i)..elem(i) + len).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_core::{run_dsm, DsmConfig, ProtocolKind};

    const SMALL: ChaseParams = ChaseParams {
        chain_len: 16,
        rounds: 4,
        think: Dur::micros(5),
    };

    #[test]
    fn slots_interleave_chains_within_pages() {
        let p = SMALL;
        // Consecutive elements of one chain are `nodes` slots apart;
        // consecutive slots belong to different chains.
        assert_eq!(p.slot(0, 1, 4) - p.slot(0, 0, 4), 4);
        assert_eq!(p.slot(1, 0, 4), p.slot(0, 0, 4) + 1);
    }

    #[test]
    fn object_and_page_builds_agree_on_the_answer() {
        let p = SMALL;
        let nodes = 3u32;
        let expected = vec![p.expected(); nodes as usize];

        let page_cfg = DsmConfig::new(nodes, ProtocolKind::Lrc)
            .heap_bytes(p.heap_bytes(nodes as usize))
            .page_size(256);
        let page = run_dsm(&page_cfg, move |dsm| run_pages(dsm, &p));
        assert_eq!(page.results, expected);

        let (heap, chains) = build_obj_chains(&p, nodes);
        let obj_cfg = DsmConfig::new(nodes, ProtocolKind::Obj)
            .heap_bytes(p.heap_bytes(nodes as usize))
            .page_size(256)
            .objects(heap.table());
        let obj = run_dsm(&obj_cfg, move |dsm| run_obj(dsm, &p, &chains));
        assert_eq!(obj.results, expected);
    }
}
