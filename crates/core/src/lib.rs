//! # dsm-core — the pagedsm runtime and public API
//!
//! Ties the substrates together into a usable distributed shared memory
//! system: pick a coherence protocol ([`ProtocolKind`]), lock/barrier
//! algorithms, a page size and placement, and a network cost model;
//! then run one SPMD program per simulated node against the [`Dsm`]
//! handle.
//!
//! ```
//! use dsm_core::{DsmConfig, GlobalAddr, ProtocolKind};
//!
//! let cfg = DsmConfig::new(4, ProtocolKind::IvyFixed).heap_bytes(1 << 16);
//! let res = dsm_core::run_dsm(&cfg, |dsm| {
//!     let me = dsm.id().0 as usize;
//!     // Each node writes its slot, then everyone sums all slots.
//!     dsm.write_u64(GlobalAddr(me * 8), me as u64 + 1);
//!     dsm.barrier(0);
//!     (0..4).map(|i| dsm.read_u64(GlobalAddr(i * 8))).sum::<u64>()
//! });
//! assert!(res.results.iter().all(|&s| s == 1 + 2 + 3 + 4));
//! ```

#![deny(clippy::undocumented_unsafe_blocks)]
mod api;
pub mod cluster;
mod lease;
mod msg;
mod node;

pub use api::{Dsm, PrefetchWindow};
pub use cluster::{run_cluster_node, run_in_threads, ClusterDsm};
pub use lease::Lease;
pub use msg::CoreMsg;
pub use node::{DsmNode, DsmOp, OpBuf, OpData};

// Re-export the vocabulary types users need.
pub use dsm_mem::{GlobalAddr, ObjRecord, ObjTable, PageGeometry, PageId, Placement, SpaceLayout};
pub use dsm_net::{
    CostModel, CrashEvent, Dur, FaultNotice, FaultPlan, NetStats, NodeId, PartitionEvent,
    RunResult, SimTime,
};
pub use dsm_proto::{
    Can, Consistency, CrashContract, EntryBinding, Facts, ProtoOpts, ProtocolKind,
};
pub use dsm_sync::{BarrierId, BarrierKind, LockId, LockKind};

/// Hard cap on [`DsmConfig::batch_depth`], re-exported from the
/// protocol layer (a protocol's row may clamp lower via
/// [`Facts::max_batch_depth`]).
pub use dsm_proto::MAX_BATCH_DEPTH;

/// Full configuration of one DSM machine.
#[derive(Debug, Clone)]
pub struct DsmConfig {
    pub nnodes: u32,
    pub protocol: ProtocolKind,
    pub page_size: usize,
    pub heap_bytes: usize,
    pub placement: Placement,
    pub lock_kind: LockKind,
    pub barrier_kind: BarrierKind,
    pub model: CostModel,
    /// Lock ↔ data bindings (entry consistency only).
    pub bindings: Vec<EntryBinding>,
    /// Livelock guard for the event kernel.
    pub max_events: u64,
    /// Service page hits inside the application program via a [`Lease`]
    /// (no kernel rendezvous per hit). On by default; turn off to
    /// force every access through the op path — timing and outputs
    /// are identical either way, only wall-clock changes.
    pub fast_path: bool,
    /// Max pages fetched per read fault (demand + prefetches from the
    /// op's own byte range), clamped to `1..=`[`MAX_BATCH_DEPTH`].
    /// Depth 1 (the default) disables the batched fault pipeline and is
    /// bit-identical to the pre-pipeline runtime. With the pipeline on,
    /// faults inside a declared read-ahead window size their batch
    /// adaptively from the window's remaining extent (clamped by the
    /// global cap and [`Facts::max_batch_depth`]) rather than this
    /// fixed depth.
    pub batch_depth: usize,
    /// LRC only: retire causal metadata at barriers (interval GC). On
    /// by default; off reproduces the unbounded-log variant (E18's
    /// baseline). Application results are bit-identical either way.
    pub lrc_gc: bool,
    /// Object layout table ([`ProtocolKind::Obj`] only): id →
    /// (address, length, home) records, typically built with
    /// `dsm_obj::DsmHeap`. Empty by default.
    pub objects: std::sync::Arc<ObjTable>,
}

/// Cost-model default: the interconnect era named by `DSM_NET` (one of
/// [`CostModel::ERA_NAMES`]) if set and recognized, else the 1992 LAN:
/// `DSM_NET=… exp all` moves the whole suite to a different machine
/// room without threading a flag through every call site. Call sites
/// that pass an explicit
/// [`DsmConfig::model`] — era-specific figures and the determinism
/// tests — are unaffected.
fn default_model() -> CostModel {
    std::env::var("DSM_NET")
        .ok()
        .and_then(|v| CostModel::era(v.trim()))
        .unwrap_or_else(CostModel::lan_1992)
}

impl DsmConfig {
    /// A sensible 1992-flavored default: 4 KiB pages, cyclic placement,
    /// queue locks, central barrier, 1 MiB heap, and the cost model
    /// named by `DSM_NET` (the 1992 LAN when unset).
    pub fn new(nnodes: u32, protocol: ProtocolKind) -> Self {
        DsmConfig {
            nnodes,
            protocol,
            page_size: 4096,
            heap_bytes: 1 << 20,
            placement: Placement::Cyclic,
            lock_kind: LockKind::Queue,
            barrier_kind: BarrierKind::Central,
            model: default_model(),
            bindings: Vec::new(),
            max_events: 200_000_000,
            fast_path: true,
            batch_depth: 1,
            lrc_gc: true,
            objects: std::sync::Arc::new(ObjTable::new()),
        }
    }

    pub fn page_size(mut self, bytes: usize) -> Self {
        self.page_size = bytes;
        self
    }

    pub fn heap_bytes(mut self, bytes: usize) -> Self {
        self.heap_bytes = bytes;
        self
    }

    pub fn placement(mut self, p: Placement) -> Self {
        self.placement = p;
        self
    }

    pub fn lock_kind(mut self, k: LockKind) -> Self {
        self.lock_kind = k;
        self
    }

    pub fn barrier_kind(mut self, k: BarrierKind) -> Self {
        self.barrier_kind = k;
        self
    }

    pub fn model(mut self, m: CostModel) -> Self {
        self.model = m;
        self
    }

    pub fn bind(mut self, lock: LockId, addr: GlobalAddr, len: usize) -> Self {
        self.bindings.push(EntryBinding { lock, addr, len });
        self
    }

    pub fn max_events(mut self, n: u64) -> Self {
        self.max_events = n;
        self
    }

    /// Enable deterministic network fault injection. Any enabled plan
    /// automatically routes all traffic through the reliable transport
    /// ([`dsm_net::Reliable`]), so protocols still see exactly-once,
    /// per-link-FIFO delivery and application results are unchanged.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.model.faults = plan;
        self
    }

    pub fn fast_path(mut self, on: bool) -> Self {
        self.fast_path = on;
        self
    }

    /// Set the batched fault pipeline depth (clamped to
    /// `1..=`[`MAX_BATCH_DEPTH`]).
    pub fn batch_depth(mut self, depth: usize) -> Self {
        self.batch_depth = depth.clamp(1, MAX_BATCH_DEPTH);
        self
    }

    /// Enable/disable LRC interval GC at barriers.
    pub fn lrc_gc(mut self, on: bool) -> Self {
        self.lrc_gc = on;
        self
    }

    /// Attach the object layout table ([`ProtocolKind::Obj`] only).
    pub fn objects(mut self, table: std::sync::Arc<ObjTable>) -> Self {
        self.objects = table;
        self
    }

    /// The event loop is one loop; this accepts only 1, for the frozen
    /// `benchmark/` package, which still calls it.
    #[doc(hidden)]
    pub fn workers(self, workers: usize) -> Self {
        assert!(
            workers == 1,
            "the simulator runs one event loop: workers({workers}) is not supported"
        );
        self
    }

    /// The space layout this configuration induces.
    pub fn layout(&self) -> SpaceLayout {
        SpaceLayout::new(
            PageGeometry::new(self.page_size),
            self.heap_bytes,
            self.placement,
            self.nnodes,
        )
    }

    /// Build the per-node behaviors.
    pub fn build_nodes(&self) -> Vec<DsmNode> {
        let layout = self.layout();
        (0..self.nnodes)
            .map(|i| {
                let me = NodeId(i);
                let opts = ProtoOpts {
                    lrc_gc: self.lrc_gc,
                    objects: std::sync::Arc::clone(&self.objects),
                };
                let proto = self.protocol.build_opts(me, layout, &self.bindings, opts);
                DsmNode::new(
                    me,
                    layout,
                    self.protocol.facts(),
                    proto,
                    self.lock_kind,
                    self.barrier_kind,
                    self.batch_depth,
                )
            })
            .collect()
    }

    /// One lease per node (or `None`s, if the fast path is disabled).
    fn leases(&self, nodes: &[DsmNode]) -> Vec<Option<Lease>> {
        let layout = self.layout();
        nodes
            .iter()
            .map(|n| {
                self.fast_path
                    .then(|| Lease::new(n.frames_handle(), layout, self.model.clone()))
            })
            .collect()
    }
}

/// Run the built fleet: wrapped in the reliable transport when fault
/// injection is enabled (protocols require exactly-once, per-link-FIFO
/// delivery), bare otherwise — the bare path is bit-identical to what
/// it was before fault injection existed.
fn run_programs<V, P>(cfg: &DsmConfig, nodes: Vec<DsmNode>, programs: Vec<P>) -> RunResult<V>
where
    V: Send,
    P: FnOnce(&dsm_net::AppHandle<DsmOp, ()>) -> V + Send,
{
    if cfg.model.faults.enabled() {
        dsm_net::Sim::new(dsm_net::wrap_fleet(nodes, &cfg.model), cfg.model.clone())
            .max_events(cfg.max_events)
            .run(programs)
    } else {
        dsm_net::Sim::new(nodes, cfg.model.clone())
            .max_events(cfg.max_events)
            .run(programs)
    }
}

/// Run one SPMD `program` on every node of a DSM machine described by
/// `cfg`; the per-node return values, the parallel completion time, and
/// the network traffic come back in the [`RunResult`].
pub fn run_dsm<V, F>(cfg: &DsmConfig, program: F) -> RunResult<V>
where
    V: Send,
    F: Fn(&Dsm<'_>) -> V + Send + Sync,
{
    run_dsm_mpmd(cfg, (0..cfg.nnodes).map(|_| &program).collect())
}

/// Run with one distinct program per node (MPMD); `programs.len()` must
/// equal the node count.
pub fn run_dsm_mpmd<V, F>(cfg: &DsmConfig, programs: Vec<F>) -> RunResult<V>
where
    V: Send,
    F: FnOnce(&Dsm<'_>) -> V + Send,
{
    let nodes = cfg.build_nodes();
    let leases = cfg.leases(&nodes);
    assert_eq!(programs.len(), nodes.len(), "one program per node required");
    let programs: Vec<_> = programs
        .into_iter()
        .zip(leases)
        .map(|(p, lease)| {
            move |h: &dsm_net::AppHandle<DsmOp, ()>| {
                let dsm = Dsm::with_lease(h, lease);
                p(&dsm)
            }
        })
        .collect();
    run_programs(cfg, nodes, programs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_node_read_write_roundtrip() {
        for proto in ProtocolKind::EVERY {
            let cfg = DsmConfig::new(1, proto).heap_bytes(1 << 14).page_size(256);
            let res = run_dsm(&cfg, |dsm| {
                dsm.write_u64(GlobalAddr(16), 42);
                dsm.write_f64(GlobalAddr(512), 2.5);
                (dsm.read_u64(GlobalAddr(16)), dsm.read_f64(GlobalAddr(512)))
            });
            assert_eq!(res.results[0], (42, 2.5), "{proto}");
        }
    }

    #[test]
    fn barrier_then_read_sees_remote_writes() {
        // Four nodes write their own word of one page, concurrently.
        for proto in ProtocolKind::every_that(|facts| facts.sub_page_writers) {
            let n = 4;
            let cfg = DsmConfig::new(n, proto).heap_bytes(1 << 14).page_size(256);
            let res = run_dsm(&cfg, |dsm| {
                let me = dsm.id().0 as usize;
                dsm.write_u64(GlobalAddr(me * 8), (me as u64 + 1) * 10);
                dsm.barrier(0);
                (0..n as usize)
                    .map(|i| dsm.read_u64(GlobalAddr(i * 8)))
                    .sum::<u64>()
            });
            for (i, &s) in res.results.iter().enumerate() {
                assert_eq!(s, 10 + 20 + 30 + 40, "{proto} node {i}");
            }
        }
    }

    #[test]
    fn lock_protected_counter_is_atomic() {
        for proto in ProtocolKind::EVERY {
            let n = 4;
            let iters = 5u64;
            let mut cfg = DsmConfig::new(n, proto).heap_bytes(1 << 14).page_size(256);
            cfg.bindings = vec![EntryBinding {
                lock: 7,
                addr: GlobalAddr(0),
                len: 8,
            }];
            let res = run_dsm(&cfg, |dsm| {
                for _ in 0..iters {
                    dsm.acquire(7);
                    let v = dsm.read_u64(GlobalAddr(0));
                    dsm.write_u64(GlobalAddr(0), v + 1);
                    dsm.release(7);
                }
                dsm.barrier(0);
                dsm.read_u64(GlobalAddr(0))
            });
            for (i, &v) in res.results.iter().enumerate() {
                assert_eq!(v, n as u64 * iters, "{proto} node {i}");
            }
        }
    }

    #[test]
    fn cross_page_access_works_everywhere() {
        for proto in ProtocolKind::EVERY {
            let cfg = DsmConfig::new(2, proto).heap_bytes(1 << 14).page_size(256);
            let res = run_dsm(&cfg, |dsm| {
                if dsm.id().0 == 0 {
                    let vals: Vec<f64> = (0..64).map(|i| i as f64).collect();
                    // 512 bytes spanning two pages, starting mid-page.
                    dsm.write_f64s(GlobalAddr(128), &vals);
                }
                dsm.barrier(0);
                dsm.read_f64s(GlobalAddr(128), 64)
            });
            let expect: Vec<f64> = (0..64).map(|i| i as f64).collect();
            assert_eq!(res.results[1], expect, "{proto}");
        }
    }

    #[test]
    fn producer_consumer_flag_under_sc_protocols() {
        // Racy flag synchronization: only the sequentially consistent
        // protocols promise this works.
        for proto in ProtocolKind::EVERY
            .into_iter()
            .filter(|p| p.sequentially_consistent())
        {
            let cfg = DsmConfig::new(2, proto).heap_bytes(1 << 14).page_size(256);
            let res = run_dsm(&cfg, |dsm| {
                let data = GlobalAddr(0);
                let flag = GlobalAddr(8); // same page: write order preserved
                if dsm.id().0 == 0 {
                    dsm.write_u64(data, 777);
                    dsm.write_u64(flag, 1);
                    0
                } else {
                    dsm.spin_u64_until(flag, Dur::micros(200), |v| v == 1);
                    dsm.read_u64(data)
                }
            });
            assert_eq!(res.results[1], 777, "{proto}");
        }
    }

    #[test]
    fn lossy_network_preserves_results_under_all_protocols() {
        // The same four-writers-of-one-page program: where the page is
        // last-writer-wins the answer depends on message timing, which
        // is what loss changes.
        for proto in ProtocolKind::every_that(|facts| facts.sub_page_writers) {
            let n = 4;
            let run = |plan: FaultPlan| {
                let cfg = DsmConfig::new(n, proto)
                    .heap_bytes(1 << 14)
                    .page_size(256)
                    .faults(plan);
                run_dsm(&cfg, |dsm| {
                    let me = dsm.id().0 as usize;
                    dsm.write_u64(GlobalAddr(me * 8), (me as u64 + 1) * 10);
                    dsm.barrier(0);
                    (0..n as usize)
                        .map(|i| dsm.read_u64(GlobalAddr(i * 8)))
                        .sum::<u64>()
                })
                .results
            };
            assert_eq!(
                run(FaultPlan::lossy(0.2, 0.1, 5)),
                run(FaultPlan::NONE),
                "{proto}"
            );
        }
    }

    #[test]
    fn deterministic_end_to_end() {
        let run = || {
            let cfg = DsmConfig::new(3, ProtocolKind::Lrc)
                .heap_bytes(1 << 14)
                .page_size(256);
            let res = run_dsm(&cfg, |dsm| {
                let me = dsm.id().0 as usize;
                for it in 0..3u64 {
                    dsm.with_lock(1, |d| {
                        let v = d.read_u64(GlobalAddr(64));
                        d.write_u64(GlobalAddr(64), v + me as u64 + it);
                    });
                    dsm.barrier(0);
                }
                dsm.read_u64(GlobalAddr(64))
            });
            (
                res.end_time,
                res.stats.total_msgs(),
                res.stats.total_bytes(),
            )
        };
        assert_eq!(run(), run());
    }
}
