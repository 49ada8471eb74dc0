//! The in-process engine: two coherence policies over N views.
//!
//! N "nodes" are N threads in this process, each with its own
//! [`ClusterView`] of the shared space. Application code loads and
//! stores straight into its view; when protection bits say no, the
//! view's `SIGSEGV` handler parks the thread and surfaces the fault
//! (see [`crate::cluster`] — the mechanism lives there, once), a
//! per-node *service thread* decides what the fault means under a
//! per-page lock and answers with `install_page` / `set_access` on the
//! views involved, and the faulting instruction retries. This is the
//! user-level mechanism IVY and TreadMarks were built on; what is left
//! here is policy.
//!
//! Two coherence modes:
//!
//! * [`VmMode::Invalidate`] — single-writer write-invalidate with an
//!   owner and copyset per page: sequential consistency.
//! * [`VmMode::TwinDiff`] — multiple writers: a write fault snapshots a
//!   twin and opens the page; [`VmNode::barrier`] diffs every twin
//!   against the page, merges the diffs into a per-page master copy,
//!   and invalidates local views — barrier-consistency for
//!   data-race-free programs, immune to false sharing.
//!
//! Safety model: a node's view is written by its own thread, or by a
//! service thread strictly while that thread is parked; cross-view
//! copies read pages whose writers have been downgraded first.
//! Programs must be data-race-free at the granularity the mode
//! provides (as on the original systems).

use crate::cluster::{ClusterView, ViewFault, ACC_NONE, ACC_READ, ACC_WRITE};
use crate::region::os_page_size;
use dsm_mem::PageDiff;
use std::panic::resume_unwind;
use std::sync::{Barrier, Mutex, MutexGuard, PoisonError};

/// Coherence mode of the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmMode {
    /// Write-invalidate single writer (sequential consistency).
    Invalidate,
    /// Twin/diff multiple writers merged at barriers.
    TwinDiff,
}

/// Engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct VmConfig {
    pub nnodes: usize,
    /// Shared pages (each `page_size` bytes).
    pub pages: usize,
    /// Must be a multiple of the OS page size.
    pub page_size: usize,
    pub mode: VmMode,
}

impl VmConfig {
    pub fn new(nnodes: usize, pages: usize, mode: VmMode) -> Self {
        VmConfig {
            nnodes,
            pages,
            page_size: os_page_size(),
            mode,
        }
    }

    pub fn total_bytes(&self) -> usize {
        self.pages * self.page_size
    }
}

/// Per-page coherence metadata.
struct PageMeta {
    /// Invalidate mode: current owner.
    owner: usize,
    /// Invalidate mode: nodes holding copies (bitmask; ≤ 64 nodes).
    copyset: u64,
    /// TwinDiff mode: the merged authoritative copy.
    master: Option<Box<[u8]>>,
}

/// One node's twin storage: the twins snapshotted this interval plus a
/// pool of recycled page buffers. The pool is preallocated at engine
/// build (one buffer per shared page — the most a node can twin before
/// a flush), so the write-fault hot path never allocates.
struct TwinSet {
    used: Vec<(usize, Box<[u8]>)>,
    free: Vec<Box<[u8]>>,
}

/// Counters of a run, exposed after it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VmStatsSnapshot {
    pub read_faults: u64,
    pub write_faults: u64,
    pub bytes_copied: u64,
    pub diffs_created: u64,
    pub diff_bytes: u64,
    /// Wall-clock nanoseconds spent inside fault service.
    pub service_ns: u64,
}

struct Shared {
    cfg: VmConfig,
    /// One view per node: mapping, access levels and fault stream.
    views: Vec<ClusterView>,
    meta: Vec<Mutex<PageMeta>>,
    barrier: Barrier,
    /// Per-node twins (TwinDiff mode), touched only by that node's
    /// service thread and its app thread's flush.
    twins: Vec<Mutex<TwinSet>>,
    /// Application-level mutual-exclusion locks (invalidate mode: the
    /// engine is sequentially consistent, so plain mutexes suffice).
    app_locks: Vec<Mutex<()>>,
    stats: Mutex<VmStatsSnapshot>,
}

/// Every update under these locks leaves the data valid at each step,
/// so a panicking application thread does not take the engine with it.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Shared {
    /// Install `data` as `node`'s copy of `page`: the one page copy a
    /// fault costs. Caller must hold the page's meta lock.
    fn install(&self, node: usize, page: usize, data: &[u8], acc: u8) {
        self.views[node].install_page(page, data, acc);
        lock(&self.stats).bytes_copied += self.cfg.page_size as u64;
    }

    // ---------------- invalidate mode ----------------

    fn service_read_invalidate(&self, node: usize, page: usize) {
        let mut meta = lock(&self.meta[page]);
        if self.views[node].access(page) >= ACC_READ {
            return; // raced with another service; already readable
        }
        let owner = &self.views[meta.owner];
        debug_assert_ne!(meta.owner, node, "owner cannot read-fault");
        // Downgrade a writing owner so the copy is stable.
        if owner.access(page) == ACC_WRITE {
            owner.set_access(page, ACC_READ);
        }
        // SAFETY: the owner's copy is readable and, under the meta
        // lock, no service changes it or its rights during the copy.
        self.install(node, page, unsafe { owner.page_bytes(page) }, ACC_READ);
        meta.copyset |= 1 << node;
    }

    fn service_write_invalidate(&self, node: usize, page: usize) {
        let mut meta = lock(&self.meta[page]);
        let view = &self.views[node];
        if view.access(page) == ACC_WRITE {
            return;
        }
        if view.access(page) == ACC_NONE && meta.owner != node {
            // Invalidated since the trap: take the data before the
            // owner's copy goes away — and after its stores stop: one
            // landing between the copy and the invalidation below
            // would be lost.
            let owner = &self.views[meta.owner];
            if owner.access(page) == ACC_WRITE {
                owner.set_access(page, ACC_READ);
            }
            // SAFETY: the owner's copy is readable (owners keep at
            // least read rights), no longer writable, and its rights
            // are stable under the meta lock.
            self.install(node, page, unsafe { owner.page_bytes(page) }, ACC_WRITE);
        } else {
            view.set_access(page, ACC_WRITE);
        }
        // Invalidate every other copy.
        let mut cs = meta.copyset;
        while cs != 0 {
            let m = cs.trailing_zeros() as usize;
            cs &= cs - 1;
            if m != node {
                self.views[m].set_access(page, ACC_NONE);
            }
        }
        meta.owner = node;
        meta.copyset = 1 << node;
    }

    // ---------------- twin/diff mode ----------------

    fn master_mut<'a>(&self, meta: &'a mut PageMeta) -> &'a mut Box<[u8]> {
        meta.master
            .get_or_insert_with(|| vec![0u8; self.cfg.page_size].into_boxed_slice())
    }

    fn service_read_twin(&self, node: usize, page: usize) {
        let mut meta = lock(&self.meta[page]);
        if self.views[node].access(page) >= ACC_READ {
            return;
        }
        self.install(node, page, self.master_mut(&mut meta), ACC_READ);
    }

    fn service_write_twin(&self, node: usize, page: usize) {
        let mut meta = lock(&self.meta[page]);
        let view = &self.views[node];
        if view.access(page) == ACC_WRITE {
            return;
        }
        if view.access(page) == ACC_NONE {
            self.install(node, page, self.master_mut(&mut meta), ACC_WRITE);
        } else {
            view.set_access(page, ACC_WRITE);
        }
        // Snapshot the twin for the barrier diff, reusing a pooled
        // buffer. A page can be twinned at most once per interval (the
        // ACC_WRITE early return above), so a plain push suffices.
        let mut set = lock(&self.twins[node]);
        let mut twin = set
            .free
            .pop()
            .unwrap_or_else(|| vec![0u8; self.cfg.page_size].into_boxed_slice());
        view.snapshot_page(page, &mut twin);
        set.used.push((page, twin));
    }

    /// TwinDiff: fold this node's writes into the masters and drop all
    /// local copies (called by the app thread at a barrier).
    fn flush_twins(&self, node: usize) {
        let view = &self.views[node];
        let mut set = lock(&self.twins[node]);
        let TwinSet { used, free } = &mut *set;
        lock(&self.stats).diffs_created += used.len() as u64;
        let mut wire = 0;
        for (page, twin) in used.drain(..) {
            // SAFETY: a twinned page is writable in this view, and its
            // only writer is the thread running this flush.
            let cur = unsafe { view.page_bytes(page) };
            // Stream the changed runs straight into the master: one
            // scan, no diff object, no allocation. The meta lock (and
            // the master's lazy allocation) engage only if anything
            // actually changed.
            let mut meta_guard = None;
            wire += PageDiff::scan_runs(&twin, cur, |run_off, bytes| {
                let meta = meta_guard.get_or_insert_with(|| lock(&self.meta[page]));
                let master = self.master_mut(meta);
                master[run_off..run_off + bytes.len()].copy_from_slice(bytes);
            });
            drop(meta_guard);
            free.push(twin);
        }
        drop(set);
        lock(&self.stats).diff_bytes += wire as u64;
        // Drop every local copy: the next access refetches the merged
        // master.
        for page in 0..self.cfg.pages {
            if view.access(page) != ACC_NONE {
                view.set_access(page, ACC_NONE);
            }
        }
    }

    fn service(&self, node: usize, fault: ViewFault) {
        let start = std::time::Instant::now();
        // Portable fault disambiguation, done by the view: no access →
        // read service; a fault on a readable page must be a write. (A
        // cold write costs two faults — the classic upgrade path.)
        match (self.cfg.mode, fault.write) {
            (VmMode::Invalidate, false) => self.service_read_invalidate(node, fault.page),
            (VmMode::Invalidate, true) => self.service_write_invalidate(node, fault.page),
            (VmMode::TwinDiff, false) => self.service_read_twin(node, fault.page),
            (VmMode::TwinDiff, true) => self.service_write_twin(node, fault.page),
        }
        let mut stats = lock(&self.stats);
        if fault.write {
            stats.write_faults += 1;
        } else {
            stats.read_faults += 1;
        }
        stats.service_ns += start.elapsed().as_nanos() as u64;
    }
}

/// Ends every view's fault stream when dropped, so the service threads
/// leave their loops however `run_vm`'s scope is left.
struct StopViews<'a>(&'a [ClusterView]);

impl Drop for StopViews<'_> {
    fn drop(&mut self) {
        self.0.iter().for_each(ClusterView::stop);
    }
}

// ---------------- public engine API ----------------

/// One node's view handle, passed to the application closure.
pub struct VmNode<'a> {
    shared: &'a Shared,
    node: usize,
}

impl VmNode<'_> {
    pub fn id(&self) -> usize {
        self.node
    }

    pub fn nodes(&self) -> usize {
        self.shared.cfg.nnodes
    }

    pub fn total_bytes(&self) -> usize {
        self.shared.cfg.total_bytes()
    }

    /// Volatile typed load from the shared space (may page-fault into
    /// the coherence engine).
    #[inline]
    pub fn read<T: Copy>(&self, off: usize) -> T {
        self.shared.views[self.node].read(off)
    }

    /// Volatile typed store to the shared space (may page-fault into
    /// the coherence engine).
    #[inline]
    pub fn write<T: Copy>(&self, off: usize, v: T) {
        self.shared.views[self.node].write(off, v)
    }

    /// Bulk read.
    pub fn read_bytes(&self, off: usize, buf: &mut [u8]) {
        for (i, b) in buf.iter_mut().enumerate() {
            *b = self.read::<u8>(off + i);
        }
    }

    /// Bulk write.
    pub fn write_bytes(&self, off: usize, data: &[u8]) {
        for (i, &b) in data.iter().enumerate() {
            self.write::<u8>(off + i, b);
        }
    }

    /// Run `f` under application lock `id` (0..64). Only meaningful in
    /// invalidate mode, where the engine is sequentially consistent;
    /// twin/diff mode synchronizes at barriers only.
    pub fn with_lock<T>(&self, id: usize, f: impl FnOnce() -> T) -> T {
        assert_eq!(
            self.shared.cfg.mode,
            VmMode::Invalidate,
            "vm locks require the sequentially consistent mode"
        );
        let _guard = lock(&self.shared.app_locks[id]);
        f()
    }

    /// Global barrier. In twin/diff mode this is also the consistency
    /// point: local writes are merged into the masters and local copies
    /// dropped.
    pub fn barrier(&self) {
        if self.shared.cfg.mode == VmMode::TwinDiff {
            self.shared.flush_twins(self.node);
        }
        self.shared.barrier.wait();
    }
}

/// Result of a VM-engine run.
#[derive(Debug)]
pub struct VmRunResult<R> {
    pub results: Vec<R>,
    pub stats: VmStatsSnapshot,
}

/// Build the engine, run one closure per node (each on its own
/// thread), and tear everything down. Engines are independent: any
/// number may run in one process at once.
///
/// A closure that panics fails the run: once every node's closure has
/// returned or panicked, the first panic is re-raised on the caller's
/// thread with its own payload. Peers parked in [`VmNode::barrier`]
/// waiting for a node that panicked are not released (the barrier is a
/// `std::sync::Barrier`, which cannot be poisoned), so such a run still
/// hangs.
pub fn run_vm<F, R>(cfg: VmConfig, f: F) -> VmRunResult<R>
where
    F: Fn(&VmNode<'_>) -> R + Sync,
    R: Send,
{
    assert!(cfg.nnodes >= 1 && cfg.nnodes <= 64, "1..=64 nodes");
    assert!(cfg.pages >= 1);
    assert_eq!(
        cfg.page_size % os_page_size(),
        0,
        "page size must be a multiple of the OS page"
    );

    let views: Vec<ClusterView> = (0..cfg.nnodes)
        .map(|_| ClusterView::new(cfg.pages, cfg.page_size).expect("map a node's view"))
        .collect();
    // Page p starts owned by node p % n; in invalidate mode the owner
    // holds a zeroed writable copy (kernel zero-fill on first touch).
    let home = |p: usize| p % cfg.nnodes;
    if cfg.mode == VmMode::Invalidate {
        for p in 0..cfg.pages {
            views[home(p)].set_access(p, ACC_WRITE);
        }
    }
    let shared = Shared {
        cfg,
        views,
        meta: (0..cfg.pages)
            .map(|p| {
                Mutex::new(PageMeta {
                    owner: home(p),
                    copyset: 1 << home(p),
                    master: None,
                })
            })
            .collect(),
        barrier: Barrier::new(cfg.nnodes),
        twins: (0..cfg.nnodes)
            .map(|_| {
                Mutex::new(TwinSet {
                    used: Vec::with_capacity(cfg.pages),
                    free: (0..cfg.pages)
                        .map(|_| vec![0u8; cfg.page_size].into_boxed_slice())
                        .collect(),
                })
            })
            .collect(),
        app_locks: (0..64).map(|_| Mutex::new(())).collect(),
        stats: Mutex::default(),
    };
    let shared = &shared;

    let results: Vec<R> = std::thread::scope(|s| {
        for (n, view) in shared.views.iter().enumerate() {
            s.spawn(move || {
                while let Some(fault) = view.next_fault() {
                    shared.service(n, fault);
                    view.finish_fault();
                }
            });
        }
        // Declared after the service threads exist and dropped before
        // the scope joins them.
        let _stop = StopViews(&shared.views);

        let f = &f;
        let apps: Vec<_> = (0..cfg.nnodes)
            .map(|node| s.spawn(move || f(&VmNode { shared, node })))
            .collect();
        // Join every node before re-raising, so no application thread
        // is left parked in a fault nobody will serve.
        let joined: Vec<_> = apps.into_iter().map(|j| j.join()).collect();
        joined
            .into_iter()
            .map(|r| r.unwrap_or_else(|payload| resume_unwind(payload)))
            .collect()
    });

    let stats = *lock(&shared.stats);
    VmRunResult { results, stats }
}
