//! The in-process engine: sequentially consistent write-invalidate
//! over N views.
//!
//! N "nodes" are N threads in this process, each with its own
//! [`ClusterView`] of the shared space. Application code loads and
//! stores straight into its view; when protection bits say no, the
//! view's `SIGSEGV` handler parks the thread and surfaces the fault
//! (see [`crate::cluster`] — the mechanism lives there, once), a
//! per-node *service thread* decides what the fault means under a
//! per-page lock and answers with `install_page` / `set_access` on the
//! views involved, and the faulting instruction retries. This is the
//! user-level mechanism IVY was built on; what is left here is policy:
//! single-writer write-invalidate with an owner and copyset per page.
//!
//! Why this engine exists beside `dsm-core`'s cluster mode, which runs
//! the real protocol stack over views: it downgrades a writer *before*
//! copying its page, under the page's lock, so it is sequentially
//! consistent even for a program that races inside a page. The
//! cluster's reactor copies a page out while its program runs, so a
//! store can land after the copy; it promises consistency only to
//! data-race-free programs. Multiple writers of one page run there,
//! under `lrc`.
//!
//! Safety model: a node's view is written by its own thread, or by a
//! service thread strictly while that thread is parked; cross-view
//! copies read pages whose writers have been downgraded first.

use crate::cluster::{ClusterView, ACC_NONE, ACC_READ, ACC_WRITE};
use crate::region::os_page_size;
use std::panic::resume_unwind;
use std::sync::{Barrier, Mutex, MutexGuard, PoisonError};

/// Coherence mode of the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmMode {
    /// Write-invalidate single writer (sequential consistency).
    Invalidate,
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
}

/// Per-page coherence metadata.
struct PageMeta {
    owner: usize,
    /// Nodes holding copies (bitmask; ≤ 64 nodes).
    copyset: u64,
}

struct Shared {
    /// One view per node: mapping, access levels and fault stream.
    views: Vec<ClusterView>,
    meta: Vec<Mutex<PageMeta>>,
    barrier: Barrier,
    /// Application-level mutual-exclusion locks (the engine is
    /// sequentially consistent, so plain mutexes suffice).
    app_locks: Vec<Mutex<()>>,
}

/// Every update under these locks leaves the data valid at each step,
/// so a panicking application thread does not take the engine with it.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Shared {
    fn service_read(&self, node: usize, page: usize) {
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
        self.views[node].install_page(page, unsafe { owner.page_bytes(page) }, ACC_READ);
        meta.copyset |= 1 << node;
    }

    fn service_write(&self, node: usize, page: usize) {
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
            view.install_page(page, unsafe { owner.page_bytes(page) }, ACC_WRITE);
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

    /// Run `f` under application lock `id` (0..64).
    pub fn with_lock<T>(&self, id: usize, f: impl FnOnce() -> T) -> T {
        let _guard = lock(&self.shared.app_locks[id]);
        f()
    }

    /// Global barrier.
    pub fn barrier(&self) {
        self.shared.barrier.wait();
    }
}

/// Result of a VM-engine run.
#[derive(Debug)]
pub struct VmRunResult<R> {
    pub results: Vec<R>,
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
    // Page p starts owned by node p % n, which holds a zeroed writable
    // copy (kernel zero-fill on first touch).
    let home = |p: usize| p % cfg.nnodes;
    for p in 0..cfg.pages {
        views[home(p)].set_access(p, ACC_WRITE);
    }
    let shared = Shared {
        views,
        meta: (0..cfg.pages)
            .map(|p| {
                Mutex::new(PageMeta {
                    owner: home(p),
                    copyset: 1 << home(p),
                })
            })
            .collect(),
        barrier: Barrier::new(cfg.nnodes),
        app_locks: (0..64).map(|_| Mutex::new(())).collect(),
    };
    let shared = &shared;

    let results: Vec<R> = std::thread::scope(|s| {
        for (n, view) in shared.views.iter().enumerate() {
            s.spawn(move || {
                // The view tells the two apart: a fault on a readable
                // page must be a store. (A cold write costs two faults —
                // the classic upgrade path.)
                while let Some(fault) = view.next_fault() {
                    if fault.write {
                        shared.service_write(n, fault.page);
                    } else {
                        shared.service_read(n, fault.page);
                    }
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

    VmRunResult { results }
}
