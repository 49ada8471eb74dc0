//! The in-process engine the benchmark ledger's `vm.engine_fault_us`
//! times, and nothing else; programs run on `dsm-core`'s cluster mode.
//!
//! N nodes are N threads, each with its own [`ClusterView`]; page `p`
//! is homed, writable, at node `p % n`. A load that traps parks (see
//! [`crate::cluster`]) until the node's service thread downgrades the
//! home's copy to read-only and installs it in the faulting view. A
//! store that traps fails the run.
//!
//! Safety model: a node's view is written by its own thread, or by its
//! service thread while that thread is parked; a home's page is copied
//! only once its rights are down to read-only, and they never go up.

use crate::cluster::{ClusterView, ACC_READ, ACC_WRITE};
use crate::region::os_page_size;
use std::panic::resume_unwind;
use std::sync::Barrier;

/// The engine's one mode. Only the frozen benchmark ledger calls this.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmMode {
    /// Remote reads served from the home's copy.
    Invalidate,
}

/// Nodes and OS-sized pages. Only the frozen benchmark ledger calls this.
#[doc(hidden)]
#[derive(Debug, Clone, Copy)]
pub struct VmConfig {
    pub nnodes: usize,
    pub pages: usize,
}

impl VmConfig {
    pub fn new(nnodes: usize, pages: usize, _mode: VmMode) -> Self {
        VmConfig { nnodes, pages }
    }
}

struct Shared {
    views: Vec<ClusterView>,
    barrier: Barrier,
}

impl Shared {
    /// Serve `node`'s read fault on `page` from the home's copy. Only
    /// `node`'s service thread changes its view, and a home's rights
    /// only go down, so no lock orders two services of one page.
    fn service_read(&self, node: usize, page: usize) {
        let home = &self.views[page % self.views.len()];
        if home.access(page) == ACC_WRITE {
            home.set_access(page, ACC_READ);
        }
        // SAFETY: the home's copy is read-only now, and the home stores
        // to it only before any read (`VmNode::view`'s contract), so
        // nothing writes it during the copy.
        self.views[node].install_page(page, unsafe { home.page_bytes(page) }, ACC_READ);
    }
}

/// One node's handle. Only the frozen benchmark ledger calls this.
#[doc(hidden)]
pub struct VmNode<'a> {
    shared: &'a Shared,
    node: usize,
}

impl VmNode<'_> {
    pub fn id(&self) -> usize {
        self.node
    }

    /// This node's view: its rights and trap count. A store into it
    /// that traps fails the run.
    ///
    /// # Safety
    /// A store to a page this node homes must come before any other
    /// node reads that page (say, before a barrier those reads follow):
    /// a read fault copies the home's page in place.
    pub unsafe fn view(&self) -> &ClusterView {
        &self.shared.views[self.node]
    }

    /// Volatile typed load from the shared space (may read-fault).
    #[inline]
    pub fn read<T: Copy>(&self, off: usize) -> T {
        self.shared.views[self.node].read(off)
    }

    /// Global barrier.
    pub fn barrier(&self) {
        self.shared.barrier.wait();
    }
}

/// Each node's result. Only the frozen benchmark ledger calls this.
#[doc(hidden)]
#[derive(Debug)]
pub struct VmRunResult<R> {
    pub results: Vec<R>,
}

/// Run one closure per node, each on its own thread, and tear the
/// engine down; any number may run in one process at once. Once every
/// closure has returned or panicked, the first panic is re-raised here
/// (peers parked in [`VmNode::barrier`] for a node that panicked still
/// hang). Only the frozen benchmark ledger calls this.
#[doc(hidden)]
pub fn run_vm<F, R>(cfg: VmConfig, f: F) -> VmRunResult<R>
where
    F: Fn(&VmNode<'_>) -> R + Sync,
    R: Send,
{
    assert!(cfg.nnodes >= 1 && cfg.pages >= 1);
    let views: Vec<ClusterView> = (0..cfg.nnodes)
        .map(|_| ClusterView::new(cfg.pages, os_page_size()).expect("map a node's view"))
        .collect();
    for p in 0..cfg.pages {
        views[p % cfg.nnodes].set_access(p, ACC_WRITE);
    }
    let shared = &Shared {
        views,
        barrier: Barrier::new(cfg.nnodes),
    };
    let results = std::thread::scope(|s| {
        for (n, view) in shared.views.iter().enumerate() {
            s.spawn(move || {
                while let Some(fault) = view.next_fault() {
                    if fault.write {
                        view.fail(); // the store goes through; the run fails
                        panic!("run_vm serves no stores: page {}", fault.page);
                    }
                    shared.service_read(n, fault.page);
                    view.finish_fault();
                }
            });
        }
        let f = &f;
        let apps: Vec<_> = (0..cfg.nnodes)
            .map(|node| s.spawn(move || f(&VmNode { shared, node })))
            .collect();
        // Join every node before ending the fault streams and
        // re-raising, so no thread is left parked in an unserved fault.
        let joined: Vec<_> = apps.into_iter().map(|j| j.join()).collect();
        shared.views.iter().for_each(ClusterView::stop);
        joined
            .into_iter()
            .map(|r| r.unwrap_or_else(|payload| resume_unwind(payload)))
            .collect()
    });
    VmRunResult { results }
}
