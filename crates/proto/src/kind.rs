//! Protocol selection: one enum to name every coherence protocol in the
//! suite, with a uniform constructor.

use crate::api::Protocol;
use crate::entry::{Entry, EntryBinding};
use crate::erc::Erc;
use crate::ivy::{Ivy, ManagerScheme};
use crate::lrc::Lrc;
use crate::migrate::Migrate;
use crate::obj::Obj;
use crate::rdma::Rdma;
use crate::scabd::Scabd;
use crate::update::Update;
use dsm_mem::{ObjTable, SpaceLayout};
use dsm_net::NodeId;
use std::sync::Arc;

/// Protocol tuning knobs consulted by [`ProtocolKind::build_opts`].
#[derive(Debug, Clone)]
pub struct ProtoOpts {
    /// LRC: retire causal metadata at barriers (home-flush epoch GC).
    /// Off reproduces the unbounded-log variant for comparison (E18).
    pub lrc_gc: bool,
    /// Object layout table for [`ProtocolKind::Obj`]; other protocols
    /// ignore it. Shared (identical) across all nodes.
    pub objects: Arc<ObjTable>,
}

impl Default for ProtoOpts {
    fn default() -> Self {
        ProtoOpts {
            lrc_gc: true,
            objects: Arc::new(ObjTable::new()),
        }
    }
}

/// Every coherence protocol in the suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolKind {
    /// IVY write-invalidate, centralized manager (node 0).
    IvyCentral,
    /// IVY write-invalidate, fixed distributed manager (page homes).
    IvyFixed,
    /// IVY write-invalidate, dynamic distributed manager
    /// (probable-owner chains).
    IvyDynamic,
    /// Single-copy page migration baseline.
    Migrate,
    /// Write-update with home-node sequencing (eager sharing).
    Update,
    /// Eager release consistency, multiple writers (Munin
    /// write-shared).
    Erc,
    /// Lazy release consistency (TreadMarks).
    Lrc,
    /// Entry consistency (Midway). Requires lock↔data bindings.
    Entry,
    /// SC-ABD quorum replication: every node replicates every page,
    /// reads and writes run two-phase majority quorums, so the run
    /// serves through the death of any minority of nodes. Not part of
    /// [`ProtocolKind::ALL`] — it answers a different question
    /// (fault tolerance) than the 1992 protocol comparison.
    Scabd,
    /// One-sided RDMA: home-based ownership with NIC-served reads on
    /// fabrics that support one-sided operations (software fallback
    /// elsewhere). Not part of [`ProtocolKind::ALL`] — it targets the
    /// modern-interconnect era sweep (E20), not the 1992 comparison.
    Rdma,
    /// Object-granularity sharing: coherence units are application
    /// objects from an [`ObjTable`], not pages. Ownership moves with
    /// `DsmMut` acquisition (one message per object), read replicas
    /// self-invalidate at synchronization entries, and lock releases
    /// piggyback only the objects dirtied under the lock
    /// (entry-consistency style); page traffic delegates to
    /// [`ProtocolKind::Entry`]. Requires data-race-free programs. Not
    /// part of [`ProtocolKind::ALL`] — it changes the sharing
    /// granularity, not just the page protocol (E22).
    Obj,
}

impl ProtocolKind {
    /// The eight protocols of the 1992 comparison, in canonical report
    /// order: what every experiment and determinism sweep iterates.
    pub const ALL: [ProtocolKind; 8] = [
        ProtocolKind::IvyCentral,
        ProtocolKind::IvyFixed,
        ProtocolKind::IvyDynamic,
        ProtocolKind::Migrate,
        ProtocolKind::Update,
        ProtocolKind::Erc,
        ProtocolKind::Lrc,
        ProtocolKind::Entry,
    ];

    /// Every protocol that can be named and built: [`Self::ALL`], then
    /// the three that answer other questions than the 1992 comparison.
    /// Name resolution and listings go through this.
    pub const EVERY: [ProtocolKind; 11] = [
        ProtocolKind::IvyCentral,
        ProtocolKind::IvyFixed,
        ProtocolKind::IvyDynamic,
        ProtocolKind::Migrate,
        ProtocolKind::Update,
        ProtocolKind::Erc,
        ProtocolKind::Lrc,
        ProtocolKind::Entry,
        ProtocolKind::Scabd,
        ProtocolKind::Rdma,
        ProtocolKind::Obj,
    ];

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::IvyCentral => "ivy-central",
            ProtocolKind::IvyFixed => "ivy-fixed",
            ProtocolKind::IvyDynamic => "ivy-dyn",
            ProtocolKind::Migrate => "migrate",
            ProtocolKind::Update => "update",
            ProtocolKind::Erc => "erc",
            ProtocolKind::Lrc => "lrc",
            ProtocolKind::Entry => "entry",
            ProtocolKind::Scabd => "scabd",
            ProtocolKind::Rdma => "rdma",
            ProtocolKind::Obj => "obj",
        }
    }

    /// True for protocols that provide sequential consistency for
    /// arbitrary (even racy) programs; the weaker ones require
    /// data-race-free programs synchronized with the provided locks and
    /// barriers.
    pub fn sequentially_consistent(self) -> bool {
        matches!(
            self,
            ProtocolKind::IvyCentral
                | ProtocolKind::IvyFixed
                | ProtocolKind::IvyDynamic
                | ProtocolKind::Migrate
                | ProtocolKind::Update
                | ProtocolKind::Scabd
                | ProtocolKind::Rdma
        )
    }

    /// Construct the per-node protocol instance.
    ///
    /// `bindings` is only consulted by [`ProtocolKind::Entry`]; other
    /// protocols ignore it.
    pub fn build(
        self,
        me: NodeId,
        layout: SpaceLayout,
        bindings: &[EntryBinding],
    ) -> Box<dyn Protocol> {
        self.build_opts(me, layout, bindings, ProtoOpts::default())
    }

    /// Construct with protocol tuning knobs; [`ProtocolKind::build`]
    /// uses the defaults.
    pub fn build_opts(
        self,
        me: NodeId,
        layout: SpaceLayout,
        bindings: &[EntryBinding],
        opts: ProtoOpts,
    ) -> Box<dyn Protocol> {
        match self {
            ProtocolKind::IvyCentral => Box::new(Ivy::new(ManagerScheme::Central, me, layout)),
            ProtocolKind::IvyFixed => Box::new(Ivy::new(ManagerScheme::Fixed, me, layout)),
            ProtocolKind::IvyDynamic => Box::new(Ivy::new(ManagerScheme::Dynamic, me, layout)),
            ProtocolKind::Migrate => Box::new(Migrate::new(me, layout)),
            ProtocolKind::Update => Box::new(Update::new(me, layout)),
            ProtocolKind::Erc => Box::new(Erc::new(me, layout)),
            ProtocolKind::Lrc => Box::new(Lrc::with_gc(me, layout, opts.lrc_gc)),
            ProtocolKind::Entry => Box::new(Entry::new(me, layout, bindings)),
            ProtocolKind::Scabd => Box::new(Scabd::new(me, layout)),
            ProtocolKind::Rdma => Box::new(Rdma::new(me, layout)),
            ProtocolKind::Obj => Box::new(Obj::new(me, layout, bindings, opts.objects)),
        }
    }
}

impl std::fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_mem::{PageGeometry, Placement};

    #[test]
    fn every_kind_builds_and_names_match() {
        let layout = SpaceLayout::new(PageGeometry::new(256), 1024, Placement::Cyclic, 3);
        for kind in ProtocolKind::EVERY {
            let p = kind.build(NodeId(0), layout, &[]);
            assert_eq!(p.name(), kind.name());
            assert_eq!(p.supports_objects(), kind == ProtocolKind::Obj);
        }
    }

    #[test]
    fn every_extends_all_and_names_are_unique() {
        assert_eq!(ProtocolKind::EVERY[..8], ProtocolKind::ALL);
        assert_eq!(
            ProtocolKind::EVERY[8..],
            [ProtocolKind::Scabd, ProtocolKind::Rdma, ProtocolKind::Obj]
        );
        for (i, a) in ProtocolKind::EVERY.iter().enumerate() {
            for b in &ProtocolKind::EVERY[i + 1..] {
                assert_ne!(a.name(), b.name());
            }
        }
    }

    #[test]
    fn sc_classification() {
        assert!(ProtocolKind::IvyDynamic.sequentially_consistent());
        assert!(ProtocolKind::Update.sequentially_consistent());
        assert!(ProtocolKind::Scabd.sequentially_consistent());
        assert!(ProtocolKind::Rdma.sequentially_consistent());
        assert!(!ProtocolKind::Lrc.sequentially_consistent());
        assert!(!ProtocolKind::Entry.sequentially_consistent());
        // Like entry consistency (whose page machinery it embeds), obj
        // requires data-race-free programs.
        assert!(!ProtocolKind::Obj.sequentially_consistent());
    }
}
