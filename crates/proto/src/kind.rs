//! Protocol selection: one enum to name every coherence protocol in the
//! suite, and one [`Facts`] row per protocol stating everything the
//! rest of the system may ask about it — its name, how to build it,
//! the consistency contract it gives programs, what it needs, what it
//! offers. The runtime, the launchers and every test matrix *ask the
//! row*; none of them keeps a list of protocols of its own.

use crate::api::{Protocol, MAX_BATCH_DEPTH};
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

/// The consistency contract a protocol gives programs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Consistency {
    /// Sequentially consistent for any program, racy ones included.
    Sc,
    /// Sequentially consistent with the *page* as the atomic register:
    /// every read and write of a page is one atomic operation on the
    /// whole page, so the contract is SC per page, not per word.
    ScPerPage,
    /// Sequentially consistent for data-race-free programs only —
    /// those that order conflicting accesses with the provided locks
    /// and barriers.
    Drf,
}

/// What a protocol promises once a node has crashed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashContract {
    /// Nothing: the protocol keeps no crash handling, and pages whose
    /// owner or manager died are lost to whoever asks next.
    None,
    /// Survivors keep running on what they hold; requesters of a dead
    /// home's pages are *specified* to starve into the progress
    /// watchdog, which flags the run.
    Starves,
    /// Reads and writes keep completing through the death of any
    /// minority of nodes, and a rebooted node re-synchronizes.
    ServesThroughMinority,
}

/// A capability answer: `Ok(())`, or why not.
pub type Can = Result<(), &'static str>;

/// Builds one node's instance of a protocol.
type Build = fn(NodeId, SpaceLayout, &[EntryBinding], ProtoOpts) -> Box<dyn Protocol>;

/// Everything the rest of the system may ask about one protocol.
pub struct Facts {
    /// Short display name; also what `--proto` resolves.
    pub name: &'static str,
    build: Build,
    /// The contract programs get.
    pub consistency: Consistency,
    /// Needs lock↔data bindings ([`EntryBinding`]): data is only kept
    /// coherent through the lock it is bound to.
    pub needs_bindings: bool,
    /// Needs an object table ([`ProtoOpts::objects`]) to be of use.
    pub needs_objects: bool,
    /// Answers [`Protocol::obj_fetch`] / [`Protocol::obj_publish`].
    pub object_ops: Can,
    /// Concurrent writers of *distinct bytes of one page*, ordered by
    /// nothing but a later barrier, all keep their bytes.
    pub sub_page_writers: Can,
    /// What holds after a node crash.
    pub crash: CrashContract,
    /// Every coherence action is a page fault, an invalidation or a
    /// page transfer that shows as a change of access rights — what a
    /// page-protection engine (cluster mode) can drive.
    pub page_fault_driven: Can,
    /// Coherence is deferred to acquire points: a held copy can be
    /// byte-stale behind unchanged access rights, so a page-protection
    /// engine must revoke its whole view at every acquire.
    pub lazy: bool,
    /// One of the eight protocols of the 1992 comparison
    /// ([`ProtocolKind::ALL`]).
    pub comparison_1992: bool,
    /// Largest useful fault-pipeline depth (demand page + prefetch
    /// candidates): the runtime clamps the configured batch depth to
    /// it, so a protocol that prefetching harms can opt out.
    pub max_batch_depth: usize,
}

/// The row most protocols share most of: a sequentially consistent
/// page protocol of the 1992 comparison, driven by page faults alone.
/// Each row below states only where it differs.
const fn page_sc_1992(name: &'static str, build: Build) -> Facts {
    Facts {
        name,
        build,
        consistency: Consistency::Sc,
        needs_bindings: false,
        needs_objects: false,
        object_ops: Err("coherence units are pages; only `obj` keeps an object directory"),
        sub_page_writers: Ok(()),
        crash: CrashContract::None,
        page_fault_driven: Ok(()),
        lazy: false,
        comparison_1992: true,
        max_batch_depth: MAX_BATCH_DEPTH,
    }
}

/// Declares [`ProtocolKind`], [`ProtocolKind::EVERY`] and
/// [`ProtocolKind::facts`] from one list: a protocol is one entry here
/// and nowhere else.
macro_rules! protocols {
    ($( $(#[$doc:meta])* $kind:ident => $facts:expr, )+) => {
        /// Every coherence protocol in the suite.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum ProtocolKind {
            $( $(#[$doc])* $kind, )+
        }

        impl ProtocolKind {
            /// Every protocol that can be named and built, in canonical
            /// report order. What test matrices and listings iterate;
            /// they skip a row only through one of its [`Facts`].
            pub const EVERY: [ProtocolKind; [$(ProtocolKind::$kind),+].len()] =
                [$(ProtocolKind::$kind),+];

            /// This protocol's row.
            pub const fn facts(self) -> &'static Facts {
                match self {
                    $( ProtocolKind::$kind => {
                        const ROW: Facts = $facts;
                        &ROW
                    } )+
                }
            }
        }
    };
}

protocols! {
    /// IVY write-invalidate, centralized manager (node 0).
    IvyCentral => page_sc_1992("ivy-central", |me, layout, _, _| {
        Box::new(Ivy::new(ManagerScheme::Central, me, layout))
    }),
    /// IVY write-invalidate, fixed distributed manager (page homes).
    IvyFixed => page_sc_1992("ivy-fixed", |me, layout, _, _| {
        Box::new(Ivy::new(ManagerScheme::Fixed, me, layout))
    }),
    /// IVY write-invalidate, dynamic distributed manager
    /// (probable-owner chains).
    IvyDynamic => page_sc_1992("ivy-dyn", |me, layout, _, _| {
        Box::new(Ivy::new(ManagerScheme::Dynamic, me, layout))
    }),
    /// Single-copy page migration baseline.
    Migrate => Facts {
        // Prefetching a single-copy page *migrates* it here, stealing
        // it from whoever is about to use it — E17 measured the depth-8
        // blowup.
        max_batch_depth: 1,
        ..page_sc_1992("migrate", |me, layout, _, _| Box::new(Migrate::new(me, layout)))
    },
    /// Write-update with home-node sequencing (eager sharing).
    Update => Facts {
        page_fault_driven: Err(
            "every store is a message to the page's home (`write_op`) that patches remote \
             copies in place, where a view's page protection sees neither",
        ),
        ..page_sc_1992("update", |me, layout, _, _| Box::new(Update::new(me, layout)))
    },
    /// Eager release consistency, multiple writers (Munin
    /// write-shared).
    Erc => Facts {
        consistency: Consistency::Drf,
        page_fault_driven: Err(
            "a release patches remote copies in place with sub-page diffs: access rights do \
             not change, so a view's page protection sees nothing to install",
        ),
        ..page_sc_1992("erc", |me, layout, _, _| Box::new(Erc::new(me, layout)))
    },
    /// Lazy release consistency (TreadMarks).
    Lrc => Facts {
        consistency: Consistency::Drf,
        lazy: true,
        ..page_sc_1992("lrc", |me, layout, _, opts| {
            Box::new(Lrc::with_gc(me, layout, opts.lrc_gc))
        })
    },
    /// Entry consistency (Midway). Requires lock↔data bindings.
    Entry => Facts {
        consistency: Consistency::Drf,
        needs_bindings: true,
        page_fault_driven: Err(
            "lock grants carry the guarded data and patch it in place: access rights do not \
             change, so a view's page protection sees nothing to install",
        ),
        ..page_sc_1992("entry", |me, layout, bindings, _| {
            Box::new(Entry::new(me, layout, bindings))
        })
    },
    /// SC-ABD quorum replication: every node replicates every page,
    /// reads and writes run two-phase majority quorums, so the run
    /// serves through the death of any minority of nodes. It answers a
    /// different question (fault tolerance) than the 1992 comparison.
    Scabd => Facts {
        consistency: Consistency::ScPerPage,
        sub_page_writers: Err(
            "registers are whole pages, last writer wins: a write stores back the whole page \
             it read, over a concurrent write to other bytes of it (docs/PROTOCOLS.md §7)",
        ),
        crash: CrashContract::ServesThroughMinority,
        page_fault_driven: Err(
            "every read and write is a quorum round of its own (`write_op`), not a fault on \
             a page the node then holds",
        ),
        comparison_1992: false,
        // Prefetching would multiply quorum rounds for pages the reader
        // may never touch; the demand page alone is already two RTTs.
        max_batch_depth: 1,
        ..page_sc_1992("scabd", |me, layout, _, _| Box::new(Scabd::new(me, layout)))
    },
    /// One-sided RDMA: home-based ownership with NIC-served reads on
    /// fabrics that support one-sided operations (software fallback
    /// elsewhere). It targets the modern-interconnect era sweep (E20),
    /// not the 1992 comparison.
    Rdma => Facts {
        crash: CrashContract::Starves,
        comparison_1992: false,
        ..page_sc_1992("rdma", |me, layout, _, _| Box::new(Rdma::new(me, layout)))
    },
    /// Object-granularity sharing: coherence units are application
    /// objects from an [`ObjTable`], not pages. Ownership moves with
    /// `DsmMut` acquisition (one message per object), read replicas
    /// self-invalidate at synchronization entries, and lock releases
    /// piggyback only the objects dirtied under the lock
    /// (entry-consistency style); page traffic delegates to
    /// [`ProtocolKind::Entry`]. It changes the sharing granularity,
    /// not just the page protocol (E22).
    Obj => Facts {
        consistency: Consistency::Drf,
        needs_bindings: true,
        needs_objects: true,
        object_ops: Ok(()),
        page_fault_driven: Err(
            "coherence units are objects reached through `obj_fetch`/`obj_publish`, not \
             pages a view can protect",
        ),
        comparison_1992: false,
        ..page_sc_1992("obj", |me, layout, bindings, opts| {
            Box::new(Obj::new(me, layout, bindings, opts.objects))
        })
    },
}

impl ProtocolKind {
    /// The eight protocols of the 1992 comparison — the rows marked
    /// [`Facts::comparison_1992`] — in canonical report order: what the
    /// experiments' 1992 tables iterate.
    pub const ALL: [ProtocolKind; 8] = {
        let mut all = [ProtocolKind::IvyCentral; 8];
        let (mut i, mut n) = (0, 0);
        while i < Self::EVERY.len() {
            if Self::EVERY[i].facts().comparison_1992 {
                all[n] = Self::EVERY[i];
                n += 1;
            }
            i += 1;
        }
        assert!(n == all.len());
        all
    };

    /// Short display name.
    pub fn name(self) -> &'static str {
        self.facts().name
    }

    /// The protocol called `name`, if any.
    pub fn from_name(name: &str) -> Option<ProtocolKind> {
        Self::EVERY.into_iter().find(|k| k.name() == name)
    }

    /// The rows of [`Self::EVERY`] whose `fact` says yes; every other
    /// row is named on stdout with the reason it gives. This is how a
    /// test matrix leaves a protocol out: through a fact, never by name.
    pub fn every_that(fact: fn(&Facts) -> Can) -> impl Iterator<Item = ProtocolKind> {
        Self::EVERY
            .into_iter()
            .filter(move |kind| match fact(kind.facts()) {
                Ok(()) => true,
                Err(why) => {
                    println!("skipping {kind}: {why}");
                    false
                }
            })
    }

    /// True for protocols that are sequentially consistent for
    /// arbitrary (even racy) programs — under
    /// [`Consistency::ScPerPage`] with the page, not the word, as the
    /// atomic register; false for those that need data-race freedom.
    pub fn sequentially_consistent(self) -> bool {
        self.facts().consistency != Consistency::Drf
    }

    /// Construct the per-node protocol instance with its tuning knobs.
    ///
    /// `bindings` is only consulted by the protocols whose row says
    /// [`Facts::needs_bindings`]; the others ignore it.
    pub fn build_opts(
        self,
        me: NodeId,
        layout: SpaceLayout,
        bindings: &[EntryBinding],
        opts: ProtoOpts,
    ) -> Box<dyn Protocol> {
        (self.facts().build)(me, layout, bindings, opts)
    }
}

impl std::fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl Facts {
    /// Column titles of [`Facts::table_row`]: the fields, by name.
    pub const TABLE_HEAD: &'static str = "\
        | protocol      | consistency | needs_bindings | needs_objects | object_ops | sub_page_writers \
        | crash                 | page_fault_driven | lazy | comparison_1992 | max_batch_depth |";

    /// This row as one line of a Markdown table, padded to read as
    /// columns on a terminal too: what `dsmrun --list` prints and
    /// DESIGN.md's protocol table holds.
    pub fn table_row(&self) -> String {
        let yn = |b: bool| if b { "yes" } else { "no" };
        format!(
            "| {:<13} | {:<11} | {:<14} | {:<13} | {:<10} | {:<16} | {:<21} | {:<17} | {:<4} | {:<15} | {:<15} |",
            format!("`{}`", self.name),
            format!("{:?}", self.consistency),
            yn(self.needs_bindings),
            yn(self.needs_objects),
            yn(self.object_ops.is_ok()),
            yn(self.sub_page_writers.is_ok()),
            format!("{:?}", self.crash),
            yn(self.page_fault_driven.is_ok()),
            yn(self.lazy),
            yn(self.comparison_1992),
            self.max_batch_depth,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fake_io::FakeIo;
    use dsm_mem::{FrameTable, GlobalAddr, ObjRecord, PageGeometry, Placement};
    use dsm_net::CostModel;

    /// Every fact that the built instance can confirm, it confirms.
    #[test]
    fn every_kind_builds_and_names_match() {
        let layout = SpaceLayout::new(PageGeometry::new(256), 1024, Placement::Cyclic, 3);
        // One object, homed here, for the protocols that take a table.
        let mut objects = ObjTable::new();
        objects.push(ObjRecord {
            addr: GlobalAddr(0),
            len: 16,
            home: NodeId(0),
        });
        let objects = Arc::new(objects);
        for kind in ProtocolKind::EVERY {
            let facts = kind.facts();
            let opts = ProtoOpts {
                objects: Arc::clone(&objects),
                ..ProtoOpts::default()
            };
            let mut p = kind.build_opts(NodeId(0), layout, &[], opts);
            assert_eq!(ProtocolKind::from_name(facts.name), Some(kind));
            // Object ops answered ⇔ the row says so (the trait's
            // defaults refuse by panicking).
            let mut io = FakeIo::new(CostModel::lan_1992());
            p.on_start(&mut io, &mut FrameTable::new(layout.geometry));
            let answered = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                p.obj_fetch(&mut io, 0, false).is_some()
            }));
            assert_eq!(
                answered.ok(),
                facts.object_ops.ok().map(|()| true),
                "{kind}"
            );
        }
    }

    #[test]
    fn every_extends_all_and_names_are_unique() {
        let marked: Vec<_> = ProtocolKind::EVERY
            .into_iter()
            .filter(|k| k.facts().comparison_1992)
            .collect();
        assert_eq!(marked, ProtocolKind::ALL);
        assert_eq!(ProtocolKind::EVERY[..8], ProtocolKind::ALL);
        for (i, a) in ProtocolKind::EVERY.iter().enumerate() {
            for b in &ProtocolKind::EVERY[i + 1..] {
                assert_ne!(a.name(), b.name());
            }
        }
        assert_eq!(ProtocolKind::from_name("ivy-c"), None);
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

    /// The protocol indexes in the docs are the table this module
    /// renders: every row of it stands in DESIGN.md verbatim, and every
    /// protocol has its section in docs/PROTOCOLS.md.
    #[test]
    fn docs_list_every_protocol() {
        let design = include_str!("../../../DESIGN.md");
        let protocols = include_str!("../../../docs/PROTOCOLS.md");
        assert!(design.contains(Facts::TABLE_HEAD), "DESIGN.md: table head");
        for kind in ProtocolKind::EVERY {
            let row = kind.facts().table_row();
            assert!(design.contains(&row), "DESIGN.md lacks the row {row}");
            let titled = protocols
                .lines()
                .any(|l| l.starts_with("## ") && l.contains(&format!("`{kind}`")));
            assert!(titled, "docs/PROTOCOLS.md has no section for `{kind}`");
        }
    }

    /// Every `crates/<crate>/(src|tests)/…` path that DESIGN.md,
    /// README.md or a docs/*.md names exists (`{a,b}.rs` names both).
    #[test]
    fn docs_name_only_paths_that_exist() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut docs = vec![root.join("DESIGN.md"), root.join("README.md")];
        let dir = std::fs::read_dir(root.join("docs")).expect("docs/");
        docs.extend(dir.map(|entry| entry.expect("docs/ entry").path()));
        docs.retain(|doc| doc.extension().is_some_and(|ext| ext == "md"));
        assert!(docs.len() > 2, "no docs/*.md found");
        for doc in docs {
            let text = std::fs::read_to_string(&doc).expect("readable doc");
            for (at, _) in text.match_indices("crates/") {
                let in_path = |c: char| c.is_ascii_alphanumeric() || "/_.-{},".contains(c);
                let named = text[at..].split(|c| !in_path(c)).next().unwrap_or_default();
                let named = named.trim_end_matches(['.', ',']);
                if !matches!(named.split('/').nth(2), Some("src" | "tests")) {
                    continue;
                }
                let paths = match (named.find('{'), named.find('}')) {
                    (Some(open), Some(close)) => named[open + 1..close]
                        .split(',')
                        .map(|alt| format!("{}{alt}{}", &named[..open], &named[close + 1..]))
                        .collect(),
                    _ => vec![named.to_string()],
                };
                for path in paths {
                    let there = root.join(&path).exists();
                    assert!(
                        there,
                        "{} names {path}, which does not exist",
                        doc.display()
                    );
                }
            }
        }
    }
}
