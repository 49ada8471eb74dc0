//! Entry consistency (Midway).
//!
//! Shared data is *bound to synchronization objects*: each lock guards
//! declared regions, and a node's view of guarded data is made
//! consistent only on acquiring that lock — the current images of the
//! guarded regions ride on the lock grant itself, so fine-grained
//! producer→consumer handoffs cost exactly one message. Barriers act as
//! a whole-memory guard: arrivals carry diffs of everything written
//! since the last barrier and the merged images flow back with the
//! release.
//!
//! In exchange, the programming model is stricter: programs must be
//! data-race-free *and* declare lock↔data bindings ([`EntryBinding`]),
//! exactly as Midway required.

use crate::api::{ProtoEvent, ProtoIo, Protocol};
use crate::msg::{EntryUpdateLog, Piggy, ProtoMsg};
use dsm_mem::{Access, FrameTable, GlobalAddr, PageDiff, PageId, PageMap, SpaceLayout};
use dsm_net::NodeId;
use dsm_sync::{LockId, SyncEnvelope};
use std::collections::HashMap;

/// One lock → guarded byte range binding.
#[derive(Debug, Clone, Copy)]
pub struct EntryBinding {
    pub lock: LockId,
    pub addr: GlobalAddr,
    pub len: usize,
}

/// Per-lock update history: monotone versions of the guarded regions.
/// Every holder carries the full log forward with the lock, so a grant
/// only ships the entries the requester's version lacks — Midway's
/// "only dirty data travels with the lock".
#[derive(Debug, Default)]
struct LockLog {
    /// Highest version applied locally.
    version: u64,
    /// Region images snapshotted at acquire (diff basis at release);
    /// `None` while not holding.
    snapshot: Option<Vec<Box<[u8]>>>,
    /// (version, changes) history; changes are (region index, byte-run
    /// diff relative to the region start).
    log: Vec<(u64, Vec<(u32, PageDiff)>)>,
    /// Version up to which the last barrier synchronized everyone
    /// (entries ≤ this need not travel with barrier arrivals).
    synced_at_barrier: u64,
}

/// Entry-consistency protocol state for one node.
pub struct Entry {
    layout: SpaceLayout,
    me: NodeId,
    /// Guarded regions per lock.
    regions: HashMap<LockId, Vec<(usize, usize)>>,
    /// Twins of pages written since the last barrier.
    twins: PageMap<usize, Box<[u8]>>,
    /// Per-lock update logs.
    locks: HashMap<LockId, LockLog>,
}

impl Entry {
    pub fn new(me: NodeId, layout: SpaceLayout, bindings: &[EntryBinding]) -> Self {
        let mut regions: HashMap<LockId, Vec<(usize, usize)>> = HashMap::new();
        for b in bindings {
            assert!(
                layout.in_bounds(b.addr, b.len),
                "binding for lock {} out of bounds",
                b.lock
            );
            regions.entry(b.lock).or_default().push((b.addr.0, b.len));
        }
        Entry {
            layout,
            me,
            regions,
            twins: PageMap::default(),
            locks: HashMap::new(),
        }
    }

    /// Raw range read (rights-agnostic; protocol internal).
    fn read_range(&self, mem: &FrameTable, addr: usize, len: usize) -> Box<[u8]> {
        let g = self.layout.geometry;
        let mut out = vec![0u8; len];
        let mut pos = 0;
        while pos < len {
            let a = GlobalAddr(addr + pos);
            let page = g.page_of(a);
            let off = g.offset_in_page(a);
            let n = (g.page_size() - off).min(len - pos);
            let bytes = mem.page_bytes(page).expect("entry pages are pre-installed");
            out[pos..pos + n].copy_from_slice(&bytes[off..off + n]);
            pos += n;
        }
        out.into_boxed_slice()
    }

    /// Raw range write into frames and (where present) twins: incoming
    /// region images must not masquerade as local writes.
    fn write_range(&mut self, mem: &mut FrameTable, addr: usize, data: &[u8]) {
        let g = self.layout.geometry;
        let mut pos = 0;
        while pos < data.len() {
            let a = GlobalAddr(addr + pos);
            let page = g.page_of(a);
            let off = g.offset_in_page(a);
            let n = (g.page_size() - off).min(data.len() - pos);
            let bytes = mem
                .page_bytes_mut(page)
                .expect("entry pages are pre-installed");
            bytes[off..off + n].copy_from_slice(&data[pos..pos + n]);
            if let Some(twin) = self.twins.get_mut(&page.0) {
                twin[off..off + n].copy_from_slice(&data[pos..pos + n]);
            }
            pos += n;
        }
    }

    /// Copy the current content of a region into existing twins so the
    /// region's bytes drop out of this node's next barrier diff (the
    /// data's ownership moved on with the lock).
    fn absorb_region_into_twins(&mut self, mem: &FrameTable, addr: usize, len: usize) {
        let g = self.layout.geometry;
        let mut pos = 0;
        while pos < len {
            let a = GlobalAddr(addr + pos);
            let page = g.page_of(a);
            let off = g.offset_in_page(a);
            let n = (g.page_size() - off).min(len - pos);
            if let Some(twin) = self.twins.get_mut(&page.0) {
                let bytes = mem.page_bytes(page).expect("pre-installed");
                twin[off..off + n].copy_from_slice(&bytes[off..off + n]);
            }
            pos += n;
        }
    }

    fn region_images(&self, mem: &FrameTable, lock: LockId) -> Vec<(usize, Box<[u8]>)> {
        self.regions
            .get(&lock)
            .map(|rs| {
                rs.iter()
                    .map(|&(addr, len)| (addr, self.read_range(mem, addr, len)))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// End this node's holding of `lock`: diff the guarded regions
    /// against the acquire-time snapshot and append a new version if
    /// anything changed. Also absorbs the regions into the barrier
    /// twins (the data's ownership moves on with the lock).
    fn close_holding(&mut self, mem: &FrameTable, lock: LockId) {
        let regions = self.regions.get(&lock).cloned().unwrap_or_default();
        let snapshot = self.locks.entry(lock).or_default().snapshot.take();
        if let Some(snapshot) = snapshot {
            let mut changes: Vec<(u32, PageDiff)> = Vec::new();
            for (i, (&(addr, len), snap)) in regions.iter().zip(&snapshot).enumerate() {
                let cur = self.read_range(mem, addr, len);
                let d = PageDiff::create(snap, &cur);
                if !d.is_empty() {
                    changes.push((i as u32, d));
                }
            }
            if !changes.is_empty() {
                let state = self.locks.entry(lock).or_default();
                state.version += 1;
                let v = state.version;
                state.log.push((v, changes));
            }
        }
        for (addr, len) in regions {
            self.absorb_region_into_twins(mem, addr, len);
        }
    }

    /// Apply one version's changes to the local view of the regions.
    fn apply_changes(&mut self, mem: &mut FrameTable, lock: LockId, changes: &[(u32, PageDiff)]) {
        let regions = self.regions.get(&lock).cloned().unwrap_or_default();
        for (idx, diff) in changes {
            let (addr, len) = regions[*idx as usize];
            let mut buf = self.read_range(mem, addr, len).into_vec();
            diff.apply(&mut buf);
            self.write_range(mem, addr, &buf);
        }
    }
}

impl Protocol for Entry {
    fn pre_release(
        &mut self,
        _io: &mut dyn ProtoIo,
        mem: &mut FrameTable,
        lock: Option<LockId>,
    ) -> bool {
        // Version the guarded regions at every release, including
        // local-token releases: a later re-acquire must not fold the
        // previous holding's writes into a fresh snapshot.
        if let Some(lock) = lock {
            self.close_holding(mem, lock);
        }
        true
    }

    fn on_start(&mut self, _io: &mut dyn ProtoIo, mem: &mut FrameTable) {
        // Every node starts with a full, zeroed, read-only view;
        // consistency is maintained purely at synchronization entries.
        for p in 0..self.layout.total_pages {
            mem.install_zeroed(PageId(p), Access::Read);
        }
    }

    fn read_fault_batch(
        &mut self,
        _io: &mut dyn ProtoIo,
        mem: &mut FrameTable,
        pages: &[PageId],
    ) -> (bool, Vec<PageId>) {
        // Cannot normally happen (all pages readable); tolerate for
        // robustness. Always synchronous, so candidates are moot.
        debug_assert!(!pages.is_empty());
        if mem.page_bytes(pages[0]).is_none() {
            mem.install_zeroed(pages[0], Access::Read);
        }
        (true, Vec::new())
    }

    fn write_fault(&mut self, _io: &mut dyn ProtoIo, mem: &mut FrameTable, page: PageId) -> bool {
        // First write since the last barrier: snapshot a twin for the
        // barrier diff, then write locally.
        let p = page.0;
        self.twins.entry(p).or_insert_with(|| {
            mem.page_bytes(page)
                .expect("pre-installed")
                .to_vec()
                .into_boxed_slice()
        });
        mem.set_access(page, Access::Write);
        true
    }

    fn on_message(
        &mut self,
        _io: &mut dyn ProtoIo,
        _mem: &mut FrameTable,
        _from: NodeId,
        msg: ProtoMsg,
        _events: &mut Vec<ProtoEvent>,
    ) {
        panic!(
            "entry consistency uses no coherence messages, got {}",
            dsm_net::Payload::kind(&msg)
        );
    }

    fn acquire_reqinfo(&mut self, _mem: &mut FrameTable, lock: LockId) -> Piggy {
        Piggy::EntryVer(self.locks.entry(lock).or_default().version)
    }

    fn grant_piggy(
        &mut self,
        _io: &mut dyn ProtoIo,
        mem: &mut FrameTable,
        lock: LockId,
        _to: NodeId,
        reqinfo: &Piggy,
    ) -> Piggy {
        let their_version = match reqinfo {
            Piggy::EntryVer(v) => *v,
            Piggy::None => 0,
            other => panic!("entry grant with unexpected reqinfo {other:?}"),
        };
        // The holding was closed by pre_release; a parked-token grant
        // (never held here) closes trivially.
        self.close_holding(mem, lock);
        let state = self.locks.entry(lock).or_default();
        let missing: Vec<(u64, Vec<(u32, PageDiff)>)> = state
            .log
            .iter()
            .filter(|(v, _)| *v > their_version)
            .map(|(v, ch)| (*v, ch.clone()))
            .collect();
        Piggy::EntryLog(missing)
    }

    fn release_piggy(&mut self, io: &mut dyn ProtoIo, mem: &mut FrameTable, lock: LockId) -> Piggy {
        // Centralized server deposit: the grantee's version is unknown,
        // so deposit the full log (the receiver filters by version).
        self.grant_piggy(io, mem, lock, self.me, &Piggy::None)
    }

    fn on_acquired(
        &mut self,
        _io: &mut dyn ProtoIo,
        mem: &mut FrameTable,
        lock: LockId,
        piggy: Piggy,
    ) {
        match piggy {
            Piggy::EntryLog(entries) => {
                for (v, changes) in entries {
                    let state = self.locks.entry(lock).or_default();
                    if v <= state.version {
                        continue; // central-server deposits overlap
                    }
                    self.apply_changes(mem, lock, &changes);
                    let state = self.locks.entry(lock).or_default();
                    state.version = v;
                    state.log.push((v, changes));
                }
            }
            Piggy::None => {} // first acquisition ever: zeros are current
            other => panic!("entry acquired with unexpected piggy {other:?}"),
        }
        // Snapshot the regions: the diff basis for our own writes.
        let images = self
            .region_images(mem, lock)
            .into_iter()
            .map(|(_, b)| b)
            .collect();
        self.locks.entry(lock).or_default().snapshot = Some(images);
    }

    fn sync_depart(&mut self, _io: &mut dyn ProtoIo, mem: &mut FrameTable) -> Piggy {
        let twins = std::mem::take(&mut self.twins);
        let mut diffs = Vec::with_capacity(twins.len());
        for (page, twin) in twins {
            let cur = mem.page_bytes(PageId(page)).expect("pre-installed");
            let d = PageDiff::create(&twin, cur);
            mem.set_access(PageId(page), Access::Read);
            if !d.is_empty() {
                diffs.push((page, d));
            }
        }
        diffs.sort_by_key(|(p, _)| *p);
        // Attach every lock's version plus the entries created since the
        // last barrier, so barriers synchronize guarded data too.
        let mut locks: Vec<(u32, u64, EntryUpdateLog)> = self
            .locks
            .iter()
            .map(|(lock, st)| {
                let fresh: Vec<_> = st
                    .log
                    .iter()
                    .filter(|(v, _)| *v > st.synced_at_barrier)
                    .cloned()
                    .collect();
                (*lock, st.version, fresh)
            })
            .collect();
        locks.sort_by_key(|(l, _, _)| *l);
        Piggy::EntryArrive { diffs, locks }
    }

    fn merge_barrier(
        &mut self,
        _io: &mut dyn ProtoIo,
        mem: &mut FrameTable,
        arrivals: Vec<SyncEnvelope<Piggy>>,
        nnodes: u32,
    ) -> Vec<SyncEnvelope<Piggy>> {
        use std::collections::BTreeMap;
        // Apply everyone's (disjoint) page diffs to our own view, pool
        // the lock-log entries, then give each node the merged page
        // images plus the log entries its version lacks.
        let mut dirty: Vec<usize> = Vec::new();
        let mut pool: BTreeMap<u32, BTreeMap<u64, Vec<(u32, PageDiff)>>> = BTreeMap::new();
        let mut versions: Vec<Vec<(u32, u64)>> = vec![Vec::new(); nnodes as usize];
        for env in arrivals {
            let node = env.node;
            match env.payload {
                Piggy::EntryArrive { diffs, locks } => {
                    for (page, diff) in diffs {
                        let bytes = mem.page_bytes_mut(PageId(page)).expect("pre-installed");
                        diff.apply(bytes);
                        dirty.push(page);
                    }
                    for (lock, version, entries) in locks {
                        versions[node.index()].push((lock, version));
                        let slot = pool.entry(lock).or_default();
                        for (v, ch) in entries {
                            slot.entry(v).or_insert(ch);
                        }
                    }
                }
                other => panic!("entry barrier arrival with {other:?}"),
            }
        }
        dirty.sort_unstable();
        dirty.dedup();
        (0..nnodes)
            .map(|i| {
                let node = NodeId(i);
                let images: Vec<(usize, Box<[u8]>)> = dirty
                    .iter()
                    .map(|&p| {
                        (
                            p * self.layout.geometry.page_size(),
                            mem.page_bytes(PageId(p))
                                .unwrap()
                                .to_vec()
                                .into_boxed_slice(),
                        )
                    })
                    .collect();
                let locks: Vec<(u32, EntryUpdateLog)> = pool
                    .iter()
                    .map(|(lock, entries)| {
                        let have = versions[node.index()]
                            .iter()
                            .find(|(l, _)| l == lock)
                            .map(|(_, v)| *v)
                            .unwrap_or(0);
                        let missing: Vec<_> = entries
                            .iter()
                            .filter(|(v, _)| **v > have)
                            .map(|(v, ch)| (*v, ch.clone()))
                            .collect();
                        (*lock, missing)
                    })
                    .collect();
                SyncEnvelope::new(
                    node,
                    Piggy::EntryRelease {
                        pages: images,
                        locks,
                    },
                )
            })
            .collect()
    }

    fn sync_arrive(&mut self, _io: &mut dyn ProtoIo, mem: &mut FrameTable, piggy: Piggy) {
        match piggy {
            Piggy::EntryRelease { pages, locks } => {
                let g = self.layout.geometry;
                for (addr, bytes) in pages {
                    debug_assert_eq!(bytes.len(), g.page_size());
                    let page = g.page_of(GlobalAddr(addr));
                    mem.install(page, bytes, Access::Read);
                }
                // Ingest missing lock entries, then rebuild every
                // guarded region from its full log: the merged page
                // images may contain a stale view of guarded bytes.
                for (lock, entries) in locks {
                    let st = self.locks.entry(lock).or_default();
                    for (v, ch) in entries {
                        if v > st.version {
                            st.version = v;
                            st.log.push((v, ch));
                        }
                    }
                }
                let lock_ids: Vec<u32> = self.regions.keys().copied().collect();
                for lock in lock_ids {
                    let log = self
                        .locks
                        .get(&lock)
                        .map(|st| st.log.clone())
                        .unwrap_or_default();
                    for (_, changes) in &log {
                        self.apply_changes(mem, lock, changes);
                    }
                    let st = self.locks.entry(lock).or_default();
                    st.synced_at_barrier = st.version;
                }
            }
            Piggy::None => {}
            other => panic!("entry barrier release with {other:?}"),
        }
    }
}
