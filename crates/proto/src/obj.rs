//! Object-granularity sharing: coherence units are application objects,
//! not pages.
//!
//! Pages are the wrong coherence unit when unrelated data shares a
//! page: every write ping-pongs the whole page (false sharing). This
//! protocol keeps a per-object directory instead. Each object (from an
//! immutable [`ObjTable`] known identically everywhere) has a *home*
//! (directory authority) and a single *owner* holding its current
//! image:
//!
//! * acquiring an object for mutation transfers ownership of exactly
//!   that object — one [`ObjData`](ProtoMsg::ObjData) message, no page
//!   invalidation anywhere;
//! * acquiring it for reading replicates a read-only copy from the
//!   owner;
//! * replicas self-invalidate at synchronization entries (lock acquire,
//!   barrier departure→arrival), so no invalidation traffic exists at
//!   all — release-consistency-correct for data-race-free programs;
//! * lock releases piggyback only the objects dirtied while the lock
//!   was held (entry-consistency style: the images ride the grant).
//!
//! Requests route requester → home → owner; the home optimistically
//! advances its directory on every write forward (consecutive writers
//! chain, like IVY's probable owners but exact). A forward that reaches
//! a node which neither owns nor is about to own the object (link
//! reordering) bounces back to the home for re-routing.
//!
//! Ordinary page traffic — and the whole sync fabric — delegates to an
//! embedded [`Entry`] instance, so programs mix page and object data
//! freely and the determinism story is entry consistency's.
//!
//! ## Programming contract (Midway's, applied to objects)
//!
//! Programs must be data-race-free. An object mutated under a lock is
//! *bound* to that lock: every mutation and every guarded read of it
//! must happen while holding it (the lock's log is that object's update
//! channel). Objects synchronized only by barriers must not appear in
//! lock piggybacks; their freshness comes from replica drop + on-demand
//! fetch from the owner, which always holds the latest image.

use crate::api::{ProtoEvent, ProtoIo, Protocol};
use crate::entry::{Entry, EntryBinding};
use crate::msg::{Piggy, ProtoMsg};
use dsm_mem::{FrameTable, ObjTable, PageId, SpaceLayout};
use dsm_net::NodeId;
use dsm_sync::{LockId, SyncEnvelope};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

/// One lock's piggyback log: obj → (version, latest image).
type ObjLog = BTreeMap<u32, (u64, Box<[u8]>)>;

/// Object-granularity protocol state for one node.
pub struct Obj {
    /// Embedded entry-consistency instance: all page traffic and the
    /// sync fabric delegate to it.
    core: Entry,
    me: NodeId,
    objects: Arc<ObjTable>,
    /// Local object images: owned masters and read replicas.
    store: HashMap<u32, Box<[u8]>>,
    /// Objects this node currently owns (image in `store` is *the*
    /// latest; exclusive mutation right).
    owned: HashSet<u32>,
    /// Owned objects pinned by an in-progress local mutation: remote
    /// requests defer until [`Protocol::obj_publish`].
    pinned: HashSet<u32>,
    /// Home side: current owner of each object homed here (absent =
    /// still ourselves). Advanced optimistically on write forwards.
    dir: HashMap<u32, NodeId>,
    /// Outstanding local fetches: obj → write?. At most one per parked
    /// application operation.
    want: HashMap<u32, bool>,
    /// Forwards that cannot be served yet (object pinned, or ownership
    /// still inbound): drained at op retirement and publish.
    deferred: Vec<(u32, NodeId, bool)>,
    /// Locks currently held (dirty objects are captured per held lock).
    held: Vec<LockId>,
    /// Per-lock version counter for the object piggyback log.
    lock_ver: HashMap<LockId, u64>,
    /// Per-lock log: obj → (version, image); a grant ships entries
    /// newer than the requester's version. Pruned at barriers (the
    /// on-demand fetch path keeps pruning safe).
    lock_log: HashMap<LockId, ObjLog>,
    /// Objects published while holding each lock, since its acquire.
    dirty: HashMap<LockId, BTreeMap<u32, Box<[u8]>>>,
}

impl Obj {
    pub fn new(
        me: NodeId,
        layout: SpaceLayout,
        bindings: &[EntryBinding],
        objects: Arc<ObjTable>,
    ) -> Self {
        Obj {
            core: Entry::new(me, layout, bindings),
            me,
            objects,
            store: HashMap::new(),
            owned: HashSet::new(),
            pinned: HashSet::new(),
            dir: HashMap::new(),
            want: HashMap::new(),
            deferred: Vec::new(),
            held: Vec::new(),
            lock_ver: HashMap::new(),
            lock_log: HashMap::new(),
            dirty: HashMap::new(),
        }
    }

    /// Install the zeroed master image of every object homed here.
    fn install_homed(&mut self) {
        let objects = Arc::clone(&self.objects);
        for obj in objects.homed_at(self.me) {
            self.owned.insert(obj);
            self.store
                .insert(obj, vec![0u8; objects.len_of(obj)].into_boxed_slice());
        }
    }

    /// Start a fetch for `obj` (the caller verified it is not already
    /// satisfiable locally).
    fn request(&mut self, io: &mut dyn ProtoIo, obj: u32, write: bool) {
        let home = self.objects.home(obj);
        if home == self.me {
            self.route_as_home(io, obj, self.me, write);
        } else {
            io.send(home, ProtoMsg::ObjReq { obj, write });
        }
    }

    /// Directory routing at the object's home: forward to the current
    /// owner (serving locally if that is us). Write requests advance
    /// the directory optimistically — the requester is guaranteed to
    /// eventually own, so consecutive writers chain without waiting for
    /// the transfer to complete.
    fn route_as_home(&mut self, io: &mut dyn ProtoIo, obj: u32, requester: NodeId, write: bool) {
        debug_assert_eq!(self.objects.home(obj), self.me);
        let owner = self.dir.get(&obj).copied().unwrap_or(self.me);
        if write && requester != self.me {
            self.dir.insert(obj, requester);
        } else if write {
            self.dir.remove(&obj);
        }
        if owner == self.me {
            self.handle_fwd(io, obj, requester, write);
        } else {
            io.send(
                owner,
                ProtoMsg::ObjFwd {
                    obj,
                    requester,
                    write,
                },
            );
        }
    }

    /// A forward reached us (the supposed owner). Serve, defer, or
    /// bounce it back to the home.
    fn handle_fwd(&mut self, io: &mut dyn ProtoIo, obj: u32, requester: NodeId, write: bool) {
        if requester == self.me {
            // A forward for our own request caught up after the request
            // was already satisfied (duplicate delivery): drop it.
            let satisfied = if write {
                self.owned.contains(&obj)
            } else {
                self.store.contains_key(&obj)
            };
            if satisfied {
                return;
            }
        }
        if self.owned.contains(&obj) {
            if self.pinned.contains(&obj) {
                self.deferred.push((obj, requester, write));
            } else {
                self.serve(io, obj, requester, write);
            }
        } else if self.want.get(&obj) == Some(&true) {
            // Ownership is inbound to us; answer once we have published.
            self.deferred.push((obj, requester, write));
        } else {
            // Stale forward: ownership moved on before it arrived.
            // Bounce to the home, which re-routes via the current
            // directory.
            let home = self.objects.home(obj);
            if home == self.me {
                self.route_as_home(io, obj, requester, write);
            } else {
                io.send(
                    home,
                    ProtoMsg::ObjFwd {
                        obj,
                        requester,
                        write,
                    },
                );
            }
        }
    }

    /// Serve `obj` to `requester`: ownership transfer (we forget the
    /// image) or read replica (we keep it).
    fn serve(&mut self, io: &mut dyn ProtoIo, obj: u32, requester: NodeId, write: bool) {
        debug_assert!(self.owned.contains(&obj) && !self.pinned.contains(&obj));
        let data = if write {
            self.owned.remove(&obj);
            self.store.remove(&obj).expect("owned objects have images")
        } else {
            self.store
                .get(&obj)
                .expect("owned objects have images")
                .clone()
        };
        io.send(requester, ProtoMsg::ObjData { obj, data, write });
    }

    /// Re-examine every deferred forward (ownership or pinning may have
    /// changed); still-unservable ones re-defer.
    fn drain_deferred(&mut self, io: &mut dyn ProtoIo) {
        let deferred = std::mem::take(&mut self.deferred);
        for (obj, requester, write) in deferred {
            self.handle_fwd(io, obj, requester, write);
        }
    }

    /// Drop every unowned replica: entering a synchronization point
    /// invalidates them (release consistency without invalidation
    /// messages).
    fn drop_replicas(&mut self) {
        let owned = &self.owned;
        self.store.retain(|obj, _| owned.contains(obj));
    }

    /// Move the objects published under `lock` into its grant log as
    /// one new version.
    fn roll_dirty(&mut self, lock: LockId) {
        let Some(dirty) = self.dirty.remove(&lock) else {
            return;
        };
        if dirty.is_empty() {
            return;
        }
        let ver = {
            let v = self.lock_ver.entry(lock).or_default();
            *v += 1;
            *v
        };
        let log = self.lock_log.entry(lock).or_default();
        for (obj, image) in dirty {
            log.insert(obj, (ver, image));
        }
    }

    /// Log entries of `lock` newer than `their_ver`, for a grant.
    fn log_since(&self, lock: LockId, their_ver: u64) -> Vec<(u32, u64, Box<[u8]>)> {
        self.lock_log
            .get(&lock)
            .map(|log| {
                log.iter()
                    .filter(|(_, (v, _))| *v > their_ver)
                    .map(|(obj, (v, image))| (*obj, *v, image.clone()))
                    .collect()
            })
            .unwrap_or_default()
    }
}

impl Protocol for Obj {
    fn on_start(&mut self, io: &mut dyn ProtoIo, mem: &mut FrameTable) {
        self.core.on_start(io, mem);
        self.install_homed();
    }

    fn read_fault_batch(
        &mut self,
        io: &mut dyn ProtoIo,
        mem: &mut FrameTable,
        pages: &[PageId],
    ) -> (bool, Vec<PageId>) {
        self.core.read_fault_batch(io, mem, pages)
    }

    fn write_fault(&mut self, io: &mut dyn ProtoIo, mem: &mut FrameTable, page: PageId) -> bool {
        self.core.write_fault(io, mem, page)
    }

    fn on_message(
        &mut self,
        io: &mut dyn ProtoIo,
        mem: &mut FrameTable,
        from: NodeId,
        msg: ProtoMsg,
        events: &mut Vec<ProtoEvent>,
    ) {
        match msg {
            ProtoMsg::ObjReq { obj, write } => {
                debug_assert_eq!(self.objects.home(obj), self.me, "ObjReq must hit the home");
                self.route_as_home(io, obj, from, write);
            }
            ProtoMsg::ObjFwd {
                obj,
                requester,
                write,
            } => {
                if self.objects.home(obj) == self.me {
                    // A bounced forward came back: re-route it.
                    self.route_as_home(io, obj, requester, write);
                } else {
                    self.handle_fwd(io, obj, requester, write);
                }
            }
            ProtoMsg::ObjData { obj, data, write } => {
                if !write && self.owned.contains(&obj) {
                    // Stale read replica arriving after we became the
                    // owner: our image is fresher by definition.
                    return;
                }
                self.want.remove(&obj);
                if write {
                    self.owned.insert(obj);
                }
                self.store.insert(obj, data);
                events.push(ProtoEvent::ObjReady(obj));
            }
            other => self.core.on_message(io, mem, from, other, events),
        }
    }

    fn op_retired(&mut self, io: &mut dyn ProtoIo, mem: &mut FrameTable) {
        self.drain_deferred(io);
        self.core.op_retired(io, mem);
    }

    fn pre_release(
        &mut self,
        io: &mut dyn ProtoIo,
        mem: &mut FrameTable,
        lock: Option<LockId>,
    ) -> bool {
        if let Some(lock) = lock {
            self.roll_dirty(lock);
            self.held.retain(|&h| h != lock);
        }
        self.core.pre_release(io, mem, lock)
    }

    fn acquire_reqinfo(&mut self, mem: &mut FrameTable, lock: LockId) -> Piggy {
        Piggy::Obj {
            ver: self.lock_ver.get(&lock).copied().unwrap_or(0),
            objs: Vec::new(),
            inner: Box::new(self.core.acquire_reqinfo(mem, lock)),
        }
    }

    fn grant_piggy(
        &mut self,
        io: &mut dyn ProtoIo,
        mem: &mut FrameTable,
        lock: LockId,
        to: NodeId,
        reqinfo: &Piggy,
    ) -> Piggy {
        let (their_ver, inner_req) = match reqinfo {
            Piggy::Obj { ver, inner, .. } => (*ver, inner.as_ref()),
            Piggy::None => (0, &Piggy::None),
            other => panic!("obj grant with unexpected reqinfo {other:?}"),
        };
        // Normally a no-op (pre_release rolled it), but a parked-token
        // grant must not lose a holding that ended here.
        self.roll_dirty(lock);
        let objs = self.log_since(lock, their_ver);
        Piggy::Obj {
            ver: self.lock_ver.get(&lock).copied().unwrap_or(0),
            objs,
            inner: Box::new(self.core.grant_piggy(io, mem, lock, to, inner_req)),
        }
    }

    fn release_piggy(&mut self, io: &mut dyn ProtoIo, mem: &mut FrameTable, lock: LockId) -> Piggy {
        // Centralized deposit: the grantee's version is unknown, so
        // deposit the full log (receivers filter by version).
        self.roll_dirty(lock);
        Piggy::Obj {
            ver: self.lock_ver.get(&lock).copied().unwrap_or(0),
            objs: self.log_since(lock, 0),
            inner: Box::new(self.core.release_piggy(io, mem, lock)),
        }
    }

    fn on_acquired(
        &mut self,
        io: &mut dyn ProtoIo,
        mem: &mut FrameTable,
        lock: LockId,
        piggy: Piggy,
    ) {
        self.held.push(lock);
        // Synchronization entry: local replicas may now be stale.
        self.drop_replicas();
        match piggy {
            Piggy::Obj { ver, objs, inner } => {
                for (obj, over, image) in objs {
                    let log = self.lock_log.entry(lock).or_default();
                    let newer = log.get(&obj).is_none_or(|(v, _)| over > *v);
                    if newer {
                        log.insert(obj, (over, image.clone()));
                    }
                    // Owned images are always at least as fresh as any
                    // lock-log entry (mutations require ownership).
                    if !self.owned.contains(&obj) {
                        self.store.insert(obj, image);
                    }
                }
                let lv = self.lock_ver.entry(lock).or_default();
                *lv = (*lv).max(ver);
                self.core.on_acquired(io, mem, lock, *inner);
            }
            Piggy::None => self.core.on_acquired(io, mem, lock, Piggy::None),
            other => panic!("obj acquired with unexpected piggy {other:?}"),
        }
    }

    fn sync_depart(&mut self, io: &mut dyn ProtoIo, mem: &mut FrameTable) -> Piggy {
        self.core.sync_depart(io, mem)
    }

    fn merge_barrier(
        &mut self,
        io: &mut dyn ProtoIo,
        mem: &mut FrameTable,
        arrivals: Vec<SyncEnvelope<Piggy>>,
        nnodes: u32,
    ) -> Vec<SyncEnvelope<Piggy>> {
        self.core.merge_barrier(io, mem, arrivals, nnodes)
    }

    fn sync_arrive(&mut self, io: &mut dyn ProtoIo, mem: &mut FrameTable, piggy: Piggy) {
        // Synchronization entry: drop replicas, and prune the lock logs
        // (safe — post-barrier freshness comes from on-demand fetch;
        // the logs are purely a grant-latency optimization). `dirty`
        // survives: a lock may be held across the barrier.
        self.drop_replicas();
        for log in self.lock_log.values_mut() {
            log.clear();
        }
        self.core.sync_arrive(io, mem, piggy);
    }

    fn obj_fetch(&mut self, io: &mut dyn ProtoIo, obj: u32, write: bool) -> Option<&[u8]> {
        let hit = if write {
            self.owned.contains(&obj)
        } else {
            self.store.contains_key(&obj)
        };
        if hit {
            if write {
                self.pinned.insert(obj);
            }
            return Some(self.store.get(&obj).expect("hit objects have images"));
        }
        // Issue (or upgrade read → write) a fetch at most once.
        let upgrade = write && self.want.get(&obj) == Some(&false);
        if !self.want.contains_key(&obj) || upgrade {
            self.want.insert(obj, write);
            self.request(io, obj, write);
        }
        None
    }

    fn obj_publish(&mut self, io: &mut dyn ProtoIo, obj: u32, data: &[u8]) {
        debug_assert!(
            self.owned.contains(&obj) && self.pinned.contains(&obj),
            "publish of an object not acquired for mutation"
        );
        debug_assert_eq!(data.len(), self.objects.len_of(obj));
        let image: Box<[u8]> = data.into();
        self.store.insert(obj, image.clone());
        self.pinned.remove(&obj);
        for &lock in &self.held {
            self.dirty
                .entry(lock)
                .or_default()
                .insert(obj, image.clone());
        }
        self.drain_deferred(io);
    }

    fn on_crash(&mut self, mem: &mut FrameTable) {
        self.store.clear();
        self.owned.clear();
        self.pinned.clear();
        self.dir.clear();
        self.want.clear();
        self.deferred.clear();
        self.held.clear();
        self.lock_ver.clear();
        self.lock_log.clear();
        self.dirty.clear();
        self.core.on_crash(mem);
    }

    fn on_recover(&mut self, io: &mut dyn ProtoIo, mem: &mut FrameTable) {
        self.install_homed();
        self.core.on_recover(io, mem);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fake_io::FakeIo;
    use dsm_mem::{GlobalAddr, ObjRecord, PageGeometry, Placement};
    use dsm_net::CostModel;

    fn io() -> FakeIo {
        FakeIo::new(CostModel::lan_1992())
    }

    /// 3 nodes; objects 0/1/2 of 16 bytes homed at nodes 0/1/2.
    fn table() -> Arc<ObjTable> {
        let mut t = ObjTable::new();
        for i in 0..3u32 {
            t.push(ObjRecord {
                addr: GlobalAddr(i as usize * 16),
                len: 16,
                home: NodeId(i),
            });
        }
        Arc::new(t)
    }

    fn setup(me: u32) -> (Obj, FrameTable) {
        let layout = SpaceLayout::new(PageGeometry::new(64), 256, Placement::Cyclic, 3);
        let mut p = Obj::new(NodeId(me), layout, &[], table());
        let mut mem = FrameTable::new(layout.geometry);
        let mut i = io();
        p.on_start(&mut i, &mut mem);
        assert!(i.sent.is_empty());
        (p, mem)
    }

    fn deliver(
        p: &mut Obj,
        mem: &mut FrameTable,
        i: &mut FakeIo,
        from: u32,
        msg: ProtoMsg,
    ) -> Vec<ProtoEvent> {
        let mut ev = Vec::new();
        p.on_message(i, mem, NodeId(from), msg, &mut ev);
        ev
    }

    #[test]
    fn homed_objects_start_owned_zeroed_and_fetch_locally() {
        let (mut p, _mem) = setup(1);
        let mut i = io();
        // Owned: write fetch hits locally and pins.
        let bytes = p.obj_fetch(&mut i, 1, true).expect("home owns its objects");
        assert_eq!(bytes, &[0u8; 16]);
        assert!(i.sent.is_empty());
        // Not homed here: nothing installed.
        assert!(p.obj_fetch(&mut i, 0, false).is_none());
        assert!(matches!(
            &i.sent[..],
            [(
                NodeId(0),
                ProtoMsg::ObjReq {
                    obj: 0,
                    write: false
                }
            )]
        ));
    }

    #[test]
    fn write_fetch_transfers_ownership_from_the_home() {
        let (mut p, mut mem) = setup(1);
        let mut i = io();
        assert!(p.obj_fetch(&mut i, 0, true).is_none());
        assert!(matches!(
            &i.sent[..],
            [(
                NodeId(0),
                ProtoMsg::ObjReq {
                    obj: 0,
                    write: true
                }
            )]
        ));
        i.sent.clear();
        // Home answers with an ownership transfer.
        let ev = deliver(
            &mut p,
            &mut mem,
            &mut i,
            0,
            ProtoMsg::ObjData {
                obj: 0,
                data: vec![7u8; 16].into_boxed_slice(),
                write: true,
            },
        );
        assert_eq!(ev, vec![ProtoEvent::ObjReady(0)]);
        // Retry now hits, pins, and a publish installs the new image.
        let bytes = p.obj_fetch(&mut i, 0, true).expect("owned after transfer");
        assert_eq!(bytes, &[7u8; 16]);
        p.obj_publish(&mut i, 0, &[9u8; 16]);
        assert_eq!(p.obj_fetch(&mut i, 0, false), Some(&[9u8; 16][..]));
        // We served nothing: only the request left this node.
        assert_eq!(i.sent.len(), 0);
    }

    #[test]
    fn home_serves_writes_and_chains_consecutive_writers() {
        let (mut p, mut mem) = setup(0);
        let mut i = io();
        // Writer 1 asks the home: served directly (home owns), and the
        // home forgets the image.
        let ev = deliver(
            &mut p,
            &mut mem,
            &mut i,
            1,
            ProtoMsg::ObjReq {
                obj: 0,
                write: true,
            },
        );
        assert!(ev.is_empty());
        assert!(matches!(
            &i.sent[..],
            [(
                NodeId(1),
                ProtoMsg::ObjData {
                    obj: 0,
                    write: true,
                    ..
                }
            )]
        ));
        i.sent.clear();
        assert!(p.obj_fetch(&mut i, 0, false).is_none()); // image gone
        i.sent.clear();
        // Writer 2 asks: the directory chains the forward to writer 1
        // without waiting for the transfer to land.
        let ev = deliver(
            &mut p,
            &mut mem,
            &mut i,
            2,
            ProtoMsg::ObjReq {
                obj: 0,
                write: true,
            },
        );
        assert!(ev.is_empty());
        assert!(matches!(
            &i.sent[..],
            [(
                NodeId(1),
                ProtoMsg::ObjFwd {
                    obj: 0,
                    requester: NodeId(2),
                    write: true
                }
            )]
        ));
    }

    #[test]
    fn read_requests_replicate_without_moving_ownership() {
        let (mut p, mut mem) = setup(0);
        let mut i = io();
        deliver(
            &mut p,
            &mut mem,
            &mut i,
            2,
            ProtoMsg::ObjReq {
                obj: 0,
                write: false,
            },
        );
        assert!(matches!(
            &i.sent[..],
            [(
                NodeId(2),
                ProtoMsg::ObjData {
                    obj: 0,
                    write: false,
                    ..
                }
            )]
        ));
        // Home still owns and serves further readers.
        assert!(p.obj_fetch(&mut io(), 0, false).is_some());
    }

    #[test]
    fn pinned_objects_defer_remote_requests_until_publish() {
        let (mut p, mut mem) = setup(0);
        let mut i = io();
        p.obj_fetch(&mut i, 0, true).expect("home owns");
        // A remote write request arrives mid-mutation: deferred.
        let ev = deliver(
            &mut p,
            &mut mem,
            &mut i,
            1,
            ProtoMsg::ObjReq {
                obj: 0,
                write: true,
            },
        );
        assert!(ev.is_empty() && i.sent.is_empty());
        // Publish releases the pin and serves the deferred transfer
        // with the *new* image.
        p.obj_publish(&mut i, 0, &[5u8; 16]);
        match &i.sent[..] {
            [(
                NodeId(1),
                ProtoMsg::ObjData {
                    obj: 0,
                    data,
                    write: true,
                },
            )] => {
                assert_eq!(&data[..], &[5u8; 16]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn stale_forward_bounces_back_to_the_home() {
        // Node 1 is neither owner of obj 0 nor expecting it; a read
        // forward that chased a moved ownership bounces home.
        let (mut p, mut mem) = setup(1);
        let mut i = io();
        let ev = deliver(
            &mut p,
            &mut mem,
            &mut i,
            0,
            ProtoMsg::ObjFwd {
                obj: 0,
                requester: NodeId(2),
                write: false,
            },
        );
        assert!(ev.is_empty());
        assert!(matches!(
            &i.sent[..],
            [(
                NodeId(0),
                ProtoMsg::ObjFwd {
                    obj: 0,
                    requester: NodeId(2),
                    write: false
                }
            )]
        ));
    }

    #[test]
    fn lock_release_piggybacks_only_objects_dirtied_under_the_lock() {
        let (mut p, mut mem) = setup(0);
        let mut i = io();
        // Acquire lock 7 (first ever: nothing rides the grant).
        p.on_acquired(&mut i, &mut mem, 7, Piggy::None);
        // Mutate obj 0 under the lock; obj 1 stays untouched.
        p.obj_fetch(&mut i, 0, true).expect("home owns");
        p.obj_publish(&mut i, 0, &[42u8; 16]);
        assert!(p.pre_release(&mut i, &mut mem, Some(7)));
        // Granting to node 2 ships exactly the dirty object at lock
        // version 1.
        let req = Piggy::Obj {
            ver: 0,
            objs: Vec::new(),
            inner: Box::new(Piggy::EntryVer(0)),
        };
        let granted = p.grant_piggy(&mut i, &mut mem, 7, NodeId(2), &req);
        match &granted {
            Piggy::Obj { ver: 1, objs, .. } => {
                assert_eq!(objs.len(), 1);
                assert_eq!(objs[0].0, 0);
                assert_eq!(objs[0].1, 1);
                assert_eq!(&objs[0].2[..], &[42u8; 16]);
            }
            other => panic!("unexpected grant {other:?}"),
        }
        // The receiver installs the image as a replica...
        let (mut p2, mut mem2) = setup(2);
        let mut i2 = io();
        p2.on_acquired(&mut i2, &mut mem2, 7, granted);
        assert_eq!(p2.obj_fetch(&mut i2, 0, false), Some(&[42u8; 16][..]));
        assert!(i2.sent.is_empty());
        // ...and a re-grant with an up-to-date requester ships nothing.
        assert!(p2.pre_release(&mut i2, &mut mem2, Some(7)));
        let req2 = Piggy::Obj {
            ver: 1,
            objs: Vec::new(),
            inner: Box::new(Piggy::EntryVer(0)),
        };
        match p2.grant_piggy(&mut i2, &mut mem2, 7, NodeId(1), &req2) {
            Piggy::Obj { ver: 1, objs, .. } => assert!(objs.is_empty()),
            other => panic!("unexpected grant {other:?}"),
        }
    }

    #[test]
    fn replicas_self_invalidate_at_sync_entries() {
        let (mut p, mut mem) = setup(1);
        let mut i = io();
        // Install a read replica of obj 0.
        p.obj_fetch(&mut i, 0, false);
        deliver(
            &mut p,
            &mut mem,
            &mut i,
            0,
            ProtoMsg::ObjData {
                obj: 0,
                data: vec![3u8; 16].into_boxed_slice(),
                write: false,
            },
        );
        assert!(p.obj_fetch(&mut i, 0, false).is_some());
        // Barrier arrival drops it (owned obj 1 survives); the next
        // read re-fetches from the directory.
        p.sync_arrive(&mut i, &mut mem, Piggy::None);
        i.sent.clear();
        assert!(p.obj_fetch(&mut i, 0, false).is_none());
        assert!(matches!(
            &i.sent[..],
            [(
                NodeId(0),
                ProtoMsg::ObjReq {
                    obj: 0,
                    write: false
                }
            )]
        ));
        assert!(
            p.obj_fetch(&mut i, 1, true).is_some(),
            "owned images survive"
        );
    }
}
