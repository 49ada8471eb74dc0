//! Distributed barriers: centralized manager and k-ary combining tree.
//!
//! The barrier is also a consistency point for most DSM protocols, so
//! arrivals carry per-node piggybacks up to the root, the embedding
//! runtime merges them there (protocol-specific), and per-node payloads
//! flow back down with the release.

use crate::msg::{BarrierId, SyncEnvelope, SyncIo, SyncMsg, SyncPiggy};
use dsm_net::{NodeId, NodeSet};
use std::collections::{BTreeSet, HashMap};

/// Barrier topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BarrierKind {
    /// Every node reports to the root; the root releases everyone.
    Central,
    /// Combining tree with the given arity (≥ 2); arrivals combine on
    /// the way up, releases fan out on the way down.
    Tree(u32),
}

/// Events the engine reports to the embedding runtime.
#[derive(Debug)]
pub enum BarrierEvent<P> {
    /// Root only: everyone has arrived. Merge the contributions and
    /// call [`BarrierEngine::release`] with one payload per node.
    AllArrived {
        id: BarrierId,
        contributions: Vec<SyncEnvelope<P>>,
    },
    /// This node has been released from the barrier with `piggy`.
    Released { id: BarrierId, piggy: P },
}

#[derive(Debug)]
struct PerBarrier<P> {
    /// Contributions gathered from this node's subtree (including its
    /// own) for the current episode.
    gathered: Vec<SyncEnvelope<P>>,
    /// The nodes with an envelope in `gathered`: whether a node has
    /// arrived is one bit test, not a search.
    arrived: NodeSet,
    /// Whether this node itself has arrived in the current episode.
    arrived_self: bool,
}

impl<P> Default for PerBarrier<P> {
    fn default() -> Self {
        PerBarrier {
            gathered: Vec::new(),
            arrived: NodeSet::new(),
            arrived_self: false,
        }
    }
}

impl<P> PerBarrier<P> {
    /// Record `env`. A node that arrived, crashed, recovered and
    /// re-arrived at the still-open episode replaces its stale
    /// contribution.
    fn gather(&mut self, env: SyncEnvelope<P>) {
        if self.arrived.insert(env.node) {
            self.gathered.push(env);
        } else {
            let slot = self.gathered.iter_mut().find(|e| e.node == env.node);
            *slot.expect("arrived nodes have an envelope") = env;
        }
    }
}

/// Per-node barrier engine (root is always node 0).
///
/// # Crash awareness (centralized barrier only)
///
/// The embedding runtime feeds `PeerDown`/`PeerUp` fault notices in via
/// [`BarrierEngine::set_down`] / [`BarrierEngine::set_up`]. A
/// *permanently* dead node is excluded from the expected-arrival set
/// (it must not wedge the survivors); a transiently crashed node keeps
/// being waited for — it will reboot and re-arrive, so every episode
/// stays fully synchronized and crash+recover runs converge to the
/// crash-free image by construction. A node that
/// stays down across several episodes misses several releases, so the
/// root keeps the set of every episode id it has released: when a node
/// that has ever crashed re-arrives at a released, no-longer-open
/// episode, it is re-released solo instead of opening a ghost episode
/// that would wedge everyone. That replay rule is only sound when ids
/// are never reused, so workloads that run under crash/recovery
/// schedules must use a fresh barrier id per episode (e.g. the
/// iteration number) — reusing one id for every iteration is still
/// fine for crash-free runs, where the replay rule never arms.
#[derive(Debug)]
pub struct BarrierEngine<P> {
    kind: BarrierKind,
    me: NodeId,
    nnodes: u32,
    /// Arrivals a crash-free episode gathers here: the size of this
    /// node's subtree, fixed by the topology.
    expected: usize,
    state: HashMap<BarrierId, PerBarrier<P>>,
    /// Peers permanently dead, per the runtime's fault notices.
    down: BTreeSet<u32>,
    /// Root only: every episode id ever released. O(#episodes) — the
    /// price of replaying arbitrarily many missed releases to a
    /// recovered node.
    released: BTreeSet<BarrierId>,
    /// Nodes that have crashed at least once this run: only their
    /// arrivals are eligible for the released-episode replay above.
    crashed_ever: BTreeSet<u32>,
}

impl<P: SyncPiggy> BarrierEngine<P> {
    pub fn new(kind: BarrierKind, me: NodeId, nnodes: u32) -> Self {
        if let BarrierKind::Tree(k) = kind {
            assert!(k >= 2, "tree arity must be >= 2");
        }
        BarrierEngine {
            kind,
            me,
            nnodes,
            expected: Self::subtree_size(kind, nnodes, me) as usize,
            state: HashMap::new(),
            down: BTreeSet::new(),
            released: BTreeSet::new(),
            crashed_ever: BTreeSet::new(),
        }
    }

    pub fn kind(&self) -> BarrierKind {
        self.kind
    }

    /// A peer crashed. Its releases may now be dropped, so remember it
    /// for the re-release replay either way; but only a *permanent*
    /// death excludes it from the expected-arrival set. A peer that
    /// will reboot is merely late — waiting for it keeps every episode
    /// fully synchronized, which is what makes a crash+recover run
    /// converge to the crash-free image by construction rather than by
    /// timing. May complete an open barrier at the root (permanent
    /// case), hence the io/events pair.
    pub fn set_down(
        &mut self,
        io: &mut dyn SyncIo<P>,
        node: NodeId,
        permanent: bool,
        events: &mut Vec<BarrierEvent<P>>,
    ) {
        if let BarrierKind::Tree(_) = self.kind {
            assert!(
                self.nnodes == 1,
                "crash fault schedules require the centralized barrier (got a combining tree)"
            );
        }
        self.crashed_ever.insert(node.0);
        if !permanent {
            return;
        }
        self.down.insert(node.0);
        // A barrier that was only waiting on the dead node is now
        // complete. Deterministic order: sorted open ids.
        let mut ids: Vec<BarrierId> = self.state.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            self.maybe_propagate(io, id, events);
        }
    }

    /// A crashed peer recovered: expect its arrivals again.
    ///
    /// If the recovered peer is the centralized *root*, this node
    /// re-offers every arrival it is still waiting on — the original
    /// arrival messages may have been dropped while the root was down.
    /// Re-offers carry an empty piggyback, which is only sound for
    /// protocols whose barrier piggyback is empty; crash schedules are
    /// restricted to those (see docs/FAULTS.md).
    pub fn set_up(&mut self, io: &mut dyn SyncIo<P>, node: NodeId) {
        self.down.remove(&node.0);
        if self.kind == BarrierKind::Central && node == NodeId(0) && self.me != NodeId(0) {
            let mut ids: Vec<BarrierId> = self
                .state
                .iter()
                .filter(|(_, s)| s.arrived_self)
                .map(|(id, _)| *id)
                .collect();
            ids.sort_unstable();
            for id in ids {
                io.send(
                    NodeId(0),
                    SyncMsg::BarArrive {
                        id,
                        contributions: vec![SyncEnvelope::new(self.me, P::empty())],
                    },
                );
            }
        }
    }

    /// This node crashed: its *client-side* barrier state (which
    /// episodes it has arrived at) is volatile and dies with it, so a
    /// re-driven barrier op can cleanly re-arrive after recovery. The
    /// *service* state — contributions gathered from other nodes and
    /// the root's release ledger — is modeled as surviving the crash
    /// (a fault-tolerant sync service), so only this node's own
    /// arrival marks and contributions are scrubbed.
    pub fn crashed(&mut self) {
        let me = self.me;
        for s in self.state.values_mut() {
            s.arrived_self = false;
            if s.arrived.remove(me) {
                s.gathered.retain(|e| e.node != me);
            }
        }
    }

    fn parent(&self, node: NodeId) -> Option<NodeId> {
        match self.kind {
            BarrierKind::Central => {
                if node.0 == 0 {
                    None
                } else {
                    Some(NodeId(0))
                }
            }
            BarrierKind::Tree(k) => {
                if node.0 == 0 {
                    None
                } else {
                    Some(NodeId((node.0 - 1) / k))
                }
            }
        }
    }

    fn children(&self, node: NodeId) -> Vec<NodeId> {
        match self.kind {
            BarrierKind::Central => {
                if node.0 == 0 {
                    (1..self.nnodes).map(NodeId).collect()
                } else {
                    Vec::new()
                }
            }
            BarrierKind::Tree(k) => (1..=k)
                .map(|i| node.0 * k + i)
                .filter(|&c| c < self.nnodes)
                .map(NodeId)
                .collect(),
        }
    }

    /// Nodes in `node`'s subtree (including itself): level by level,
    /// the subtree is a contiguous range of ids.
    fn subtree_size(kind: BarrierKind, nnodes: u32, node: NodeId) -> u32 {
        match kind {
            BarrierKind::Central if node.0 == 0 => nnodes,
            BarrierKind::Central => 1,
            BarrierKind::Tree(k) => {
                let (k, n) = (k as u64, nnodes as u64);
                let (mut lo, mut hi) = (node.0 as u64, node.0 as u64);
                let mut size = 0;
                while lo < n {
                    size += hi.min(n - 1) - lo + 1;
                    (lo, hi) = (lo * k + 1, hi * k + k);
                }
                size as u32
            }
        }
    }

    /// The child of this node whose subtree holds `node` (a proper
    /// descendant): climb from `node` until the parent is this node.
    fn child_toward(&self, node: NodeId) -> NodeId {
        let mut child = node;
        loop {
            match self.parent(child) {
                Some(p) if p == self.me => return child,
                Some(p) => child = p,
                None => panic!("{node} is not below {} in the barrier tree", self.me),
            }
        }
    }

    /// Send each child the releases of its subtree, in the order they
    /// hold in `releases`: one pass, each envelope dropped into its
    /// owner's message.
    fn forward_releases(
        &self,
        io: &mut dyn SyncIo<P>,
        id: BarrierId,
        releases: Vec<SyncEnvelope<P>>,
    ) {
        let children = self.children(self.me);
        let Some(first) = children.first().map(|c| c.0) else {
            debug_assert!(releases.is_empty(), "stray releases");
            return;
        };
        let mut per_child: Vec<Vec<SyncEnvelope<P>>> =
            children.iter().map(|_| Vec::new()).collect();
        for env in releases {
            // A node's children have consecutive ids.
            per_child[(self.child_toward(env.node).0 - first) as usize].push(env);
        }
        for (child, releases) in children.into_iter().zip(per_child) {
            if !releases.is_empty() {
                io.send(child, SyncMsg::BarRelease { id, releases });
            }
        }
    }

    /// This node arrives at barrier `id` with `piggy`. May emit
    /// [`BarrierEvent::AllArrived`] (root, everyone in) — never
    /// `Released`; even the root waits for the runtime to call
    /// [`BarrierEngine::release`].
    pub fn arrive(
        &mut self,
        io: &mut dyn SyncIo<P>,
        id: BarrierId,
        piggy: P,
        events: &mut Vec<BarrierEvent<P>>,
    ) {
        let me = self.me;
        let s = self.state.entry(id).or_default();
        assert!(!s.arrived_self, "{me} arrived twice at barrier {id}");
        s.arrived_self = true;
        s.gather(SyncEnvelope::new(me, piggy));
        self.maybe_propagate(io, id, events);
    }

    /// Root only, in response to [`BarrierEvent::AllArrived`]: release
    /// every node with its own payload. `releases` must contain exactly
    /// one entry per node.
    pub fn release(
        &mut self,
        io: &mut dyn SyncIo<P>,
        id: BarrierId,
        mut releases: Vec<SyncEnvelope<P>>,
        events: &mut Vec<BarrierEvent<P>>,
    ) {
        assert_eq!(self.me, NodeId(0), "only the root releases");
        assert_eq!(releases.len() as u32, self.nnodes, "one release per node");
        // Remember the episode: a recovered node whose releases died
        // with it (or were dropped while it was down) re-arrives at
        // each missed id and is re-released solo.
        self.released.insert(id);
        // Keep our own; the rest goes down, in the order given.
        let own = releases
            .iter()
            .position(|e| e.node == NodeId(0))
            .expect("release must include the root");
        let piggy = releases.remove(own).payload;
        self.forward_releases(io, id, releases);
        self.reset(id);
        events.push(BarrierEvent::Released { id, piggy });
    }

    /// Feed a barrier-related message into the engine.
    pub fn on_message(
        &mut self,
        io: &mut dyn SyncIo<P>,
        _from: NodeId,
        msg: SyncMsg<P>,
        events: &mut Vec<BarrierEvent<P>>,
    ) {
        match msg {
            SyncMsg::BarArrive { id, contributions } => {
                for env in contributions {
                    // Arrival from a node that has crashed at some
                    // point, for an episode we already released and
                    // closed: it never saw that release (it died with
                    // the node, or was dropped while it was down).
                    // Re-release it solo instead of opening a ghost
                    // episode that would wedge everyone. Sound only
                    // because crash runs never reuse barrier ids.
                    if self.crashed_ever.contains(&env.node.0)
                        && !self.state.contains_key(&id)
                        && self.released.contains(&id)
                    {
                        io.send(
                            env.node,
                            SyncMsg::BarRelease {
                                id,
                                releases: vec![SyncEnvelope::new(env.node, P::empty())],
                            },
                        );
                        continue;
                    }
                    self.state.entry(id).or_default().gather(env);
                }
                if self.state.contains_key(&id) {
                    self.maybe_propagate(io, id, events);
                }
            }
            SyncMsg::BarRelease { id, mut releases } => {
                // Extract our own payload; forward the rest down the tree.
                let me = self.me;
                let idx = releases
                    .iter()
                    .position(|e| e.node == me)
                    .expect("release must include this node");
                let piggy = releases.swap_remove(idx).payload;
                self.forward_releases(io, id, releases);
                self.reset(id);
                events.push(BarrierEvent::Released { id, piggy });
            }
            other => {
                let k = dsm_net::Payload::kind(&other);
                panic!("barrier engine got unexpected message {k}");
            }
        }
    }

    /// If this node's whole subtree has arrived, combine upward (or
    /// emit AllArrived at the root).
    fn maybe_propagate(
        &mut self,
        io: &mut dyn SyncIo<P>,
        id: BarrierId,
        events: &mut Vec<BarrierEvent<P>>,
    ) {
        let me = self.me;
        let complete = {
            let s = self.state.get(&id).expect("state exists");
            if !s.arrived_self {
                return;
            }
            if me == NodeId(0) && self.kind == BarrierKind::Central && !self.down.is_empty() {
                // Crash-aware root: every node must either have arrived
                // (possibly before crashing) or be down right now.
                let absent = |&&n: &&u32| !s.arrived.contains(NodeId(n));
                s.gathered.len() + self.down.iter().filter(absent).count() == self.expected
            } else {
                debug_assert!(s.gathered.len() <= self.expected);
                s.gathered.len() == self.expected
            }
        };
        if !complete {
            return;
        }
        let s = self.state.get_mut(&id).expect("state exists");
        let contributions = std::mem::take(&mut s.gathered);
        s.arrived.clear();
        match self.parent(me) {
            None => events.push(BarrierEvent::AllArrived { id, contributions }),
            Some(p) => {
                // Subtree complete: combine up. Keep arrived_self so a
                // stray duplicate arrival still asserts; full reset
                // happens at release.
                io.send(p, SyncMsg::BarArrive { id, contributions });
            }
        }
    }

    fn reset(&mut self, id: BarrierId) {
        self.state.remove(&id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct FakeIo {
        me: NodeId,
        n: u32,
        sent: Vec<(NodeId, SyncMsg<()>)>,
    }
    impl SyncIo<()> for FakeIo {
        fn me(&self) -> NodeId {
            self.me
        }
        fn nodes(&self) -> u32 {
            self.n
        }
        fn send(&mut self, dst: NodeId, msg: SyncMsg<()>) {
            self.sent.push((dst, msg));
        }
    }

    #[test]
    fn central_root_collects_then_all_arrived() {
        let mut e = BarrierEngine::<()>::new(BarrierKind::Central, NodeId(0), 3);
        let mut io = FakeIo {
            me: NodeId(0),
            n: 3,
            sent: Vec::new(),
        };
        let mut ev = Vec::new();
        e.arrive(&mut io, 0, (), &mut ev);
        assert!(ev.is_empty());
        e.on_message(
            &mut io,
            NodeId(1),
            SyncMsg::BarArrive {
                id: 0,
                contributions: vec![SyncEnvelope::new(NodeId(1), ())],
            },
            &mut ev,
        );
        assert!(ev.is_empty());
        e.on_message(
            &mut io,
            NodeId(2),
            SyncMsg::BarArrive {
                id: 0,
                contributions: vec![SyncEnvelope::new(NodeId(2), ())],
            },
            &mut ev,
        );
        match &ev[0] {
            BarrierEvent::AllArrived { contributions, .. } => {
                assert_eq!(contributions.len(), 3)
            }
            other => panic!("expected AllArrived, got {other:?}"),
        }
        // Release: root sends to each leaf and releases itself.
        ev.clear();
        let releases = vec![
            SyncEnvelope::new(NodeId(0), ()),
            SyncEnvelope::new(NodeId(1), ()),
            SyncEnvelope::new(NodeId(2), ()),
        ];
        e.release(&mut io, 0, releases, &mut ev);
        assert!(matches!(ev[0], BarrierEvent::Released { id: 0, .. }));
        assert_eq!(io.sent.len(), 2);
    }

    #[test]
    fn central_leaf_sends_arrival_and_gets_release() {
        let mut e = BarrierEngine::<()>::new(BarrierKind::Central, NodeId(2), 3);
        let mut io = FakeIo {
            me: NodeId(2),
            n: 3,
            sent: Vec::new(),
        };
        let mut ev = Vec::new();
        e.arrive(&mut io, 7, (), &mut ev);
        assert_eq!(io.sent.len(), 1);
        assert_eq!(io.sent[0].0, NodeId(0));
        e.on_message(
            &mut io,
            NodeId(0),
            SyncMsg::BarRelease {
                id: 7,
                releases: vec![SyncEnvelope::new(NodeId(2), ())],
            },
            &mut ev,
        );
        assert!(matches!(ev[0], BarrierEvent::Released { id: 7, .. }));
    }

    #[test]
    fn tree_topology_parent_child() {
        let e = BarrierEngine::<()>::new(BarrierKind::Tree(2), NodeId(0), 7);
        assert_eq!(e.children(NodeId(0)), vec![NodeId(1), NodeId(2)]);
        assert_eq!(e.children(NodeId(1)), vec![NodeId(3), NodeId(4)]);
        assert_eq!(e.children(NodeId(2)), vec![NodeId(5), NodeId(6)]);
        assert_eq!(e.parent(NodeId(5)), Some(NodeId(2)));
        assert_eq!(e.parent(NodeId(0)), None);
        let size = |node| BarrierEngine::<()>::subtree_size(e.kind, 7, NodeId(node));
        assert_eq!(size(1), 3);
        assert_eq!(size(0), 7);
    }

    #[test]
    fn tree_interior_combines_subtree_before_forwarding() {
        // Node 1 in a 7-node binary tree: children 3 and 4.
        let mut e = BarrierEngine::<()>::new(BarrierKind::Tree(2), NodeId(1), 7);
        let mut io = FakeIo {
            me: NodeId(1),
            n: 7,
            sent: Vec::new(),
        };
        let mut ev = Vec::new();
        e.on_message(
            &mut io,
            NodeId(3),
            SyncMsg::BarArrive {
                id: 0,
                contributions: vec![SyncEnvelope::new(NodeId(3), ())],
            },
            &mut ev,
        );
        assert!(io.sent.is_empty()); // own arrival and child 4 missing
        e.arrive(&mut io, 0, (), &mut ev);
        assert!(io.sent.is_empty()); // child 4 still missing
        e.on_message(
            &mut io,
            NodeId(4),
            SyncMsg::BarArrive {
                id: 0,
                contributions: vec![SyncEnvelope::new(NodeId(4), ())],
            },
            &mut ev,
        );
        assert_eq!(io.sent.len(), 1);
        assert_eq!(io.sent[0].0, NodeId(0)); // combined arrival to root
        match &io.sent[0].1 {
            SyncMsg::BarArrive { contributions, .. } => assert_eq!(contributions.len(), 3),
            _ => panic!("expected BarArrive"),
        }
    }

    #[test]
    fn tree_release_routes_payloads_down() {
        let mut e = BarrierEngine::<()>::new(BarrierKind::Tree(2), NodeId(1), 7);
        let mut io = FakeIo {
            me: NodeId(1),
            n: 7,
            sent: Vec::new(),
        };
        let mut ev = Vec::new();
        let releases = vec![
            SyncEnvelope::new(NodeId(1), ()),
            SyncEnvelope::new(NodeId(3), ()),
            SyncEnvelope::new(NodeId(4), ()),
        ];
        e.on_message(
            &mut io,
            NodeId(0),
            SyncMsg::BarRelease { id: 0, releases },
            &mut ev,
        );
        assert!(matches!(ev[0], BarrierEvent::Released { .. }));
        assert_eq!(io.sent.len(), 2);
        let dsts: Vec<NodeId> = io.sent.iter().map(|(d, _)| *d).collect();
        assert!(dsts.contains(&NodeId(3)) && dsts.contains(&NodeId(4)));
    }

    #[test]
    #[should_panic(expected = "arrived twice")]
    fn double_arrival_panics() {
        let mut e = BarrierEngine::<()>::new(BarrierKind::Central, NodeId(1), 3);
        let mut io = FakeIo {
            me: NodeId(1),
            n: 3,
            sent: Vec::new(),
        };
        let mut ev = Vec::new();
        e.arrive(&mut io, 0, (), &mut ev);
        e.arrive(&mut io, 0, (), &mut ev);
    }

    // ---- payload-carrying episodes: who gets what, in which order ----

    /// A piggyback that says whose it is.
    impl SyncPiggy for u32 {
        fn empty() -> u32 {
            u32::MAX
        }
        fn wire_bytes(&self) -> usize {
            4
        }
    }

    #[derive(Default)]
    struct TagIo {
        sent: Vec<(NodeId, SyncMsg<u32>)>,
    }
    impl SyncIo<u32> for TagIo {
        fn me(&self) -> NodeId {
            unreachable!("the barrier engine knows who it is")
        }
        fn nodes(&self) -> u32 {
            unreachable!("the barrier engine knows the node count")
        }
        fn send(&mut self, dst: NodeId, msg: SyncMsg<u32>) {
            self.sent.push((dst, msg));
        }
    }

    fn arrival(node: u32, tag: u32) -> SyncMsg<u32> {
        SyncMsg::BarArrive {
            id: 0,
            contributions: vec![SyncEnvelope::new(NodeId(node), tag)],
        }
    }

    #[test]
    fn recovered_node_re_arriving_at_an_open_episode_replaces_its_contribution() {
        let mut root = BarrierEngine::<u32>::new(BarrierKind::Central, NodeId(0), 3);
        let (mut io, mut ev) = (TagIo::default(), Vec::new());
        root.on_message(&mut io, NodeId(1), arrival(1, 10), &mut ev);
        root.set_down(&mut io, NodeId(1), false, &mut ev);
        root.set_up(&mut io, NodeId(1));
        root.on_message(&mut io, NodeId(1), arrival(1, 11), &mut ev);
        root.arrive(&mut io, 0, 0, &mut ev);
        assert!(ev.is_empty(), "node 2 is still missing");
        root.on_message(&mut io, NodeId(2), arrival(2, 20), &mut ev);
        match &ev[..] {
            [BarrierEvent::AllArrived { contributions, .. }] => assert_eq!(
                contributions,
                &[
                    SyncEnvelope::new(NodeId(1), 11),
                    SyncEnvelope::new(NodeId(0), 0),
                    SyncEnvelope::new(NodeId(2), 20),
                ]
            ),
            other => panic!("expected AllArrived, got {other:?}"),
        }
    }

    #[test]
    fn permanent_death_completes_an_open_episode_and_later_ones() {
        let mut root = BarrierEngine::<u32>::new(BarrierKind::Central, NodeId(0), 3);
        let (mut io, mut ev) = (TagIo::default(), Vec::new());
        root.arrive(&mut io, 0, 0, &mut ev);
        root.on_message(&mut io, NodeId(1), arrival(1, 10), &mut ev);
        assert!(ev.is_empty(), "node 2 is still expected");
        root.set_down(&mut io, NodeId(2), true, &mut ev);
        match ev.pop() {
            Some(BarrierEvent::AllArrived {
                id: 0,
                contributions,
            }) => {
                assert_eq!(contributions.len(), 2);
                let releases = (0..3).map(|n| SyncEnvelope::new(NodeId(n), n)).collect();
                root.release(&mut io, 0, releases, &mut ev);
            }
            other => panic!("expected AllArrived, got {other:?}"),
        }
        assert!(matches!(
            ev.pop(),
            Some(BarrierEvent::Released { id: 0, piggy: 0 })
        ));
        // The dead node is not waited for in the next episode either,
        // and an arrival it made before dying still counts once.
        root.arrive(&mut io, 1, 0, &mut ev);
        assert!(ev.is_empty());
        let next = SyncMsg::BarArrive {
            id: 1,
            contributions: vec![SyncEnvelope::new(NodeId(1), 10)],
        };
        root.on_message(&mut io, NodeId(1), next, &mut ev);
        assert!(matches!(
            &ev[..],
            [BarrierEvent::AllArrived { id: 1, contributions }] if contributions.len() == 2
        ));
    }

    /// The release split as it was written before it became one pass:
    /// for each child in turn, `partition` what is left by membership
    /// in that child's subtree. Kept as the oracle for which child gets
    /// which envelopes in which order.
    fn partition_per_child(
        e: &BarrierEngine<u32>,
        mut releases: Vec<SyncEnvelope<u32>>,
    ) -> Vec<(NodeId, Vec<SyncEnvelope<u32>>)> {
        let mut out = Vec::new();
        for child in e.children(e.me) {
            let mut members = vec![child];
            let mut i = 0;
            while i < members.len() {
                members.extend(e.children(members[i]));
                i += 1;
            }
            let (for_child, rest): (Vec<_>, Vec<_>) = releases
                .into_iter()
                .partition(|env| members.contains(&env.node));
            releases = rest;
            if !for_child.is_empty() {
                out.push((child, for_child));
            }
        }
        assert!(releases.is_empty(), "stray releases");
        out
    }

    /// Release a whole fleet from the root with `order` as the root's
    /// release vector; every message any engine sends must be what the
    /// per-child partition would have sent, and every node must come
    /// out with exactly its own payload.
    fn release_cascade_matches_partition(kind: BarrierKind, n: u32, order: Vec<u32>) {
        let mut engines: Vec<BarrierEngine<u32>> = (0..n)
            .map(|i| BarrierEngine::new(kind, NodeId(i), n))
            .collect();
        let releases: Vec<_> = order
            .iter()
            .map(|&i| SyncEnvelope::new(NodeId(i), 1000 + i))
            .collect();
        let mut got = vec![None; n as usize];
        let mut released = |node: usize, ev: &mut Vec<BarrierEvent<u32>>| match ev.pop() {
            Some(BarrierEvent::Released { id: 7, piggy }) => {
                assert!(got[node].replace(piggy).is_none(), "n{node} released twice");
                assert!(ev.is_empty());
            }
            other => panic!("n{node}: expected Released, got {other:?}"),
        };

        let (mut io, mut ev) = (TagIo::default(), Vec::new());
        let mut rest = releases.clone();
        rest.retain(|e| e.node != NodeId(0));
        let want = partition_per_child(&engines[0], rest);
        engines[0].release(&mut io, 7, releases, &mut ev);
        released(0, &mut ev);
        let sent = |io: TagIo| -> Vec<(NodeId, Vec<SyncEnvelope<u32>>)> {
            let unwrap = |(dst, msg)| match msg {
                SyncMsg::BarRelease { id: 7, releases } => (dst, releases),
                other => panic!("expected BarRelease, got {other:?}"),
            };
            io.sent.into_iter().map(unwrap).collect()
        };
        let mut queue = std::collections::VecDeque::from(sent(io));
        assert_eq!(queue, want);
        while let Some((dst, mut releases)) = queue.pop_front() {
            let e = &mut engines[dst.index()];
            // What the engine does first: take its own out, the last
            // envelope filling the hole.
            let own = releases.iter().position(|env| env.node == dst).unwrap();
            let msg = SyncMsg::BarRelease {
                id: 7,
                releases: releases.clone(),
            };
            releases.swap_remove(own);
            let want = partition_per_child(e, releases);
            let (mut io, mut ev) = (TagIo::default(), Vec::new());
            e.on_message(&mut io, NodeId(0), msg, &mut ev);
            released(dst.index(), &mut ev);
            let sent = sent(io);
            assert_eq!(sent, want);
            queue.extend(sent);
        }
        let want: Vec<_> = (0..n).map(|i| Some(1000 + i)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn central_release_at_512_nodes_hands_every_node_its_own_envelope() {
        release_cascade_matches_partition(BarrierKind::Central, 512, (0..512).collect());
        release_cascade_matches_partition(BarrierKind::Central, 512, (0..512).rev().collect());
    }

    #[test]
    fn tree_release_at_40_nodes_hands_every_node_its_own_envelope_in_order() {
        for k in [2, 4] {
            let kind = BarrierKind::Tree(k);
            release_cascade_matches_partition(kind, 40, (0..40).collect());
            release_cascade_matches_partition(kind, 40, (0..40).rev().collect());
            // Neither sorted nor reversed: stride 7 is coprime to 40.
            release_cascade_matches_partition(kind, 40, (0..40).map(|i| i * 7 % 40).collect());
        }
    }

    #[test]
    fn subtree_sizes_add_up_for_every_shape() {
        for kind in [
            BarrierKind::Central,
            BarrierKind::Tree(2),
            BarrierKind::Tree(5),
        ] {
            for n in 1..=70 {
                let e = BarrierEngine::<()>::new(kind, NodeId(0), n);
                for node in (0..n).map(NodeId) {
                    let below: u32 = e
                        .children(node)
                        .into_iter()
                        .map(|c| BarrierEngine::<()>::subtree_size(kind, n, c))
                        .sum();
                    let size = BarrierEngine::<()>::subtree_size(kind, n, node);
                    assert_eq!(size, 1 + below, "{kind:?} n={n} {node}");
                }
                assert_eq!(e.expected, n as usize);
            }
        }
    }
}
