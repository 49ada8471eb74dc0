//! Distributed barriers: centralized manager and k-ary combining tree.
//!
//! The barrier is also a consistency point for most DSM protocols, so
//! arrivals carry per-node piggybacks up to the root, the engine's
//! [`SyncHost`] merges them there (protocol-specific), and per-node
//! payloads flow back down with the release.

use crate::msg::{BarrierId, SyncEnvelope, SyncHost, SyncMsg, SyncPiggy};
use dsm_net::{NodeId, NodeSet, PageMap};
use std::collections::BTreeSet;

/// Barrier topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BarrierKind {
    /// Every node reports to the root; the root releases everyone.
    Central,
    /// Combining tree with the given arity (≥ 2); arrivals combine on
    /// the way up, releases fan out on the way down.
    Tree(u32),
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

/// Per-node barrier engine (root is always node 0). One topology: a
/// k-ary tree, of which the centralized barrier is the flat case (every
/// other node a child of the root).
///
/// # Crash awareness (flat tree only)
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
    /// Tree arity; at least `nnodes - 1` when the tree is flat.
    arity: u32,
    me: NodeId,
    nnodes: u32,
    /// Arrivals a crash-free episode gathers here: the size of this
    /// node's subtree, fixed by the topology.
    expected: usize,
    state: PageMap<BarrierId, PerBarrier<P>>,
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
        let arity = match kind {
            // Any arity from `nnodes - 1` up puts every node under the root.
            BarrierKind::Central => nnodes,
            BarrierKind::Tree(k) => {
                assert!(k >= 2, "tree arity must be >= 2");
                k
            }
        };
        BarrierEngine {
            arity,
            me,
            nnodes,
            expected: Self::subtree_size(arity, nnodes, me) as usize,
            state: PageMap::default(),
            down: BTreeSet::new(),
            released: BTreeSet::new(),
            crashed_ever: BTreeSet::new(),
        }
    }

    /// A peer crashed. Its releases may now be dropped, so remember it
    /// for the re-release replay either way; but only a *permanent*
    /// death excludes it from the expected-arrival set. A peer that
    /// will reboot is merely late — waiting for it keeps every episode
    /// fully synchronized, which is what makes a crash+recover run
    /// converge to the crash-free image by construction rather than by
    /// timing. A permanent death may complete open barriers at the
    /// root; `true` if that released this node.
    pub fn set_down(&mut self, io: &mut impl SyncHost<P>, node: NodeId, permanent: bool) -> bool {
        assert!(
            self.flat(),
            "crash fault schedules require the centralized barrier (got a combining tree)"
        );
        self.crashed_ever.insert(node.0);
        if !permanent {
            return false;
        }
        self.down.insert(node.0);
        // A barrier that was only waiting on the dead node is now
        // complete. Deterministic order: sorted open ids.
        let mut ids: Vec<BarrierId> = self.state.keys().copied().collect();
        ids.sort_unstable();
        let mut released = false;
        for id in ids {
            released |= self.maybe_propagate(io, id);
        }
        released
    }

    /// A crashed peer recovered: expect its arrivals again.
    ///
    /// If the recovered peer is the centralized *root*, this node
    /// re-offers every arrival it is still waiting on — the original
    /// arrival messages may have been dropped while the root was down.
    /// Re-offers carry an empty piggyback, which is only sound for
    /// protocols whose barrier piggyback is empty; crash schedules are
    /// restricted to those (see docs/FAULTS.md).
    pub fn set_up(&mut self, io: &mut impl SyncHost<P>, node: NodeId) {
        self.down.remove(&node.0);
        if self.flat() && node == NodeId(0) && self.me != NodeId(0) {
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

    /// Every node but the root is a child of the root: the centralized
    /// barrier, the only shape the crash rules above are written for.
    fn flat(&self) -> bool {
        self.arity >= self.nnodes - 1
    }

    fn parent(&self, node: NodeId) -> Option<NodeId> {
        (node.0 != 0).then(|| NodeId((node.0 - 1) / self.arity))
    }

    fn children(&self, node: NodeId) -> Vec<NodeId> {
        // In u64: a flat tree's arity times a leaf's id overflows u32
        // from 65 536 nodes up.
        let first = node.0 as u64 * self.arity as u64 + 1;
        let end = (first + self.arity as u64).min(self.nnodes as u64);
        (first..end).map(|c| NodeId(c as u32)).collect()
    }

    /// Nodes in `node`'s subtree (including itself): level by level,
    /// the subtree is a contiguous range of ids.
    fn subtree_size(arity: u32, nnodes: u32, node: NodeId) -> u32 {
        let (k, n) = (arity as u64, nnodes as u64);
        let (mut lo, mut hi) = (node.0 as u64, node.0 as u64);
        let mut size = 0;
        while lo < n {
            size += hi.min(n - 1) - lo + 1;
            (lo, hi) = (lo * k + 1, hi * k + k);
        }
        size as u32
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
        io: &mut impl SyncHost<P>,
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

    /// This node arrives at barrier `id`, with the payload the host
    /// departs with. `true` if the arrival released it on the spot (the
    /// root arriving last); otherwise [`Self::on_message`] or
    /// [`Self::set_down`] will report the release.
    pub fn arrive(&mut self, io: &mut impl SyncHost<P>, id: BarrierId) -> bool {
        let me = self.me;
        let piggy = io.sync_depart();
        let s = self.state.entry(id).or_default();
        assert!(!s.arrived_self, "{me} arrived twice at barrier {id}");
        s.arrived_self = true;
        s.gather(SyncEnvelope::new(me, piggy));
        self.maybe_propagate(io, id)
    }

    /// Root only, everyone in: release every node with its own payload
    /// (`releases` must contain exactly one entry per node), this node
    /// included — its payload goes to the host.
    fn release(
        &mut self,
        io: &mut impl SyncHost<P>,
        id: BarrierId,
        mut releases: Vec<SyncEnvelope<P>>,
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
        io.sync_arrive(piggy);
    }

    /// Feed a barrier-related message into the engine; reports the
    /// barrier it released this node from, if any.
    pub fn on_message(
        &mut self,
        io: &mut impl SyncHost<P>,
        _from: NodeId,
        msg: SyncMsg<P>,
    ) -> Option<BarrierId> {
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
                let released = self.state.contains_key(&id) && self.maybe_propagate(io, id);
                released.then_some(id)
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
                io.sync_arrive(piggy);
                Some(id)
            }
            other => {
                let k = dsm_net::Payload::kind(&other);
                panic!("barrier engine got unexpected message {k}");
            }
        }
    }

    /// If this node's whole subtree has arrived, combine upward — or,
    /// at the root, have the host merge everyone's contributions and
    /// release them all. `true` if that released this node.
    fn maybe_propagate(&mut self, io: &mut impl SyncHost<P>, id: BarrierId) -> bool {
        let me = self.me;
        let complete = {
            let s = self.state.get(&id).expect("state exists");
            if !s.arrived_self {
                return false;
            }
            if me == NodeId(0) && self.flat() && !self.down.is_empty() {
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
            return false;
        }
        let s = self.state.get_mut(&id).expect("state exists");
        let contributions = std::mem::take(&mut s.gathered);
        s.arrived.clear();
        match self.parent(me) {
            None => {
                let releases = io.merge_barrier(contributions);
                self.release(io, id, releases);
                true
            }
            Some(p) => {
                // Subtree complete: combine up. Keep arrived_self so a
                // stray duplicate arrival still asserts; full reset
                // happens at release.
                io.send(p, SyncMsg::BarArrive { id, contributions });
                false
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

    /// A piggyback that says whose it is.
    impl SyncPiggy for u32 {
        fn empty() -> u32 {
            u32::MAX
        }
        fn wire_bytes(&self) -> usize {
            4
        }
    }

    /// Captures what the engine sends and what it hands its host.
    #[derive(Default)]
    struct Host<P> {
        sent: Vec<(NodeId, SyncMsg<P>)>,
        /// What this node departs with at its next arrival.
        depart: P,
        /// Every set of contributions the root had this host merge.
        merged: Vec<Vec<SyncEnvelope<P>>>,
        /// What the next merge answers; the contributions themselves
        /// when `None`.
        releases: Option<Vec<SyncEnvelope<P>>>,
        /// Every payload this node was released with.
        arrived: Vec<P>,
    }

    impl<P: SyncPiggy> SyncHost<P> for Host<P> {
        fn send(&mut self, dst: NodeId, msg: SyncMsg<P>) {
            self.sent.push((dst, msg));
        }
        fn sync_depart(&mut self) -> P {
            self.depart.clone()
        }
        fn sync_arrive(&mut self, piggy: P) {
            self.arrived.push(piggy);
        }
        fn merge_barrier(&mut self, arrivals: Vec<SyncEnvelope<P>>) -> Vec<SyncEnvelope<P>> {
            self.merged.push(arrivals.clone());
            self.releases.take().unwrap_or(arrivals)
        }
    }

    fn arrival<P>(id: BarrierId, node: u32, tag: P) -> SyncMsg<P> {
        SyncMsg::BarArrive {
            id,
            contributions: vec![SyncEnvelope::new(NodeId(node), tag)],
        }
    }

    fn release_of<P: Default>(id: BarrierId, nodes: &[u32]) -> SyncMsg<P> {
        let env = |&n| SyncEnvelope::new(NodeId(n), P::default());
        SyncMsg::BarRelease {
            id,
            releases: nodes.iter().map(env).collect(),
        }
    }

    #[test]
    fn central_root_collects_then_all_arrived() {
        let mut e = BarrierEngine::<()>::new(BarrierKind::Central, NodeId(0), 3);
        let mut host = Host::default();
        assert!(!e.arrive(&mut host, 0));
        assert_eq!(e.on_message(&mut host, NodeId(1), arrival(0, 1, ())), None);
        assert!(host.merged.is_empty());
        // The last arrival: the host merges all three, the root sends
        // to each leaf and releases itself.
        assert_eq!(
            e.on_message(&mut host, NodeId(2), arrival(0, 2, ())),
            Some(0)
        );
        assert_eq!(host.merged[0].len(), 3);
        assert_eq!(host.sent.len(), 2);
        assert_eq!(host.arrived.len(), 1);
    }

    #[test]
    fn central_leaf_sends_arrival_and_gets_release() {
        let mut e = BarrierEngine::<()>::new(BarrierKind::Central, NodeId(2), 3);
        let mut host = Host::default();
        assert!(!e.arrive(&mut host, 7));
        assert_eq!(host.sent.len(), 1);
        assert_eq!(host.sent[0].0, NodeId(0));
        let release = release_of(7, &[2]);
        assert_eq!(e.on_message(&mut host, NodeId(0), release), Some(7));
        assert_eq!(host.arrived.len(), 1);
    }

    #[test]
    fn tree_topology_parent_child() {
        let e = BarrierEngine::<()>::new(BarrierKind::Tree(2), NodeId(0), 7);
        assert_eq!(e.children(NodeId(0)), vec![NodeId(1), NodeId(2)]);
        assert_eq!(e.children(NodeId(1)), vec![NodeId(3), NodeId(4)]);
        assert_eq!(e.children(NodeId(2)), vec![NodeId(5), NodeId(6)]);
        assert_eq!(e.parent(NodeId(5)), Some(NodeId(2)));
        assert_eq!(e.parent(NodeId(0)), None);
        let size = |node| BarrierEngine::<()>::subtree_size(e.arity, 7, NodeId(node));
        assert_eq!(size(1), 3);
        assert_eq!(size(0), 7);
        // The centralized barrier is the flat tree: the root the parent
        // of every other node, which are leaves.
        for n in [1, 2, 3, 7, 512] {
            let e = BarrierEngine::<()>::new(BarrierKind::Central, NodeId(0), n);
            assert!(e.flat());
            assert_eq!(e.parent(NodeId(0)), None);
            assert_eq!(
                e.children(NodeId(0)),
                (1..n).map(NodeId).collect::<Vec<_>>()
            );
            assert_eq!(e.expected, n as usize);
            for leaf in (1..n).map(NodeId) {
                assert_eq!(e.parent(leaf), Some(NodeId(0)));
                assert_eq!(e.children(leaf), []);
                assert_eq!(BarrierEngine::<()>::subtree_size(e.arity, n, leaf), 1);
            }
        }
        assert!(!BarrierEngine::<()>::new(BarrierKind::Tree(2), NodeId(0), 7).flat());
    }

    #[test]
    fn tree_interior_combines_subtree_before_forwarding() {
        // Node 1 in a 7-node binary tree: children 3 and 4.
        let mut e = BarrierEngine::<()>::new(BarrierKind::Tree(2), NodeId(1), 7);
        let mut host = Host::default();
        e.on_message(&mut host, NodeId(3), arrival(0, 3, ()));
        assert!(host.sent.is_empty()); // own arrival and child 4 missing
        assert!(!e.arrive(&mut host, 0));
        assert!(host.sent.is_empty()); // child 4 still missing
        e.on_message(&mut host, NodeId(4), arrival(0, 4, ()));
        assert_eq!(host.sent.len(), 1);
        assert_eq!(host.sent[0].0, NodeId(0)); // combined arrival to root
        match &host.sent[0].1 {
            SyncMsg::BarArrive { contributions, .. } => assert_eq!(contributions.len(), 3),
            _ => panic!("expected BarArrive"),
        }
    }

    #[test]
    fn tree_release_routes_payloads_down() {
        let mut e = BarrierEngine::<()>::new(BarrierKind::Tree(2), NodeId(1), 7);
        let mut host = Host::default();
        let release = release_of(0, &[1, 3, 4]);
        assert_eq!(e.on_message(&mut host, NodeId(0), release), Some(0));
        assert_eq!(host.arrived.len(), 1);
        assert_eq!(host.sent.len(), 2);
        let dsts: Vec<NodeId> = host.sent.iter().map(|(d, _)| *d).collect();
        assert!(dsts.contains(&NodeId(3)) && dsts.contains(&NodeId(4)));
    }

    #[test]
    #[should_panic(expected = "arrived twice")]
    fn double_arrival_panics() {
        let mut e = BarrierEngine::<()>::new(BarrierKind::Central, NodeId(1), 3);
        let mut host = Host::default();
        e.arrive(&mut host, 0);
        e.arrive(&mut host, 0);
    }

    // ---- payload-carrying episodes: who gets what, in which order ----

    #[test]
    fn recovered_node_re_arriving_at_an_open_episode_replaces_its_contribution() {
        let mut root = BarrierEngine::<u32>::new(BarrierKind::Central, NodeId(0), 3);
        let mut host = Host::default();
        root.on_message(&mut host, NodeId(1), arrival(0, 1, 10));
        assert!(!root.set_down(&mut host, NodeId(1), false));
        root.set_up(&mut host, NodeId(1));
        root.on_message(&mut host, NodeId(1), arrival(0, 1, 11));
        assert!(!root.arrive(&mut host, 0));
        assert!(host.merged.is_empty(), "node 2 is still missing");
        root.on_message(&mut host, NodeId(2), arrival(0, 2, 20));
        assert_eq!(
            host.merged,
            [[
                SyncEnvelope::new(NodeId(1), 11),
                SyncEnvelope::new(NodeId(0), 0),
                SyncEnvelope::new(NodeId(2), 20),
            ]]
        );
    }

    #[test]
    fn permanent_death_completes_an_open_episode_and_later_ones() {
        let mut root = BarrierEngine::<u32>::new(BarrierKind::Central, NodeId(0), 3);
        let mut host = Host::default();
        let one_per_node = || Some((0..3).map(|n| SyncEnvelope::new(NodeId(n), n)).collect());
        assert!(!root.arrive(&mut host, 0));
        root.on_message(&mut host, NodeId(1), arrival(0, 1, 10));
        assert!(host.merged.is_empty(), "node 2 is still expected");
        host.releases = one_per_node();
        assert!(root.set_down(&mut host, NodeId(2), true));
        assert_eq!(host.merged[0].len(), 2);
        assert_eq!(host.arrived, [0]);
        // The dead node is not waited for in the next episode either,
        // and an arrival it made before dying still counts once.
        assert!(!root.arrive(&mut host, 1));
        assert_eq!(host.merged.len(), 1);
        host.releases = one_per_node();
        let next = arrival(1, 1, 10);
        assert_eq!(root.on_message(&mut host, NodeId(1), next), Some(1));
        assert_eq!(host.merged[1].len(), 2);
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
        // Node `node` is done: its host was handed one payload, and
        // sent what is returned.
        let mut released = |node: usize, host: Host<u32>| {
            let [piggy] = host.arrived[..] else {
                panic!("n{node}: released with {:?}", host.arrived)
            };
            assert!(got[node].replace(piggy).is_none(), "n{node} released twice");
            let unwrap = |(dst, msg)| match msg {
                SyncMsg::BarRelease { id: 7, releases } => (dst, releases),
                other => panic!("expected BarRelease, got {other:?}"),
            };
            host.sent.into_iter().map(unwrap).collect::<Vec<_>>()
        };

        let mut host = Host::default();
        let mut rest = releases.clone();
        rest.retain(|e| e.node != NodeId(0));
        let want = partition_per_child(&engines[0], rest);
        engines[0].release(&mut host, 7, releases);
        let mut queue = std::collections::VecDeque::from(released(0, host));
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
            let mut host = Host::default();
            assert_eq!(e.on_message(&mut host, NodeId(0), msg), Some(7));
            let sent = released(dst.index(), host);
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
                        .map(|c| BarrierEngine::<()>::subtree_size(e.arity, n, c))
                        .sum();
                    let size = BarrierEngine::<()>::subtree_size(e.arity, n, node);
                    assert_eq!(size, 1 + below, "{kind:?} n={n} {node}");
                }
                assert_eq!(e.expected, n as usize);
            }
        }
    }
}
