//! Distributed mutual-exclusion engines.
//!
//! Two lock algorithms from the DSM literature:
//!
//! * [`LockKind::Central`] — a fixed server per lock (its *home* node)
//!   holds the state; every acquire and release is a message to the
//!   server. Three one-way messages per contended handoff, and the
//!   server serializes under contention.
//! * [`LockKind::Queue`] — a distributed queue lock: the home node only
//!   remembers the *tail* (last requester). Requests are forwarded to
//!   the tail, which grants directly to its successor on release — one
//!   one-way message per contended handoff, and consistency piggybacks
//!   travel releaser → acquirer directly (what lazy release consistency
//!   needs).
//!
//! The engine is a pure state machine: it never blocks, it sends
//! through its [`SyncHost`], and it asks the same host for every
//! piggyback at the moment it is needed (a grant's payload must be
//! computed by the coherence layer at grant time).

use crate::msg::{LockId, SyncHost, SyncMsg, SyncPiggy};
use dsm_net::{NodeId, PageMap};
use std::collections::VecDeque;

/// Which mutual-exclusion algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockKind {
    Central,
    Queue,
}

/// Where a lock's home (server / tail-tracker) lives.
#[inline]
pub fn lock_home(lock: LockId, nnodes: u32) -> NodeId {
    NodeId(lock % nnodes)
}

#[derive(Debug)]
struct PerLock<P> {
    // --- server-side state (meaningful at the lock's home) ---
    /// Central: current holder.
    held_by: Option<NodeId>,
    /// Central: queued requesters.
    queue: VecDeque<NodeId>,
    /// Central: piggyback deposited by the last release, handed to the
    /// next grantee.
    stored: Option<P>,
    /// Queue: last known requester; new requests are forwarded there.
    tail: Option<NodeId>,
    // --- holder-side state (any node) ---
    /// This node currently holds the lock.
    holding: bool,
    /// This node has issued an acquire and is waiting for a grant.
    waiting: bool,
    /// Queue: a released token is parked here awaiting a forward.
    token_here: bool,
    /// Queue: requester to grant to at release time.
    successor: Option<(NodeId, P)>,
}

impl<P> Default for PerLock<P> {
    fn default() -> Self {
        PerLock {
            held_by: None,
            queue: VecDeque::new(),
            stored: None,
            tail: None,
            holding: false,
            waiting: false,
            token_here: false,
            successor: None,
        }
    }
}

/// Per-node lock engine covering all locks (state created on demand).
#[derive(Debug)]
pub struct LockEngine<P> {
    kind: LockKind,
    locks: PageMap<LockId, PerLock<P>>,
    me: NodeId,
    nnodes: u32,
}

impl<P: SyncPiggy> LockEngine<P> {
    pub fn new(kind: LockKind, me: NodeId, nnodes: u32) -> Self {
        LockEngine {
            kind,
            locks: PageMap::default(),
            me,
            nnodes,
        }
    }

    fn home(&self, lock: LockId) -> NodeId {
        lock_home(lock, self.nnodes)
    }

    fn state(&mut self, lock: LockId) -> &mut PerLock<P> {
        let home = self.home(lock);
        let me = self.me;
        self.locks.entry(lock).or_insert_with(|| PerLock {
            // The free token starts parked at the lock's home.
            token_here: me == home,
            ..PerLock::default()
        })
    }

    /// Acquire `lock`. `true` when it was obtained on the spot (free
    /// token parked locally); otherwise a request is out and
    /// [`Self::on_message`] will report the acquisition. Either way
    /// the grant's payload reaches the host through `on_acquired`.
    pub fn acquire(&mut self, host: &mut impl SyncHost<P>, lock: LockId) -> bool {
        let reqinfo = host.acquire_reqinfo(lock);
        let granted = self.try_acquire(host, lock, reqinfo);
        granted.map(|piggy| host.on_acquired(lock, piggy)).is_some()
    }

    /// The payload of an immediate grant, or `None` with a request out.
    fn try_acquire(&mut self, host: &mut impl SyncHost<P>, lock: LockId, reqinfo: P) -> Option<P> {
        let home = self.home(lock);
        let me = self.me;
        let kind = self.kind;
        let s = self.state(lock);
        assert!(!s.holding && !s.waiting, "{me} re-acquiring lock {lock}");
        match kind {
            LockKind::Central => {
                if me == home {
                    // Local call on the server: same logic, no message.
                    if s.held_by.is_none() && s.queue.is_empty() {
                        s.held_by = Some(me);
                        s.holding = true;
                        return Some(s.stored.take().unwrap_or_else(P::empty));
                    }
                    s.queue.push_back(me);
                    s.waiting = true;
                    None
                } else {
                    s.waiting = true;
                    host.send(
                        home,
                        SyncMsg::LockReq {
                            lock,
                            requester: me,
                            reqinfo,
                        },
                    );
                    None
                }
            }
            LockKind::Queue => {
                if me == home {
                    match s.tail {
                        None => {
                            debug_assert!(s.token_here, "free lock must park at home");
                            s.token_here = false;
                            s.holding = true;
                            s.tail = Some(me);
                            Some(P::empty())
                        }
                        Some(t) if t == me && s.token_here => {
                            // Re-acquiring our own parked token.
                            s.token_here = false;
                            s.holding = true;
                            Some(P::empty())
                        }
                        Some(t) => {
                            s.waiting = true;
                            s.tail = Some(me);
                            host.send(
                                t,
                                SyncMsg::LockFwd {
                                    lock,
                                    requester: me,
                                    reqinfo,
                                },
                            );
                            None
                        }
                    }
                } else if s.token_here {
                    // We were the last holder and the token is parked
                    // here (the home's tail still names us): take it
                    // locally. A forward racing in finds us holding and
                    // queues as successor.
                    s.token_here = false;
                    s.holding = true;
                    Some(P::empty())
                } else {
                    s.waiting = true;
                    host.send(
                        home,
                        SyncMsg::LockReq {
                            lock,
                            requester: me,
                            reqinfo,
                        },
                    );
                    None
                }
            }
        }
    }

    /// Release `lock`: hand it to the queued successor, back to its
    /// server, or park the token here (never blocks).
    pub fn release(&mut self, host: &mut impl SyncHost<P>, lock: LockId) {
        let kind = self.kind;
        let me = self.me;
        let home = self.home(lock);
        let s = self.state(lock);
        assert!(s.holding, "{me} releasing lock {lock} it does not hold");
        s.holding = false;
        match kind {
            LockKind::Central if me == home => {
                // Local release on the server: grant to the next queued
                // requester — or, with nobody waiting, deposit for
                // whoever comes next, as a remote releaser's `LockRel`
                // does. (Depositing nothing here lost the server node's
                // own writes for the next acquirer.)
                s.held_by = s.queue.pop_front();
                match s.held_by {
                    Some(next) => {
                        debug_assert_ne!(next, me, "the holder cannot also be queued");
                        Self::grant(host, lock, next, &P::empty());
                    }
                    None => s.stored = Some(host.release_piggy(lock)),
                }
            }
            LockKind::Central => {
                let piggy = host.release_piggy(lock);
                host.send(home, SyncMsg::LockRel { lock, piggy });
            }
            LockKind::Queue => match s.successor.take() {
                Some((to, reqinfo)) => Self::grant(host, lock, to, &reqinfo),
                None => s.token_here = true,
            },
        }
    }

    /// Send the grant of `lock` to `to`, with the piggyback the
    /// coherence layer computes from the requester's `reqinfo`.
    fn grant(host: &mut impl SyncHost<P>, lock: LockId, to: NodeId, reqinfo: &P) {
        let piggy = host.grant_piggy(lock, to, reqinfo);
        host.send(to, SyncMsg::LockGrant { lock, piggy });
    }

    /// Feed a lock-related message into the engine; reports the lock
    /// this node's pending acquire just obtained, if any.
    pub fn on_message(
        &mut self,
        host: &mut impl SyncHost<P>,
        from: NodeId,
        msg: SyncMsg<P>,
    ) -> Option<LockId> {
        let me = self.me;
        match (self.kind, msg) {
            (
                LockKind::Central,
                SyncMsg::LockReq {
                    lock, requester, ..
                },
            ) => {
                let s = self.state(lock);
                if s.held_by.is_none() && s.queue.is_empty() {
                    s.held_by = Some(requester);
                    let piggy = s.stored.take().unwrap_or_else(P::empty);
                    host.send(requester, SyncMsg::LockGrant { lock, piggy });
                } else {
                    s.queue.push_back(requester);
                }
            }
            (LockKind::Central, SyncMsg::LockRel { lock, piggy }) => {
                let s = self.state(lock);
                debug_assert_eq!(s.held_by, Some(from));
                s.held_by = None;
                s.stored = Some(piggy);
                if let Some(next) = s.queue.pop_front() {
                    s.held_by = Some(next);
                    let piggy = s.stored.take().unwrap_or_else(P::empty);
                    if next == me {
                        // The server itself was queued.
                        s.holding = true;
                        s.waiting = false;
                        host.on_acquired(lock, piggy);
                        return Some(lock);
                    } else {
                        host.send(next, SyncMsg::LockGrant { lock, piggy });
                    }
                }
            }
            (
                LockKind::Queue,
                SyncMsg::LockReq {
                    lock,
                    requester,
                    reqinfo,
                },
            ) => {
                // Only the home receives LockReq in queue mode.
                let s = self.state(lock);
                match s.tail.replace(requester) {
                    None => {
                        debug_assert!(s.token_here);
                        s.token_here = false;
                        Self::grant(host, lock, requester, &reqinfo);
                    }
                    Some(t) if t == me => {
                        // Home is the tail: either holding, waiting, or
                        // parked token.
                        if s.token_here {
                            s.token_here = false;
                            Self::grant(host, lock, requester, &reqinfo);
                        } else {
                            debug_assert!(
                                s.holding || s.waiting,
                                "home tail without token must hold or wait"
                            );
                            debug_assert!(s.successor.is_none());
                            s.successor = Some((requester, reqinfo));
                        }
                    }
                    Some(t) => {
                        host.send(
                            t,
                            SyncMsg::LockFwd {
                                lock,
                                requester,
                                reqinfo,
                            },
                        );
                    }
                }
            }
            (
                LockKind::Queue,
                SyncMsg::LockFwd {
                    lock,
                    requester,
                    reqinfo,
                },
            ) => {
                let s = self.state(lock);
                if s.token_here {
                    s.token_here = false;
                    Self::grant(host, lock, requester, &reqinfo);
                } else {
                    debug_assert!(
                        s.holding || s.waiting,
                        "forward reached a node with no claim on the lock"
                    );
                    debug_assert!(s.successor.is_none(), "more than one successor");
                    s.successor = Some((requester, reqinfo));
                }
            }
            (_, SyncMsg::LockGrant { lock, piggy }) => {
                let s = self.state(lock);
                debug_assert!(s.waiting);
                s.waiting = false;
                s.holding = true;
                host.on_acquired(lock, piggy);
                return Some(lock);
            }
            (kind, other) => {
                panic!(
                    "lock engine ({kind:?}) got unexpected message {}",
                    payload_kind(&other)
                );
            }
        }
        None
    }

    /// True if this node currently holds `lock`.
    pub fn holds(&self, lock: LockId) -> bool {
        self.locks.get(&lock).is_some_and(|s| s.holding)
    }
}

fn payload_kind<P: SyncPiggy>(m: &SyncMsg<P>) -> &'static str {
    use dsm_net::Payload;
    m.kind()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Captures sends instead of a real network; attaches nothing.
    #[derive(Default)]
    struct FakeHost {
        sent: Vec<(NodeId, SyncMsg<()>)>,
    }
    impl SyncHost<()> for FakeHost {
        fn send(&mut self, dst: NodeId, msg: SyncMsg<()>) {
            self.sent.push((dst, msg));
        }
    }

    fn req(requester: u32) -> SyncMsg<()> {
        SyncMsg::LockReq {
            lock: 0,
            requester: NodeId(requester),
            reqinfo: (),
        }
    }

    fn fwd(requester: u32) -> SyncMsg<()> {
        SyncMsg::LockFwd {
            lock: 0,
            requester: NodeId(requester),
            reqinfo: (),
        }
    }

    const GRANT: SyncMsg<()> = SyncMsg::LockGrant { lock: 0, piggy: () };
    const REL: SyncMsg<()> = SyncMsg::LockRel { lock: 0, piggy: () };

    /// Engine for node `me` of four, its grant of lock 0 (home: node 0)
    /// already requested and received.
    fn holder(kind: LockKind, me: u32) -> (LockEngine<()>, FakeHost) {
        let mut e = LockEngine::<()>::new(kind, NodeId(me), 4);
        let mut host = FakeHost::default();
        assert!(!e.acquire(&mut host, 0)); // sends LockReq to home
        assert_eq!(e.on_message(&mut host, NodeId(0), GRANT), Some(0));
        assert!(e.holds(0));
        host.sent.clear();
        (e, host)
    }

    #[test]
    fn central_local_fast_path_on_server() {
        let mut e = LockEngine::<()>::new(LockKind::Central, NodeId(0), 4);
        let mut host = FakeHost::default();
        // Lock 0's home is node 0.
        assert!(e.acquire(&mut host, 0));
        assert!(e.holds(0));
        e.release(&mut host, 0);
        assert!(!e.holds(0));
        assert!(host.sent.is_empty());
    }

    /// The server node's own release, with nobody waiting, deposits
    /// its payload like anyone else's: the next grantee gets it.
    #[test]
    fn central_server_deposits_its_own_release_for_the_next_grantee() {
        /// Releases with payload 7.
        #[derive(Default)]
        struct Tagged(Vec<(NodeId, SyncMsg<u32>)>);
        impl SyncHost<u32> for Tagged {
            fn send(&mut self, dst: NodeId, msg: SyncMsg<u32>) {
                self.0.push((dst, msg));
            }
            fn release_piggy(&mut self, _lock: LockId) -> u32 {
                7
            }
        }
        let mut e = LockEngine::<u32>::new(LockKind::Central, NodeId(0), 4);
        let mut host = Tagged::default();
        assert!(e.acquire(&mut host, 0));
        e.release(&mut host, 0);
        let req = SyncMsg::LockReq {
            lock: 0,
            requester: NodeId(2),
            reqinfo: u32::empty(),
        };
        e.on_message(&mut host, NodeId(2), req);
        let grant = SyncMsg::LockGrant { lock: 0, piggy: 7 };
        assert_eq!(host.0, vec![(NodeId(2), grant)]);
    }

    #[test]
    fn central_remote_requester_sends_to_home() {
        let mut e = LockEngine::<()>::new(LockKind::Central, NodeId(2), 4);
        let mut host = FakeHost::default();
        assert!(!e.acquire(&mut host, 0));
        assert_eq!(host.sent, vec![(NodeId(0), req(2))]);
        // Grant arrives.
        assert_eq!(e.on_message(&mut host, NodeId(0), GRANT), Some(0));
        assert!(e.holds(0));
        // The release goes back to the server.
        e.release(&mut host, 0);
        assert_eq!(host.sent.last(), Some(&(NodeId(0), REL)));
    }

    #[test]
    fn central_server_queues_and_grants_in_fifo() {
        let mut e = LockEngine::<()>::new(LockKind::Central, NodeId(0), 4);
        let mut host = FakeHost::default();
        // Node 1 gets it, nodes 2 and 3 queue.
        for n in 1..=3 {
            assert_eq!(e.on_message(&mut host, NodeId(n), req(n)), None);
        }
        assert_eq!(host.sent.len(), 1); // only the first grant went out
        e.on_message(&mut host, NodeId(1), REL);
        e.on_message(&mut host, NodeId(2), REL);
        let grants: Vec<NodeId> = host
            .sent
            .iter()
            .filter(|(_, m)| matches!(m, SyncMsg::LockGrant { .. }))
            .map(|(d, _)| *d)
            .collect();
        assert_eq!(grants, vec![NodeId(1), NodeId(2), NodeId(3)]);
    }

    #[test]
    fn queue_home_parks_and_hands_token_directly() {
        // Home node 0's view of a queue lock.
        let mut e = LockEngine::<()>::new(LockKind::Queue, NodeId(0), 4);
        let mut host = FakeHost::default();
        // Node 1 requests: token is parked at home → granted at once.
        e.on_message(&mut host, NodeId(1), req(1));
        assert_eq!(host.sent, vec![(NodeId(1), GRANT)]);
        // Node 2 requests: forwarded to tail (node 1), not granted.
        e.on_message(&mut host, NodeId(2), req(2));
        assert_eq!(host.sent.len(), 2);
        assert_eq!(host.sent[1], (NodeId(1), fwd(2)));
    }

    #[test]
    fn queue_holder_grants_successor_on_release() {
        // Node 1 holds the lock; a forward arrives; release hands off.
        let (mut e, mut host) = holder(LockKind::Queue, 1);
        e.on_message(&mut host, NodeId(0), fwd(2));
        assert!(host.sent.is_empty(), "held: the forward only queues");
        e.release(&mut host, 0);
        assert_eq!(host.sent, vec![(NodeId(2), GRANT)]);
    }

    #[test]
    fn queue_release_with_no_waiter_parks_token() {
        let (mut e, mut host) = holder(LockKind::Queue, 1);
        e.release(&mut host, 0);
        assert!(host.sent.is_empty());
        // A later forward finds the parked token and grants immediately.
        e.on_message(&mut host, NodeId(0), fwd(3));
        assert_eq!(host.sent, vec![(NodeId(3), GRANT)]);
    }

    #[test]
    fn queue_forward_to_waiting_node_records_successor() {
        // Node 2 requested but hasn't been granted yet; a forward for
        // node 3 arrives first.
        let mut e = LockEngine::<()>::new(LockKind::Queue, NodeId(2), 4);
        let mut host = FakeHost::default();
        e.acquire(&mut host, 0);
        host.sent.clear();
        assert_eq!(e.on_message(&mut host, NodeId(0), fwd(3)), None);
        assert!(host.sent.is_empty());
        // Grant arrives; on release node 3 gets it.
        assert_eq!(e.on_message(&mut host, NodeId(0), GRANT), Some(0));
        e.release(&mut host, 0);
        assert_eq!(host.sent, vec![(NodeId(3), GRANT)]);
    }

    #[test]
    fn queue_home_self_acquire_and_reacquire() {
        let mut e = LockEngine::<()>::new(LockKind::Queue, NodeId(0), 4);
        let mut host = FakeHost::default();
        assert!(e.acquire(&mut host, 0));
        e.release(&mut host, 0);
        // Token parked at home with tail == home: re-acquire locally.
        assert!(e.acquire(&mut host, 0));
        assert!(e.holds(0));
        assert!(host.sent.is_empty());
    }

    #[test]
    fn queue_nonhome_reacquires_parked_token_locally() {
        // Regression: node 1 (not the home) releases with no waiter —
        // token parks locally — then re-acquires. It must take the
        // parked token, not ask the home (which would forward back to
        // us: a self-grant).
        let (mut e, mut host) = holder(LockKind::Queue, 1);
        e.release(&mut host, 0);
        assert!(e.acquire(&mut host, 0), "parked token must be taken");
        assert!(host.sent.is_empty(), "no message needed");
        assert!(e.holds(0));
        // And a forward arriving while we hold queues as successor.
        e.on_message(&mut host, NodeId(0), fwd(2));
        e.release(&mut host, 0);
        assert_eq!(host.sent, vec![(NodeId(2), GRANT)]);
    }

    #[test]
    fn lock_home_spreads() {
        assert_eq!(lock_home(0, 4), NodeId(0));
        assert_eq!(lock_home(6, 4), NodeId(2));
    }

    #[test]
    #[should_panic(expected = "re-acquiring")]
    fn double_acquire_panics() {
        let mut e = LockEngine::<()>::new(LockKind::Queue, NodeId(0), 4);
        let mut host = FakeHost::default();
        e.acquire(&mut host, 0);
        e.acquire(&mut host, 0);
    }
}
