//! A history checker for the cluster programs: a recording [`Engine`]
//! logs every op a program makes, on either engine, and
//! [`History::check`] holds the log to the contract of the row it ran
//! under — asked of `facts().consistency`, naming no protocol.
//!
//! Every row promises the same thing to a data-race-free program: each
//! read returns the write to its word that is latest in happens-before
//! order (the initial zero if none is). Happens-before is program order
//! ∪ lock grant order (a holder's release precedes the next holder's
//! acquire) ∪ barrier episodes (every arrival precedes every departure
//! of the same episode). A history with two accesses to one unit, at
//! least one a write, that happens-before leaves unordered is not
//! data-race free, and is reported as a race, its own verdict. The
//! unit is the 8-byte word, or the page under a row that makes the page
//! the atomic register.
//!
//! The order of sync ops is read off one global sequence number that
//! every op takes when it is invoked and when it returns: the holders
//! of a lock are ordered by when their acquires returned.

#![allow(dead_code)]

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use dsm_core::{
    BarrierId, Consistency, Dsm, DsmConfig, DsmOp, Dur, Engine, FaultPlan, GlobalAddr, LockId,
    NodeId, Window,
};

/// What one logged op did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Read `value` from the 8-byte word at `addr`.
    Read {
        addr: usize,
        value: u64,
    },
    /// Wrote `value` to the 8-byte word at `addr`.
    Write {
        addr: usize,
        value: u64,
    },
    Acquire(LockId),
    Release(LockId),
    Barrier(BarrierId),
}

/// One logged op: its node, what it did, and the sequence numbers it
/// was invoked and returned at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    pub node: usize,
    pub op: Op,
    pub inv: u64,
    pub resp: u64,
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let node = self.node;
        match self.op {
            Op::Read { addr, value } => {
                write!(f, "node {node} read {} = {value}", GlobalAddr(addr))
            }
            Op::Write { addr, value } => {
                write!(f, "node {node} wrote {} = {value}", GlobalAddr(addr))
            }
            Op::Acquire(l) => write!(f, "node {node} acquired lock {l}"),
            Op::Release(l) => write!(f, "node {node} released lock {l}"),
            Op::Barrier(b) => write!(f, "node {node} passed barrier {b}"),
        }?;
        write!(f, " (seq {}..{})", self.inv, self.resp)
    }
}

/// What [`History::check`] found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Every read returned its happens-before-latest write.
    Holds,
    /// A read returned something else than its happens-before-latest
    /// write (`None`: no write precedes it, so the initial zero).
    Stale { write: Option<Event>, read: Event },
    /// Two accesses to one unit, at least one a write, that
    /// happens-before does not order.
    Race { first: Event, second: Event },
    /// The sync ops order nothing consistently: a lock held twice at
    /// once, or a barrier episode some node never reached.
    Broken(String),
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Holds => f.write_str("every read returned its happens-before-latest write"),
            Verdict::Stale {
                write: Some(w),
                read,
            } => {
                write!(
                    f,
                    "stale read: {read}, but its happens-before-latest write is: {w}"
                )
            }
            Verdict::Stale { write: None, read } => {
                write!(f, "stale read: {read}, but no write precedes it (0)")
            }
            Verdict::Race { first, second } => {
                write!(
                    f,
                    "data race, nothing promised: {first} and {second} are unordered"
                )
            }
            Verdict::Broken(why) => write!(f, "broken sync order: {why}"),
        }
    }
}

/// The ops of one run, per node, in program order.
pub struct History {
    clock: AtomicU64,
    nodes: Vec<Mutex<Vec<Event>>>,
    /// Bytes of the unit two accesses race on.
    unit: usize,
}

impl History {
    /// An empty history of a run under `cfg`.
    pub fn new(cfg: &DsmConfig) -> History {
        History {
            clock: AtomicU64::new(0),
            nodes: (0..cfg.nnodes).map(|_| Mutex::new(Vec::new())).collect(),
            unit: match cfg.protocol.facts().consistency {
                Consistency::ScPerPage => cfg.page_size,
                Consistency::Sc | Consistency::Drf => 8,
            },
        }
    }

    /// The next global sequence number.
    pub fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::SeqCst)
    }

    /// Log `op`, invoked at `inv` and returning now, as `node`'s next.
    pub fn log(&self, node: usize, op: Op, inv: u64) {
        let resp = self.tick();
        let event = Event {
            node,
            op,
            inv,
            resp,
        };
        self.nodes[node].lock().unwrap().push(event);
    }

    /// Log `op` as `node`'s next, invoked and returned at once: how a
    /// history is written by hand.
    pub fn push(&self, node: usize, op: Op) {
        let inv = self.tick();
        self.log(node, op, inv);
    }

    /// Hold the history to its row's contract.
    pub fn check(&self) -> Verdict {
        let logs: Vec<Vec<Event>> = self
            .nodes
            .iter()
            .map(|node| node.lock().unwrap().clone())
            .collect();
        let clocks = match vector_clocks(&logs) {
            Ok(clocks) => clocks,
            Err(why) => return Verdict::Broken(why),
        };
        // a → b: a's own entry is at most what b knows of a's node.
        let hb = |a: (usize, usize), b: (usize, usize)| {
            a != b && clocks[a.0][a.1][a.0] <= clocks[b.0][b.1][a.0]
        };
        let event = |(p, i): (usize, usize)| logs[p][i];
        // Per unit, its writes and its reads.
        let mut writes: BTreeMap<usize, Vec<(usize, usize)>> = BTreeMap::new();
        let mut reads: Vec<(usize, usize)> = Vec::new();
        for (p, log) in logs.iter().enumerate() {
            for (i, e) in log.iter().enumerate() {
                match e.op {
                    Op::Write { addr, .. } => {
                        writes.entry(addr / self.unit).or_default().push((p, i))
                    }
                    Op::Read { .. } => reads.push((p, i)),
                    _ => {}
                }
            }
        }
        // Happens-before implies invocation order, so a unit's writes
        // are ordered by it iff each is ordered with the next.
        for chain in writes.values_mut() {
            chain.sort_by_key(|&w| event(w).inv);
            if let Some(pair) = chain.windows(2).find(|pair| !hb(pair[0], pair[1])) {
                return Verdict::Race {
                    first: event(pair[0]),
                    second: event(pair[1]),
                };
            }
        }
        let mut stale = None;
        for &r in &reads {
            let read = event(r);
            let Op::Read { addr, value } = read.op else {
                unreachable!()
            };
            let chain = writes
                .get(&(addr / self.unit))
                .map_or(&[][..], Vec::as_slice);
            // The writes before the read are a prefix of the chain, and
            // the first write after it must follow the read.
            let before = chain.partition_point(|&w| hb(w, r));
            if let Some(&next) = chain.get(before) {
                if !hb(r, next) {
                    return Verdict::Race {
                        first: event(next),
                        second: read,
                    };
                }
            }
            let latest = chain[..before]
                .iter()
                .rev()
                .map(|&w| event(w))
                .find(|w| matches!(w.op, Op::Write { addr: a, .. } if a == addr));
            let want = match latest.map(|w| w.op) {
                Some(Op::Write { value, .. }) => value,
                _ => 0,
            };
            if value != want && stale.is_none() {
                stale = Some(Verdict::Stale {
                    write: latest,
                    read,
                });
            }
        }
        stale.unwrap_or(Verdict::Holds)
    }
}

/// Each event's vector clock under happens-before, per node in program
/// order; why not, if the sync ops order nothing consistently.
fn vector_clocks(logs: &[Vec<Event>]) -> Result<Vec<Vec<Vec<u32>>>, String> {
    let n = logs.len();
    // Grant order: each acquire waits for the previous holder's release.
    let mut holders: BTreeMap<LockId, Vec<(usize, usize)>> = BTreeMap::new();
    for (p, log) in logs.iter().enumerate() {
        for (i, e) in log.iter().enumerate() {
            if let Op::Acquire(lock) = e.op {
                holders.entry(lock).or_default().push((p, i));
            }
        }
    }
    let mut granted_after: HashMap<(usize, usize), (usize, usize)> = HashMap::new();
    for (lock, mut acquires) in holders {
        acquires.sort_by_key(|&(p, i)| logs[p][i].resp);
        let mut released: Option<(usize, usize)> = None;
        for (k, &(p, i)) in acquires.iter().enumerate() {
            let acquire = logs[p][i];
            if k > 0 {
                let (q, j) = released.ok_or_else(|| {
                    format!("lock {lock}: {acquire} while its holder never released it")
                })?;
                if logs[q][j].inv > acquire.resp {
                    return Err(format!("lock {lock}: {acquire} before {}", logs[q][j]));
                }
                granted_after.insert((p, i), (q, j));
            }
            released = logs[p][i + 1..]
                .iter()
                .position(|e| e.op == Op::Release(lock))
                .map(|j| (p, i + 1 + j));
        }
    }
    let mut vc = vec![vec![0u32; n]; n];
    let mut clocks: Vec<Vec<Vec<u32>>> = vec![Vec::new(); n];
    let mut release_clocks: HashMap<(usize, usize), Vec<u32>> = HashMap::new();
    // Barrier episodes by (barrier, how many times each node passed it
    // before): arrivals so far and their joined clock.
    let mut episodes: HashMap<(BarrierId, usize), (usize, Vec<u32>)> = HashMap::new();
    let mut passed: Vec<HashMap<BarrierId, usize>> = vec![HashMap::new(); n];
    let mut arrived = vec![false; n];
    let join = |into: &mut Vec<u32>, from: &[u32]| {
        for (a, b) in into.iter_mut().zip(from) {
            *a = (*a).max(*b);
        }
    };
    loop {
        let mut moved = false;
        for p in 0..n {
            while let Some(e) = logs[p].get(clocks[p].len()) {
                let i = clocks[p].len();
                match e.op {
                    Op::Acquire(_) => {
                        if let Some(release) = granted_after.get(&(p, i)) {
                            let Some(released) = release_clocks.get(release) else {
                                break;
                            };
                            join(&mut vc[p], released);
                        }
                    }
                    Op::Barrier(b) => {
                        let key = (b, passed[p].get(&b).copied().unwrap_or(0));
                        let episode = episodes.entry(key).or_insert((0, vec![0; n]));
                        if !arrived[p] {
                            arrived[p] = true;
                            moved = true;
                            vc[p][p] += 1;
                            episode.0 += 1;
                            join(&mut episode.1, &vc[p]);
                        }
                        if episode.0 < n {
                            break;
                        }
                        let all = episode.1.clone();
                        join(&mut vc[p], &all);
                        arrived[p] = false;
                        *passed[p].entry(b).or_default() += 1;
                    }
                    _ => {}
                }
                vc[p][p] += 1;
                if let Op::Release(_) = e.op {
                    release_clocks.insert((p, i), vc[p].clone());
                }
                clocks[p].push(vc[p].clone());
                moved = true;
            }
        }
        if (0..n).all(|p| clocks[p].len() == logs[p].len()) {
            return Ok(clocks);
        }
        if !moved {
            let stuck: Vec<String> = (0..n)
                .filter_map(|p| logs[p].get(clocks[p].len()).map(ToString::to_string))
                .collect();
            return Err(format!("no order lets these proceed: {}", stuck.join("; ")));
        }
    }
}

/// A program's engine, every op logged in a [`History`] on its way
/// through to the program's own handle.
pub struct Recorder<'d, 'a, E> {
    dsm: &'d Dsm<'a, E>,
    history: &'d History,
}

/// The 8-byte words of `[addr, addr + len)`, which must be whole words.
fn words(addr: GlobalAddr, len: usize) -> impl Iterator<Item = usize> {
    assert!(
        addr.0 % 8 == 0 && len % 8 == 0,
        "the history logs 8-byte words: [{addr}, +{len}) is not whole words"
    );
    (addr.0..addr.0 + len).step_by(8)
}

fn word_at(bytes: &[u8], k: usize) -> u64 {
    u64::from_le_bytes(bytes[k * 8..k * 8 + 8].try_into().unwrap())
}

impl<E: Engine> Engine for Recorder<'_, '_, E> {
    fn id(&self) -> NodeId {
        self.dsm.id()
    }

    fn nodes(&self) -> u32 {
        self.dsm.nodes()
    }

    fn read(&self, addr: GlobalAddr, buf: &mut [u8], _: Window) {
        let inv = self.history.tick();
        self.dsm.read_bytes_into(addr, buf);
        for (k, addr) in words(addr, buf.len()).enumerate() {
            let value = word_at(buf, k);
            self.history
                .log(self.id().index(), Op::Read { addr, value }, inv);
        }
    }

    fn write(&self, addr: GlobalAddr, data: &[u8]) {
        let inv = self.history.tick();
        self.dsm.write_bytes(addr, data);
        for (k, addr) in words(addr, data.len()).enumerate() {
            let value = word_at(data, k);
            self.history
                .log(self.id().index(), Op::Write { addr, value }, inv);
        }
    }

    fn sync(&self, op: DsmOp) {
        let inv = self.history.tick();
        let op = match op {
            DsmOp::Acquire(lock) => {
                self.dsm.acquire(lock);
                Op::Acquire(lock)
            }
            DsmOp::Release(lock) => {
                self.dsm.release(lock);
                Op::Release(lock)
            }
            DsmOp::Barrier(b) => {
                self.dsm.barrier(b);
                Op::Barrier(b)
            }
            _ => unreachable!("the handle's sync calls are acquire, release and barrier"),
        };
        self.history.log(self.id().index(), op, inv);
    }

    fn compute(&self, d: Dur) {
        self.dsm.compute(d);
    }
}

/// Run `program` on `dsm` with every op it makes logged in `history`.
pub fn recorded<E: Engine, V>(
    dsm: &Dsm<'_, E>,
    history: &History,
    program: impl FnOnce(&Dsm<'_, Recorder<'_, '_, E>>) -> V,
) -> V {
    program(&Dsm::new(Recorder { dsm, history }))
}

/// `cfg` over each network the cluster programs run on: a lossless
/// one, and one that drops a tenth of all messages — datagrams, on real
/// pages — which the reliable transport hides.
pub fn networks(cfg: DsmConfig) -> [DsmConfig; 2] {
    let lossy = cfg.clone().faults(FaultPlan::lossy(0.1, 0.0, 7));
    [cfg, lossy]
}

/// The engine's name, and the loss of `cfg`'s network if it has any.
pub fn engine(name: &str, cfg: &DsmConfig) -> String {
    let drop = cfg.model.faults.drop_prob;
    if drop == 0.0 {
        name.to_string()
    } else {
        format!("{name} at {}% drop", drop * 100.0)
    }
}

/// Run `$program` — a program over `&Dsm<'_, impl Engine>`, given as a
/// closure of the handle — under `$cfg` on real pages (a cluster as
/// threads of this process) and in the simulator, and hold each run's
/// history to the row's contract. The two runs' per-node results, real
/// pages first, each with its engine's name (and network's loss).
#[allow(unused_macros)]
macro_rules! checked_on_both_engines {
    ($cfg:expr, $program:expr) => {{
        let cfg: &dsm_core::DsmConfig = $cfg;
        let (pages, sim) = (common::History::new(cfg), common::History::new(cfg));
        let on_pages = dsm_core::run_in_threads(cfg, |d: &dsm_core::ClusterDsm<'_>| {
            common::recorded(d, &pages, |d| ($program)(d))
        })
        .results;
        let in_sim = dsm_core::run_dsm(cfg, |d: &dsm_core::Dsm<'_>| {
            common::recorded(d, &sim, |d| ($program)(d))
        })
        .results;
        let (on_pages_name, in_sim_name) = (
            common::engine("real pages", cfg),
            common::engine("simulator", cfg),
        );
        for (engine, history) in [(&on_pages_name, &pages), (&in_sim_name, &sim)] {
            let verdict = history.check();
            assert_eq!(
                verdict,
                common::Verdict::Holds,
                "{} on {engine}: {verdict}",
                cfg.protocol
            );
        }
        [(on_pages_name, on_pages), (in_sim_name, in_sim)]
    }};
}
