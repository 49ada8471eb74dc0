//! The ledger: one microbenchmark per layer cost, each made by timing
//! calls into a crate's `pub` items from outside, in the driver's own
//! (pinned) process. A row is the median of [`Effort::batches`]
//! batches. Where a measurement needs a whole simulator run, the row
//! is the slope between a short run and a long one, which cancels what
//! every run pays once (thread start-up, node construction).

use crate::sim;
use crate::spec;
use dsm_apps::chase::{self, ChaseParams};
use dsm_core::{CoreMsg, Dsm, DsmConfig, EntryBinding, GlobalAddr, ProtocolKind};
use dsm_mem::{Access, FrameTable, PageDiff, PageGeometry, PageId};
use dsm_net::{
    from_wire_bytes, to_wire_bytes, wrap_fleet, AppHandle, CostModel, Ctx, Dur, KindId,
    NodeBehavior, NodeId, OpOutcome, Payload, Sim, SocketRt, Wire, WireReader,
};
use dsm_proto::{Piggy, ProtoMsg};
use dsm_sync::{BarrierKind, LockKind, SyncMsg, SyncNode, SyncOp};
use dsm_vm::cluster::{ACC_NONE, ACC_READ};
use dsm_vm::{run_vm, ClusterView, Prot, Region, VmConfig, VmMode};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::UdpSocket;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::stats::median;

#[derive(Debug, Clone, Copy)]
pub struct Effort {
    pub batches: usize,
    /// Divides every iteration count (`--quick`).
    pub shrink: usize,
}

impl Effort {
    pub const FULL: Effort = Effort {
        batches: 7,
        shrink: 1,
    };
    pub const QUICK: Effort = Effort {
        batches: 3,
        shrink: 8,
    };

    fn n(&self, iters: usize) -> usize {
        (iters / self.shrink).max(2)
    }

    fn median_of(&self, mut batch: impl FnMut() -> f64) -> f64 {
        let v: Vec<f64> = (0..self.batches).map(|_| batch()).collect();
        median(&v)
    }

    /// Nanoseconds per iteration of `body`, looped `iters` times a
    /// batch (before `--quick` shrinks it).
    fn loop_ns(&self, iters: usize, mut body: impl FnMut(usize)) -> f64 {
        let iters = self.n(iters);
        self.median_of(|| {
            let (t, ()) = timed(|| (0..iters).for_each(&mut body));
            t.as_secs_f64() * 1e9 / iters as f64
        })
    }

    /// Nanoseconds per unit of work: the slope between `run(short)`
    /// and `run(long)`, each returning `(elapsed, units done)`.
    fn slope_ns(&self, short: usize, mut run: impl FnMut(usize) -> (Duration, u64)) -> f64 {
        let (short, long) = (self.n(short), self.n(short) * 5);
        self.median_of(|| {
            let (t1, u1) = run(short);
            let (t2, u2) = run(long);
            (t2.as_secs_f64() - t1.as_secs_f64()) * 1e9 / (u2 - u1) as f64
        })
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (Duration, T) {
    let t = Instant::now();
    let out = f();
    (t.elapsed(), out)
}

// ---------------------------------------------------------------- net

/// A payload-free message, so the kernel's own work is all there is.
#[derive(Debug, Clone, PartialEq)]
enum Token {
    Ping(u32),
    Pong(u32),
    /// Ring: hops left. The node that takes the last hop reports to
    /// node 0, which issued the op.
    Hop(u32),
    Landed,
}

impl Payload for Token {
    fn wire_bytes(&self) -> usize {
        0
    }
    fn kind(&self) -> &'static str {
        "token"
    }
    fn kind_id(&self) -> KindId {
        KindId(42)
    }
}

impl Wire for Token {
    fn encode(&self, out: &mut Vec<u8>) {
        let (tag, k) = match self {
            Token::Ping(k) => (0u8, *k),
            Token::Pong(k) => (1, *k),
            Token::Hop(k) => (2, *k),
            Token::Landed => (3, 0),
        };
        tag.encode(out);
        k.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        let (tag, k) = (r.u8()?, r.u32()?);
        Some(match tag {
            0 => Token::Ping(k),
            1 => Token::Pong(k),
            2 => Token::Hop(k),
            3 => Token::Landed,
            _ => return None,
        })
    }
}

/// What a [`TokenNode`]'s program may ask of it.
#[derive(Debug, Clone, Copy)]
enum TokenOp {
    /// Bounce a message off node 1 this many times.
    PingPong(u32),
    /// Send a token this many hops round the ring.
    Ring(u32),
    /// Answer at once: the rendezvous and nothing else.
    Null,
}

struct TokenNode;

impl NodeBehavior for TokenNode {
    type Msg = Token;
    type Op = TokenOp;
    type Reply = ();

    fn on_message(&mut self, ctx: &mut Ctx<'_, Self>, from: NodeId, msg: Token) {
        match msg {
            Token::Ping(k) => ctx.send(from, Token::Pong(k)),
            Token::Pong(0) | Token::Landed => ctx.complete_op(()),
            Token::Pong(k) => ctx.send(from, Token::Ping(k - 1)),
            Token::Hop(0) => ctx.send(NodeId(0), Token::Landed),
            Token::Hop(k) => {
                let next = NodeId((ctx.me().0 + 1) % ctx.nodes());
                ctx.send(next, Token::Hop(k - 1));
            }
        }
    }

    fn on_op(&mut self, ctx: &mut Ctx<'_, Self>, op: TokenOp) -> OpOutcome<()> {
        match op {
            TokenOp::PingPong(rounds) => ctx.send(NodeId(1), Token::Ping(rounds)),
            TokenOp::Ring(hops) => ctx.send(NodeId(1), Token::Hop(hops)),
            TokenOp::Null => return OpOutcome::Done(()),
        }
        OpOutcome::Blocked
    }
}

fn token_model() -> CostModel {
    CostModel::uniform(Dur::micros(5), 1)
}

/// Node 0 issues `ops`, every other node's program returns at once.
fn token_programs(
    nodes: usize,
    ops: Vec<TokenOp>,
) -> Vec<impl FnOnce(&AppHandle<TokenOp, ()>) + Send> {
    (0..nodes)
        .map(|i| {
            let ops = if i == 0 { ops.clone() } else { Vec::new() };
            move |h: &AppHandle<TokenOp, ()>| ops.into_iter().for_each(|op| h.op(op))
        })
        .collect()
}

fn token_fleet(nodes: usize) -> Vec<TokenNode> {
    (0..nodes).map(|_| TokenNode).collect()
}

/// One run of node 0's `ops` over `nodes` bare nodes: `(wall, events)`.
fn token_run(nodes: usize, ops: Vec<TokenOp>) -> (Duration, u64) {
    let sim = Sim::new(token_fleet(nodes), token_model());
    let (wall, res) = timed(|| sim.run(token_programs(nodes, ops)));
    (wall, res.events)
}

fn net_rows(e: &Effort, rows: &mut BTreeMap<String, f64>) {
    rows.insert(
        "net.kernel_event_ns".into(),
        e.slope_ns(2_000, |r| token_run(2, vec![TokenOp::PingPong(r as u32)])),
    );
    rows.insert(
        "net.kernel_event_n512_ns".into(),
        e.slope_ns(8_000, |hops| {
            token_run(512, vec![TokenOp::Ring(hops as u32)])
        }),
    );
    rows.insert(
        "net.rendezvous_ns".into(),
        e.slope_ns(1_500, |ops| {
            let (wall, _) = token_run(1, vec![TokenOp::Null; ops]);
            (wall, ops as u64)
        }),
    );

    // Per application message, so that the two ping-pongs compare: the
    // wrapped one also pays for the acknowledgements it provokes.
    let per_msg = |wrapped: bool| {
        e.slope_ns(2_000, |r| {
            let programs = token_programs(2, vec![TokenOp::PingPong(r as u32)]);
            let model = token_model();
            let (wall, _) = if wrapped {
                let sim = Sim::new(wrap_fleet(token_fleet(2), &model), model);
                timed(|| sim.run(programs).events)
            } else {
                let sim = Sim::new(token_fleet(2), model);
                timed(|| sim.run(programs).events)
            };
            (wall, 2 * r as u64)
        })
    };
    rows.insert(
        "net.reliable_frame_ns".into(),
        per_msg(true) - per_msg(false),
    );

    let ps = dsm_vm::os_page_size();
    let ctl = CoreMsg::Sync(SyncMsg::LockReq {
        lock: 7,
        requester: NodeId(1),
        reqinfo: Piggy::None,
    });
    let page = CoreMsg::Proto(ProtoMsg::PageRead {
        page: 3,
        data: vec![0xA5u8; ps].into_boxed_slice(),
    });
    for (name, msg, iters) in [
        ("net.wire_ctl_ns", ctl, 200_000),
        ("net.wire_page_ns", page, 20_000),
    ] {
        let ns = e.loop_ns(iters, |_| {
            let bytes = to_wire_bytes(black_box(&msg));
            let back: Option<CoreMsg> = from_wire_bytes(black_box(&bytes));
            black_box(back);
        });
        rows.insert(name.into(), ns);
    }

    rows.insert("net.udp_rtt_us".into(), udp_rtt_us(e));
}

/// Two `SocketRt`s echoing over loopback, one datagram outstanding:
/// median host time of one round trip.
fn udp_rtt_us(e: &Effort) -> f64 {
    let bind = || UdpSocket::bind("127.0.0.1:0").expect("bind loopback UDP socket");
    let (s0, s1) = (bind(), bind());
    let addr = |s: &UdpSocket| s.local_addr().expect("bound socket has an address");
    let peers = vec![addr(&s0), addr(&s1)];
    let rt = |id: u32, sock, peers| {
        SocketRt::new(TokenNode, NodeId(id), sock, peers, CostModel::lan_1992())
    };
    let mut client = rt(0, s0, peers.clone());
    let mut server = rt(1, s1, peers);
    let trips = e.n(2_000);
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            server.start();
            while !done.load(Ordering::Acquire) {
                server.step(Duration::from_millis(5));
            }
        });
        client.start();
        let poll = Duration::from_millis(5);
        let rtts: Vec<f64> = (0..trips)
            .map(|_| {
                let (t, ()) = timed(|| client.run_op(TokenOp::PingPong(0), poll));
                t.as_secs_f64() * 1e6
            })
            .collect();
        done.store(true, Ordering::Release);
        median(&rtts)
    })
}

// ---------------------------------------------------------------- mem

fn mem_rows(e: &Effort, rows: &mut BTreeMap<String, f64>) {
    let ps = 4096;
    let mut frames = FrameTable::new(PageGeometry::new(ps));
    frames.install_zeroed(PageId(0), Access::Read);
    let mut buf = [0u8; 8];
    rows.insert(
        "mem.frame_hit_ns".into(),
        e.loop_ns(500_000, |i| {
            black_box(frames.try_read(GlobalAddr(i % 512 * 8), black_box(&mut buf)));
        }),
    );

    // One word in sixteen dirty: 32 runs of 8 bytes in a 4 KiB page.
    let twin = vec![0u8; ps];
    let mut current = twin.clone();
    for word in (0..ps / 8).step_by(16) {
        current[word * 8..word * 8 + 8].copy_from_slice(&0xDEAD_BEEF_u64.to_le_bytes());
    }
    rows.insert(
        "mem.diff_create_ns".into(),
        e.loop_ns(5_000, |_| {
            black_box(PageDiff::create(black_box(&twin), black_box(&current)));
        }),
    );
    let diff = PageDiff::create(&twin, &current);
    let mut page = twin.clone();
    rows.insert(
        "mem.diff_apply_ns".into(),
        e.loop_ns(100_000, |_| black_box(&diff).apply(black_box(&mut page))),
    );
}

// -------------------------------------------------------------- proto

/// The lock-guarded counter + barrier program of `crates/core`'s tests.
fn counter_program(dsm: &Dsm<'_>, iters: usize) -> u64 {
    for _ in 0..iters {
        dsm.acquire(7);
        let v = dsm.read_u64(GlobalAddr(0));
        dsm.write_u64(GlobalAddr(0), v + 1);
        dsm.release(7);
    }
    dsm.barrier(0);
    dsm.read_u64(GlobalAddr(0))
}

fn proto_rows(e: &Effort, rows: &mut BTreeMap<String, f64>) {
    let nodes = 4;
    let iters = e.n(100);
    for kind in spec::all_protocols() {
        let mut cfg = sim_config(nodes, kind).heap_bytes(1 << 14).page_size(256);
        cfg.bindings = vec![EntryBinding {
            lock: 7,
            addr: GlobalAddr(0),
            len: 8,
        }];
        let rate = e.median_of(|| {
            let (wall, res) = timed(|| dsm_core::run_dsm(&cfg, |d| counter_program(d, iters)));
            assert!(
                res.results
                    .iter()
                    .all(|&v| v == (nodes as usize * iters) as u64),
                "{kind}: the counter program lost an update"
            );
            res.events as f64 / wall.as_secs_f64()
        });
        rows.insert(spec::proto_metric(kind), rate);
    }
}

// --------------------------------------------------------------- sync

fn sync_run(nodes: u32, program: impl Fn(&AppHandle<SyncOp, ()>) + Send + Sync) -> Duration {
    let fleet = SyncNode::cluster(nodes, LockKind::Queue, BarrierKind::Central);
    let program = &program;
    let programs: Vec<_> = (0..nodes)
        .map(|_| move |h: &AppHandle<SyncOp, ()>| program(h))
        .collect();
    timed(|| Sim::new(fleet, CostModel::lan_1992()).run(programs)).0
}

fn sync_rows(e: &Effort, rows: &mut BTreeMap<String, f64>) {
    rows.insert(
        "sync.lock_handoff_ns".into(),
        e.slope_ns(100, |k| {
            let wall = sync_run(8, |h| {
                for _ in 0..k {
                    h.op(SyncOp::Acquire(0));
                    h.advance(Dur::micros(10));
                    h.op(SyncOp::Release(0));
                }
            });
            (wall, 8 * k as u64)
        }),
    );
    let episodes = |nodes: u32, short: usize| {
        e.slope_ns(short, |k| {
            let wall = sync_run(nodes, |h| {
                for b in 0..k {
                    h.op(SyncOp::Barrier(b as u32));
                }
            });
            (wall, k as u64)
        })
    };
    rows.insert("sync.barrier_episode_n8_ns".into(), episodes(8, 150));
    rows.insert(
        "sync.barrier_episode_n512_us".into(),
        episodes(512, 3) / 1e3,
    );
}

// --------------------------------------------------------------- core

fn sim_config(nodes: u32, kind: ProtocolKind) -> DsmConfig {
    DsmConfig::new(nodes, kind)
        .model(CostModel::lan_1992())
        .workers(1)
}

fn core_rows(e: &Effort, rows: &mut BTreeMap<String, f64>) {
    // Single node: every page is home-resident, so each read after the
    // first write is a pure hit.
    let hit = |fast: bool, short: usize| {
        let cfg = sim_config(1, ProtocolKind::IvyFixed)
            .heap_bytes(1 << 16)
            .fast_path(fast);
        e.slope_ns(short, |hits| {
            let (wall, _) = timed(|| {
                dsm_core::run_dsm(&cfg, |dsm| {
                    dsm.write_u64(GlobalAddr(0), 7);
                    (0..hits).fold(0u64, |acc, i| {
                        acc.wrapping_add(dsm.read_u64(GlobalAddr(i % 4096 * 8)))
                    })
                })
            });
            (wall, hits as u64)
        })
    };
    rows.insert("core.lease_hit_ns".into(), hit(true, 100_000));
    rows.insert("core.op_hit_ns".into(), hit(false, 1_500));

    let row = sim::MATMUL_N;
    let cfg = sim_config(1, ProtocolKind::IvyFixed).heap_bytes(row * 8);
    rows.insert(
        "core.row_read_ns".into(),
        e.slope_ns(2_000, |reads| {
            let (wall, _) = timed(|| {
                dsm_core::run_dsm(&cfg, |dsm| {
                    dsm.write_f64s(GlobalAddr(0), &vec![1.5; row]);
                    (0..reads).fold(0.0, |acc, _| {
                        acc + dsm.read_f64s(GlobalAddr(0), row)[row / 2]
                    })
                })
            });
            (wall, reads as u64)
        }),
    );

    // Two nodes, cyclic placement: node 0's first touch of every odd
    // page is a read fault that node 1 serves.
    rows.insert(
        "core.sim_fault_us".into(),
        e.slope_ns(100, |faults| {
            let cfg = sim_config(2, ProtocolKind::IvyFixed).heap_bytes(2 * faults * 4096);
            let (wall, _) = timed(|| {
                dsm_core::run_dsm(&cfg, |dsm| {
                    let mut acc = 0u64;
                    if dsm.id().0 == 0 {
                        for i in 0..faults {
                            acc = acc.wrapping_add(dsm.read_u64(GlobalAddr((2 * i + 1) * 4096)));
                        }
                    }
                    dsm.barrier(0);
                    acc
                })
            });
            (wall, faults as u64)
        }) / 1e3,
    );
}

// ----------------------------------------------------------------- vm

fn vm_rows(e: &Effort, rows: &mut BTreeMap<String, f64>) {
    let ps = dsm_vm::os_page_size();
    let region = Region::new(4 * ps).expect("mmap");
    rows.insert(
        "vm.mprotect_ns".into(),
        e.loop_ns(30_000, |i| {
            let prot = if i % 2 == 0 {
                Prot::ReadWrite
            } else {
                Prot::Read
            };
            region.protect(ps, ps, prot);
        }),
    );

    // One view per process: this one serves the three view rows and is
    // dropped before the ledger returns.
    let pages = e.n(256);
    let view = ClusterView::new(pages, ps).expect("mmap cluster view");
    let data = vec![0x5Au8; ps];
    let trap = std::thread::scope(|s| {
        // The host a network runtime would be: answer each fault by
        // installing the page read-only.
        s.spawn(|| {
            while let Some(fault) = view.next_fault() {
                view.install_page(fault.page, &data, ACC_READ);
                view.finish_fault();
            }
        });
        let us = e.median_of(|| {
            for page in 0..pages {
                view.set_access(page, ACC_NONE);
            }
            let (t, ()) = timed(|| {
                for page in 0..pages {
                    black_box(view.read::<u8>(page * ps));
                }
            });
            t.as_secs_f64() * 1e6 / pages as f64
        });
        view.stop();
        us
    });
    rows.insert("vm.trap_roundtrip_us".into(), trap);

    rows.insert(
        "vm.view_install_ns".into(),
        e.loop_ns(5_000, |i| {
            view.install_page(i % pages, black_box(&data), ACC_READ)
        }),
    );
    let mut buf = vec![0u8; ps];
    rows.insert(
        "vm.view_snapshot_ns".into(),
        e.loop_ns(5_000, |i| {
            view.snapshot_page(i % pages, black_box(&mut buf))
        }),
    );
    drop(view);

    // E10's number: node 1 loads from every page homed at node 0, each
    // a remote read fault served inside the process.
    let pages = e.n(256);
    rows.insert(
        "vm.engine_fault_us".into(),
        e.median_of(|| {
            let res = run_vm(VmConfig::new(2, pages, VmMode::Invalidate), |node| {
                let mut spent = Duration::ZERO;
                if node.id() == 1 {
                    let (t, ()) = timed(|| {
                        for page in (0..pages).step_by(2) {
                            black_box(node.read::<u64>(page * ps));
                        }
                    });
                    spent = t;
                }
                node.barrier();
                spent
            });
            res.results[1].as_secs_f64() * 1e6 / (pages / 2) as f64
        }),
    );
}

// ---------------------------------------------------------------- obj

fn obj_rows(e: &Effort, rows: &mut BTreeMap<String, f64>) {
    let nodes = 4u32;
    let chain_len = 16;
    rows.insert(
        "obj.op_ns".into(),
        e.slope_ns(12, |rounds| {
            let p = ChaseParams {
                chain_len,
                rounds,
                think: Dur::micros(5),
            };
            let (heap, chains) = chase::build_obj_chains(&p, nodes);
            let cfg = sim_config(nodes, ProtocolKind::Obj)
                .heap_bytes(p.heap_bytes(nodes as usize).max(4096))
                .objects(heap.table());
            let (wall, res) = timed(|| dsm_core::run_dsm(&cfg, |d| chase::run_obj(d, &p, &chains)));
            assert!(
                res.results.iter().all(|&v| v == p.expected()),
                "obj: the pointer chase lost an update"
            );
            // Each visit of a round is a get and a put.
            (wall, 2 * (nodes as usize * chain_len * rounds) as u64)
        }),
    );
}

/// Run every microbenchmark. The caller has pinned this process.
pub fn run(e: &Effort) -> BTreeMap<String, f64> {
    let mut rows = BTreeMap::new();
    net_rows(e, &mut rows);
    mem_rows(e, &mut rows);
    proto_rows(e, &mut rows);
    sync_rows(e, &mut rows);
    core_rows(e, &mut rows);
    vm_rows(e, &mut rows);
    obj_rows(e, &mut rows);
    rows
}
