//! An idle cluster node sleeps: its reactor waits in one `ppoll` that
//! only a datagram, a retransmit deadline or its own application ends.
//! The measure is this process's CPU time, so the test is alone in its
//! binary — a test running beside it would be counted too.

use std::net::{SocketAddr, UdpSocket};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use dsm_core::{run_cluster_node, DsmConfig, GlobalAddr, NodeId, ProtocolKind};

/// User plus system CPU time of this process so far: fields 14 and 15
/// of `/proc/self/stat`, in the kernel's fixed 100 ticks a second.
fn cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Field 2, the command name, is parenthesised and may hold spaces;
    // after it the fields are plain, starting at field 3.
    let rest = &stat[stat.rfind(')').expect("a command name field") + 1..];
    let field = |n: usize| -> u64 {
        let raw = rest.split_whitespace().nth(n - 3).expect("field present");
        raw.parse().expect("a tick count")
    };
    (field(14) + field(15)) as f64 / 100.0
}

/// Two nodes as threads of this process exchange a page and meet at a
/// barrier, then both linger: for 300 ms their reactors have nothing to
/// do, and together they burn less than a tenth of that.
#[test]
fn an_idle_reactor_does_not_spin() {
    let page = dsm_vm::os_page_size();
    let cfg = DsmConfig::new(2, ProtocolKind::IvyFixed)
        .heap_bytes(2 * page)
        .page_size(page);
    let socks: Vec<UdpSocket> = (0..2)
        .map(|_| UdpSocket::bind("127.0.0.1:0").unwrap())
        .collect();
    let peers: Vec<SocketAddr> = socks.iter().map(|s| s.local_addr().unwrap()).collect();
    let (idle, measured) = (Barrier::new(2), Barrier::new(2));
    std::thread::scope(|s| {
        for (rank, sock) in socks.into_iter().enumerate() {
            let (cfg, peers, idle, measured) = (&cfg, peers.clone(), &idle, &measured);
            s.spawn(move || {
                run_cluster_node(
                    cfg,
                    NodeId(rank as u32),
                    sock,
                    peers,
                    |d| {
                        d.write_u64(GlobalAddr(rank * page), rank as u64 + 1);
                        d.barrier(0);
                        d.read_u64(GlobalAddr((1 - rank) * page))
                    },
                    |&seen| {
                        idle.wait();
                        let burnt = (rank == 0).then(|| {
                            let (cpu, wall) = (cpu_s(), Instant::now());
                            std::thread::sleep(Duration::from_millis(300));
                            (cpu_s() - cpu, wall.elapsed().as_secs_f64())
                        });
                        // Assert only once both are past the barriers, so
                        // a failure cannot leave the other rank waiting.
                        measured.wait();
                        assert_eq!(seen, 2 - rank as u64);
                        if let Some((cpu, wall)) = burnt {
                            assert!(cpu < wall / 10.0, "{cpu:.3} s of CPU in {wall:.3} s idle");
                        }
                    },
                )
            });
        }
    });
}
