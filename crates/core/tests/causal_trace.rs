//! One fault's chain: the kernel mints a cause when it dispatches an
//! op, and every delivery, send and record that op provokes carries it.
//! So the records of one cause are the hops behind one access, in time
//! order — and no other op's records carry it.

use dsm_core::trace::{Kind, Rec};
use dsm_core::{Dsm, DsmConfig, GlobalAddr, ProtocolKind};
use dsm_net::{KindId, Payload};
use dsm_proto::ProtoMsg;

/// The trace of a 2-node run in which node 1 reads page 0, homed at
/// node 0 — after a barrier both nodes cross, if `barrier`.
fn read_of_page_0(proto: ProtocolKind, barrier: bool) -> Vec<Rec> {
    let cfg = DsmConfig::new(2, proto).heap_bytes(1024).page_size(256);
    let program = move |dsm: &Dsm<'_>| {
        if barrier {
            dsm.barrier(0);
        }
        if dsm.id().0 == 1 {
            dsm.read_u64(GlobalAddr(0));
        }
    };
    dsm_core::run_traced(&cfg, program, Vec::new()).1
}

/// The read's records run `Issue` → `Send request` → its `Deliver` at
/// the home → … → `Retire` on the reader, in time order; every message
/// sent from the read's issue on carries its cause and is delivered
/// under it; and the cause is on no other op's records.
fn assert_one_chain(trace: &[Rec], request: ProtoMsg) {
    let issue = *trace
        .iter()
        .rfind(|r| r.node == 1 && r.kind == Kind::Issue)
        .expect("node 1 issued its read");
    let hops: Vec<Rec> = trace
        .iter()
        .filter(|r| r.cause == issue.cause)
        .copied()
        .collect();
    assert!(hops.windows(2).all(|w| w[0].at <= w[1].at), "{hops:#?}");
    let req = request.kind_id();
    let first: Vec<_> = hops
        .iter()
        .take(3)
        .map(|r| (r.node, r.kind, r.msg))
        .collect();
    let deliver = Kind::Deliver { nic: false };
    let want = [
        (1, Kind::Issue, KindId(0)),
        (1, Kind::Send, req),
        (0, deliver, req),
    ];
    assert_eq!(first, want, "{hops:#?}");
    let ends = |k: Kind| hops.iter().filter(|r| r.kind == k).count();
    assert_eq!((ends(Kind::Issue), ends(Kind::Retire)), (1, 1), "{hops:#?}");
    let retire = hops.iter().find(|r| r.kind == Kind::Retire).unwrap();
    assert_eq!(retire.node, 1, "{hops:#?}");
    for send in trace
        .iter()
        .filter(|r| r.kind == Kind::Send && r.at >= issue.at)
    {
        assert_eq!(
            send.cause, issue.cause,
            "a send of the read's time: {send:?}"
        );
        let delivered = |d: &&Rec| d.kind == deliver && u64::from(d.node) == send.unit;
        let delivery = hops.iter().filter(delivered).find(|d| d.msg == send.msg);
        assert!(
            delivery.is_some_and(|d| d.at > send.at),
            "{send:?} in {hops:#?}"
        );
    }
}

#[test]
fn an_ivy_read_faults_chain_is_its_request_the_page_and_the_retire() {
    let trace = read_of_page_0(ProtocolKind::IvyFixed, false);
    assert_one_chain(&trace, ProtoMsg::ReadReq { page: 0 });
}

#[test]
fn an_lrc_read_after_a_barrier_is_a_chain_of_its_own() {
    let trace = read_of_page_0(ProtocolKind::Lrc, true);
    let page_req = ProtoMsg::LrcPageReq { page: 0, epoch: 0 };
    assert_one_chain(&trace, page_req);
    // The barrier's ops came before, under causes of their own.
    let barrier = trace.iter().filter(|r| r.kind == Kind::Issue).count();
    assert_eq!(barrier, 3, "two barrier arrivals and the read");
}
