//! Direct protocol-level unit tests: feed messages into protocol state
//! machines through a fake transport and check the transitions that
//! are awkward to reach through full runs.

use dsm_mem::{Access, FrameTable, PageGeometry, Placement, SpaceLayout};
use dsm_net::{CostModel, NodeId};
use dsm_proto::{ProtoEvent, ProtoIo, ProtoMsg, ProtoOpts, Protocol, ProtocolKind, Update};

// The crate's one fake `ProtoIo` (it is `#[cfg(test)]` there, so it
// reaches this binary by path; its `crate::` names resolve to the
// imports above).
#[path = "../src/fake_io.rs"]
mod fake_io;
use fake_io::FakeIo;

fn fake_io() -> FakeIo {
    FakeIo::new(CostModel::lan_1992())
}

/// Where each captured send went, and its kind.
fn sent_kinds(io: &FakeIo) -> Vec<(NodeId, &'static str)> {
    io.sent
        .iter()
        .map(|(dst, msg)| (*dst, dsm_net::Payload::kind(msg)))
        .collect()
}

fn layout(nnodes: u32) -> SpaceLayout {
    SpaceLayout::new(PageGeometry::new(256), 1024, Placement::Cyclic, nnodes)
}

/// The write-update protocol panics loudly on a sequence gap — its
/// documented FIFO-link requirement is checked, not silently corrupted.
#[test]
#[should_panic(expected = "update stream gap")]
fn update_detects_reordered_stream() {
    let l = layout(2);
    let mut u = Update::new(NodeId(1), l);
    let mut mem = FrameTable::new(l.geometry);
    let mut io = fake_io();
    let mut events = Vec::new();
    // Fault in a copy at seq 0, then receive an update with seq 2
    // (gap: seq 1 lost).
    assert!(
        !u.read_fault_batch(&mut io, &mut mem, &[dsm_mem::PageId(0)])
            .0
    );
    u.on_message(
        &mut io,
        &mut mem,
        NodeId(0),
        ProtoMsg::FetchRep {
            page: 0,
            data: vec![0u8; 256].into_boxed_slice(),
            seq: 0,
        },
        &mut events,
    );
    u.on_message(
        &mut io,
        &mut mem,
        NodeId(0),
        ProtoMsg::UpdApply {
            page: 0,
            off: 0,
            data: vec![1u8; 8].into_boxed_slice(),
            seq: 2,
        },
        &mut events,
    );
}

/// A FetchRep resolves the read fault and grants read (not write)
/// access under the update protocol.
#[test]
fn update_fetch_grants_read_only() {
    let l = layout(2);
    let mut u = Update::new(NodeId(1), l);
    let mut mem = FrameTable::new(l.geometry);
    let mut io = fake_io();
    assert!(
        !u.read_fault_batch(&mut io, &mut mem, &[dsm_mem::PageId(0)])
            .0
    );
    assert_eq!(sent_kinds(&io), vec![(NodeId(0), "FetchReq")]);
    let mut events = Vec::new();
    u.on_message(
        &mut io,
        &mut mem,
        NodeId(0),
        ProtoMsg::FetchRep {
            page: 0,
            data: vec![7u8; 256].into_boxed_slice(),
            seq: 4,
        },
        &mut events,
    );
    assert_eq!(events, vec![ProtoEvent::PageReady(dsm_mem::PageId(0))]);
    assert_eq!(mem.access(dsm_mem::PageId(0)), Access::Read);
    assert_eq!(mem.page_bytes(dsm_mem::PageId(0)).unwrap()[0], 7);
}

/// Every protocol rejects messages from a foreign protocol family
/// instead of misinterpreting them.
#[test]
fn protocols_reject_foreign_messages() {
    let l = layout(2);
    for kind in [
        ProtocolKind::IvyFixed,
        ProtocolKind::Migrate,
        ProtocolKind::Update,
        ProtocolKind::Erc,
        ProtocolKind::Lrc,
    ] {
        let mut p = kind.build_opts(NodeId(0), l, &[], ProtoOpts::default());
        let mut mem = FrameTable::new(l.geometry);
        let mut io = fake_io();
        let mut events = Vec::new();
        // A message no protocol shares with another family: pick one
        // not in `kind`'s vocabulary.
        let foreign = match kind {
            ProtocolKind::Update => ProtoMsg::MigReq { page: 0 },
            _ => ProtoMsg::UpdAck { page: 0, seq: 1 },
        };
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.on_message(&mut io, &mut mem, NodeId(1), foreign, &mut events);
        }));
        assert!(r.is_err(), "{} accepted a foreign message", kind.name());
    }
}
