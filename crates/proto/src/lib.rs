//! # dsm-proto — coherence protocols for page-based DSM
//!
//! Message-driven implementations of the protocol families the DSM
//! literature of 1989–1994 is built on:
//!
//! | kind | model | mechanism |
//! |------|-------|-----------|
//! | [`ProtocolKind::IvyCentral`] / [`ProtocolKind::IvyFixed`] / [`ProtocolKind::IvyDynamic`] | sequential consistency | write-invalidate, single writer, Li & Hudak's three manager schemes |
//! | [`ProtocolKind::Migrate`] | sequential consistency | single copy, page migration |
//! | [`ProtocolKind::Update`] | sequential consistency | write-update with home sequencing ("eager sharing") |
//! | [`ProtocolKind::Erc`] | eager release consistency | twin/diff multiple writers, flush-on-release (Munin) |
//! | [`ProtocolKind::Lrc`] | lazy release consistency | vector timestamps, intervals, write notices, lazy diffs (TreadMarks) |
//! | [`ProtocolKind::Entry`] | entry consistency | data bound to locks, updates ride grants (Midway) |
//! | [`ProtocolKind::Scabd`] | sequential consistency per page | majority-replicated pages, two-phase ABD quorums, serves through node death (SC-ABD) |
//! | [`ProtocolKind::Rdma`] | sequential consistency | home-based write-invalidate, read faults served one-sided by the home's NIC |
//! | [`ProtocolKind::Obj`] | entry consistency at object granularity | per-object directory, ownership moves with mutation, replicas self-invalidate at sync entries |
//!
//! Every protocol implements [`Protocol`]: faults and sync hooks in,
//! [`ProtoMsg`] messages and [`ProtoEvent`]s out. The runtime in
//! `dsm-core` owns the frame table and the event plumbing. What a
//! protocol needs, offers and promises is one [`Facts`] row
//! ([`ProtocolKind::facts`]) that everything else asks.

mod api;
mod entry;
mod erc;
mod fake_io;
mod ivy;
mod kind;
mod lrc;
mod migrate;
mod msg;
mod obj;
mod rdma;
mod scabd;
mod update;

pub use api::{BatchingIo, ProtoEvent, ProtoIo, Protocol, WriteOutcome, MAX_BATCH_DEPTH};
pub use entry::{Entry, EntryBinding};
pub use erc::Erc;
pub use ivy::{Ivy, ManagerScheme};
pub use kind::{Can, Consistency, CrashContract, Facts, ProtoOpts, ProtocolKind};
pub use lrc::Lrc;
pub use migrate::Migrate;
pub use msg::{EntryUpdateLog, Piggy, ProtoMsg};
pub use obj::Obj;
pub use rdma::Rdma;
pub use scabd::Scabd;
pub use update::Update;
