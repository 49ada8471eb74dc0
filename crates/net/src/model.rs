//! Network and local-machine cost model.
//!
//! Page-based DSM protocols are critical-path bound: what matters is
//! how many messages cross the network, how big they are, and how much
//! software overhead each send/receive/fault costs. The model exposes
//! exactly those terms, with era presets spanning the 1992 LAN the
//! tutorial assumed through a modern RDMA fabric (see
//! [`CostModel::era`]), plus optional one-sided (RDMA-style) operation
//! costs for fabrics that can read remote memory without interrupting
//! the target's CPU.

use crate::time::{Dur, SimTime};

/// One scheduled node crash: the node's volatile state is discarded at
/// virtual time `at`; with `recover` set the node restarts from its
/// recovery hook at that later time, otherwise it stays dead for the
/// rest of the run.
#[derive(Debug, Clone, PartialEq)]
pub struct CrashEvent {
    /// The node that crashes.
    pub node: u32,
    /// Virtual time of the crash.
    pub at: SimTime,
    /// Virtual time of recovery, if any (must be `> at`).
    pub recover: Option<SimTime>,
}

/// One scheduled link partition: messages between group `a` and group
/// `b` are silently discarded while `from <= now < until`. Traffic
/// within each group (and to/from nodes in neither group) is unaffected.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionEvent {
    /// Nodes on one side of the cut.
    pub a: Vec<u32>,
    /// Nodes on the other side.
    pub b: Vec<u32>,
    /// Partition start (inclusive).
    pub from: SimTime,
    /// Partition end (exclusive).
    pub until: SimTime,
}

impl PartitionEvent {
    /// True if the partition severs the `src → dst` link at time `now`.
    pub fn cuts(&self, src: u32, dst: u32, now: SimTime) -> bool {
        if now < self.from || now >= self.until {
            return false;
        }
        (self.a.contains(&src) && self.b.contains(&dst))
            || (self.b.contains(&src) && self.a.contains(&dst))
    }
}

/// Deterministic network fault injection: per-message drop and
/// duplication probabilities plus bounded delay spikes, all driven by
/// one seeded PRNG in the kernel so every faulty run is reproducible
/// per seed.
///
/// Probabilities are plain `f64`s in `[0, 1]`; the kernel converts them
/// to integer thresholds against a fixed-width PRNG draw, so equality
/// of plan + seed gives bit-identical fault sequences on every
/// platform. Node-local (self) sends are exempt: loopback does not
/// cross the lossy wire.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Probability that a message is lost on the wire.
    pub drop_prob: f64,
    /// Probability that a delivered message arrives twice.
    pub dup_prob: f64,
    /// Probability that a delivered copy suffers an extra delay spike.
    pub spike_prob: f64,
    /// Maximum extra delay of one spike (uniform in `[0, spike_max)`).
    pub spike_max: Dur,
    /// Seed for the fault PRNG (independent of the jitter PRNG).
    pub seed: u64,
    /// Scheduled node crashes/recoveries. Explicit time-keyed data, not
    /// PRNG draws: a plan whose only faults are schedules draws the
    /// identical PRNG sequence as [`FaultPlan::NONE`].
    pub crashes: Vec<CrashEvent>,
    /// Scheduled link partitions, same determinism story as `crashes`.
    pub partitions: Vec<PartitionEvent>,
}

impl FaultPlan {
    /// The reliable network: no drops, no duplicates, no spikes.
    pub const NONE: FaultPlan = FaultPlan {
        drop_prob: 0.0,
        dup_prob: 0.0,
        spike_prob: 0.0,
        spike_max: Dur::ZERO,
        seed: 1,
        crashes: Vec::new(),
        partitions: Vec::new(),
    };

    /// A lossy plan with the given drop and duplication probabilities
    /// and no delay spikes.
    pub fn lossy(drop_prob: f64, dup_prob: f64, seed: u64) -> Self {
        FaultPlan {
            drop_prob,
            dup_prob,
            spike_prob: 0.0,
            spike_max: Dur::ZERO,
            seed,
            crashes: Vec::new(),
            partitions: Vec::new(),
        }
    }

    /// Add delay spikes: with probability `prob`, a delivered copy is
    /// held back an extra uniform `[0, max)`.
    pub fn with_spikes(mut self, prob: f64, max: Dur) -> Self {
        self.spike_prob = prob;
        self.spike_max = max;
        self
    }

    /// Schedule a node crash at `at`, optionally recovering at
    /// `recover`.
    pub fn with_crash(mut self, node: u32, at: SimTime, recover: Option<SimTime>) -> Self {
        if let Some(r) = recover {
            assert!(r > at, "recovery must come after the crash");
        }
        self.crashes.push(CrashEvent { node, at, recover });
        self
    }

    /// Schedule a link partition between node groups `a` and `b` during
    /// `[from, until)`.
    pub fn with_partition(
        mut self,
        a: Vec<u32>,
        b: Vec<u32>,
        from: SimTime,
        until: SimTime,
    ) -> Self {
        assert!(until > from, "partition must have positive duration");
        assert!(
            a.iter().all(|n| !b.contains(n)),
            "partition groups must be disjoint"
        );
        self.partitions.push(PartitionEvent { a, b, from, until });
        self
    }

    /// True if any *randomized* fault (drop/dup/spike) can fire — the
    /// gate for allocating per-link fault PRNG streams. When false the
    /// kernel draws no fault randomness, so plans carrying only
    /// crash/partition schedules keep the PRNG sequence byte-identical
    /// to the no-fault code.
    pub fn randomized(&self) -> bool {
        self.drop_prob > 0.0
            || self.dup_prob > 0.0
            || (self.spike_prob > 0.0 && self.spike_max > Dur::ZERO)
    }

    /// True if any crash or partition is scheduled.
    pub fn scheduled(&self) -> bool {
        !self.crashes.is_empty() || !self.partitions.is_empty()
    }

    /// True if any fault can actually fire (randomized or scheduled).
    /// When false the kernel's delivery path is byte-identical to the
    /// no-fault code.
    pub fn enabled(&self) -> bool {
        self.randomized() || self.scheduled()
    }

    /// Convert a probability to a 53-bit integer threshold; a PRNG draw
    /// `next_u64() >> 11` is below it with probability ≈ `p`.
    pub(crate) fn threshold(p: f64) -> u64 {
        (p.clamp(0.0, 1.0) * (1u64 << 53) as f64) as u64
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::NONE
    }
}

/// Cost parameters for one simulated machine room.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Software overhead at the sender per message (marshalling, trap).
    pub send_overhead: Dur,
    /// Software overhead at the receiver per message.
    pub recv_overhead: Dur,
    /// One-way wire propagation latency.
    pub wire_latency: Dur,
    /// Transmission time per payload byte in **picoseconds** (inverse
    /// bandwidth). Picosecond granularity matters for the modern eras:
    /// 10 GbE is 800 ps/byte and an RDMA fabric 40 ps/byte. Byte costs
    /// are truncated to whole nanoseconds only after multiplying by the
    /// byte count ([`CostModel::byte_cost`]), so truncation is monotone
    /// in message size.
    pub ps_per_byte: u64,
    /// Fixed header bytes added to every message.
    pub header_bytes: usize,
    /// Local overhead of taking and servicing a page fault trap
    /// (protection change, handler dispatch) — charged by protocols.
    pub fault_overhead: Dur,
    /// Local memory copy cost per byte (twin creation, page install).
    pub mem_ns_per_byte: u64,
    /// One-way completion latency of a one-sided (RDMA-style) remote
    /// operation: doorbell ring to data landed, with no software on
    /// the target's critical path. `Dur::ZERO` means the fabric has no
    /// one-sided support ([`CostModel::supports_one_sided`]) and the
    /// kernel routes such sends through the ordinary two-sided path.
    pub one_sided_latency: Dur,
    /// Transmission time per payload byte (picoseconds) on the
    /// one-sided path.
    pub one_sided_ps_per_byte: u64,
    /// Per-operation NIC occupancy of a one-sided op, charged to the
    /// *target's NIC* (DMA engine serialization) — never to its app or
    /// protocol thread. Near-zero on real hardware.
    pub one_sided_occupancy: Dur,
    /// Maximum uniform random extra delivery delay. `Dur::ZERO`
    /// preserves per-link FIFO ordering; anything larger lets messages
    /// between the same pair of nodes reorder.
    pub jitter_max: Dur,
    /// Seed for the jitter PRNG (runs are deterministic per seed).
    pub jitter_seed: u64,
    /// Network fault injection (drops, duplicates, delay spikes).
    /// [`FaultPlan::NONE`] reproduces the reliable network exactly.
    pub faults: FaultPlan,
}

impl CostModel {
    /// A 1992-era 10 Mbit/s Ethernet LAN of workstations: ~1 ms
    /// software packet cost, 0.8 µs per byte, heavyweight fault traps.
    pub fn lan_1992() -> Self {
        CostModel {
            send_overhead: Dur::micros(400),
            recv_overhead: Dur::micros(400),
            wire_latency: Dur::micros(100),
            ps_per_byte: 800_000,
            header_bytes: 64,
            fault_overhead: Dur::micros(80),
            mem_ns_per_byte: 10,
            one_sided_latency: Dur::ZERO,
            one_sided_ps_per_byte: 0,
            one_sided_occupancy: Dur::ZERO,
            jitter_max: Dur::ZERO,
            jitter_seed: 1,
            faults: FaultPlan::NONE,
        }
    }

    /// A 1994-era 100 Mbit/s ATM LAN (the network TreadMarks moved to):
    /// ~10× the Ethernet bandwidth, lighter software overheads.
    pub fn atm_1994() -> Self {
        CostModel {
            send_overhead: Dur::micros(120),
            recv_overhead: Dur::micros(120),
            wire_latency: Dur::micros(40),
            ps_per_byte: 80_000,
            header_bytes: 64,
            fault_overhead: Dur::micros(60),
            mem_ns_per_byte: 10,
            one_sided_latency: Dur::ZERO,
            one_sided_ps_per_byte: 0,
            one_sided_occupancy: Dur::ZERO,
            jitter_max: Dur::ZERO,
            jitter_seed: 1,
            faults: FaultPlan::NONE,
        }
    }

    /// A mid-2000s 10-gigabit Ethernet cluster with kernel-bypass-free
    /// stacks: tens of µs of software per packet, 0.8 ns per byte.
    pub fn gbe_10() -> Self {
        CostModel {
            send_overhead: Dur::micros(15),
            recv_overhead: Dur::micros(15),
            wire_latency: Dur::micros(10),
            ps_per_byte: 800,
            header_bytes: 64,
            fault_overhead: Dur::micros(20),
            mem_ns_per_byte: 2,
            one_sided_latency: Dur::ZERO,
            one_sided_ps_per_byte: 0,
            one_sided_occupancy: Dur::ZERO,
            jitter_max: Dur::ZERO,
            jitter_seed: 1,
            faults: FaultPlan::NONE,
        }
    }

    /// A mid-2010s 100-gigabit Ethernet fabric with tuned userspace
    /// stacks: a few µs per message, 80 ps per byte.
    pub fn gbe_100() -> Self {
        CostModel {
            send_overhead: Dur::micros(2),
            recv_overhead: Dur::micros(2),
            wire_latency: Dur::micros(1),
            ps_per_byte: 80,
            header_bytes: 64,
            fault_overhead: Dur::micros(5),
            mem_ns_per_byte: 1,
            one_sided_latency: Dur::ZERO,
            one_sided_ps_per_byte: 0,
            one_sided_occupancy: Dur::ZERO,
            jitter_max: Dur::ZERO,
            jitter_seed: 1,
            faults: FaultPlan::NONE,
        }
    }

    /// A modern RDMA fabric (InfiniBand / RoCE class): sub-µs software
    /// send/receive, 40 ps per byte, and native one-sided operations —
    /// a remote read completes in ~1.5 µs round trip with *zero* cycles
    /// on the target's CPU, only ~100 ns of its NIC's DMA engine.
    pub fn rdma_modern() -> Self {
        CostModel {
            send_overhead: Dur::nanos(600),
            recv_overhead: Dur::nanos(600),
            wire_latency: Dur::nanos(300),
            ps_per_byte: 40,
            header_bytes: 64,
            fault_overhead: Dur::micros(1),
            mem_ns_per_byte: 1,
            one_sided_latency: Dur::nanos(750),
            one_sided_ps_per_byte: 40,
            one_sided_occupancy: Dur::nanos(100),
            jitter_max: Dur::ZERO,
            jitter_seed: 1,
            faults: FaultPlan::NONE,
        }
    }

    /// The five interconnect eras in chronological order, as accepted
    /// by [`CostModel::era`] (and the bench front-ends' `--net` flag).
    pub const ERA_NAMES: [&'static str; 5] =
        ["lan_1992", "atm_1994", "gbe_10", "gbe_100", "rdma_modern"];

    /// Look an era preset up by name (see [`CostModel::ERA_NAMES`]).
    pub fn era(name: &str) -> Option<CostModel> {
        match name {
            "lan_1992" => Some(CostModel::lan_1992()),
            "atm_1994" => Some(CostModel::atm_1994()),
            "gbe_10" => Some(CostModel::gbe_10()),
            "gbe_100" => Some(CostModel::gbe_100()),
            "rdma_modern" => Some(CostModel::rdma_modern()),
            _ => None,
        }
    }

    /// A bare model where every message costs exactly `latency` plus
    /// `ns_per_byte` per body byte and nothing else: zero software
    /// overheads, zero header, no fault trap or memcpy cost, and no
    /// one-sided support (`supports_one_sided()` is false, so all
    /// traffic takes the two-sided path). Useful in unit tests that
    /// count message hops on the critical path.
    pub fn uniform(latency: Dur, ns_per_byte: u64) -> Self {
        CostModel {
            send_overhead: Dur::ZERO,
            recv_overhead: Dur::ZERO,
            wire_latency: latency,
            ps_per_byte: ns_per_byte * 1000,
            header_bytes: 0,
            fault_overhead: Dur::ZERO,
            mem_ns_per_byte: 0,
            one_sided_latency: Dur::ZERO,
            one_sided_ps_per_byte: 0,
            one_sided_occupancy: Dur::ZERO,
            jitter_max: Dur::ZERO,
            jitter_seed: 1,
            faults: FaultPlan::NONE,
        }
    }

    /// Enable random delivery jitter up to `max` (breaks FIFO links).
    pub fn with_jitter(mut self, max: Dur, seed: u64) -> Self {
        self.jitter_max = max;
        self.jitter_seed = seed;
        self
    }

    /// Enable deterministic fault injection per `plan`.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Transmission time for `bytes` bytes on the two-sided path,
    /// truncated to whole nanoseconds *after* the multiply — monotone
    /// in `bytes`, so a header-only message never costs more than a
    /// full one (keeps [`CostModel::min_net_delay`] a lower bound).
    pub fn byte_cost(&self, bytes: u64) -> Dur {
        Dur::nanos(bytes * self.ps_per_byte / 1000)
    }

    /// Transmission time for `bytes` bytes on the one-sided path.
    pub fn one_sided_byte_cost(&self, bytes: u64) -> Dur {
        Dur::nanos(bytes * self.one_sided_ps_per_byte / 1000)
    }

    /// True if the fabric supports one-sided (RDMA-style) operations.
    /// When false, the kernel silently routes one-sided sends through
    /// the ordinary two-sided delivery path.
    pub fn supports_one_sided(&self) -> bool {
        self.one_sided_latency > Dur::ZERO
    }

    /// Deterministic part of the one-way delivery delay for a message
    /// with `body_bytes` of payload (jitter is added by the kernel).
    pub fn delivery_delay(&self, body_bytes: usize) -> Dur {
        let bytes = (body_bytes + self.header_bytes) as u64;
        self.send_overhead + self.wire_latency + self.byte_cost(bytes) + self.recv_overhead
    }

    /// Local memcpy cost for `bytes` bytes (twin/page install).
    pub fn mem_copy(&self, bytes: usize) -> Dur {
        Dur::nanos(bytes as u64 * self.mem_ns_per_byte)
    }

    /// Minimum virtual-time distance between processing any event and a
    /// message it sends being delivered anywhere: the kernel's
    /// lookahead. This is [`CostModel::delivery_delay`] of an empty
    /// body — or, on fabrics with one-sided support, its minimum with
    /// `one_sided_latency`, since a one-sided op completes after at
    /// least that long plus NIC occupancy and byte costs. Jitter, delay
    /// spikes, NIC/receive-path queueing, and the adaptive window
    /// admission floor only ever lengthen a delivery, and drops remove
    /// it, so no delivery can undercut this bound. The kernel derives
    /// its admission windows from it.
    pub fn min_net_delay(&self) -> Dur {
        let two_sided = self.send_overhead
            + self.wire_latency
            + self.recv_overhead
            + self.byte_cost(self.header_bytes as u64);
        if self.supports_one_sided() {
            two_sided.min(self.one_sided_latency)
        } else {
            two_sided
        }
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::lan_1992()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_counts_only_latency_and_bytes() {
        let m = CostModel::uniform(Dur::micros(10), 2);
        assert_eq!(m.delivery_delay(0), Dur::micros(10));
        assert_eq!(m.delivery_delay(100), Dur::micros(10) + Dur::nanos(200));
        // Everything else is zeroed — including the one-sided fields,
        // so a uniform model never takes the NIC-level delivery path.
        assert!(!m.supports_one_sided());
        assert_eq!(m.one_sided_byte_cost(4096), Dur::ZERO);
        assert_eq!(m.one_sided_occupancy, Dur::ZERO);
        assert_eq!(m.fault_overhead, Dur::ZERO);
        assert_eq!(m.mem_copy(4096), Dur::ZERO);
    }

    #[test]
    fn lan_delay_dominated_by_software_overhead_for_small_msgs() {
        let m = CostModel::lan_1992();
        let d = m.delivery_delay(8);
        // 400 + 400 + 100 us overhead plus 72 bytes * 0.8us.
        assert_eq!(d, Dur::micros(900) + Dur::nanos(72 * 800));
    }

    #[test]
    fn bigger_messages_cost_more() {
        let m = CostModel::default();
        assert!(m.delivery_delay(4096) > m.delivery_delay(16));
    }

    #[test]
    fn atm_is_roughly_10x_ethernet_bandwidth() {
        let eth = CostModel::lan_1992();
        let atm = CostModel::atm_1994();
        assert_eq!(eth.ps_per_byte / atm.ps_per_byte, 10);
        assert!(atm.delivery_delay(4096) < eth.delivery_delay(4096));
    }

    #[test]
    fn eras_are_strictly_cheaper_per_message_and_per_byte() {
        let eras: Vec<CostModel> = CostModel::ERA_NAMES
            .iter()
            .map(|n| CostModel::era(n).expect("era preset"))
            .collect();
        for pair in eras.windows(2) {
            let (old, new) = (&pair[0], &pair[1]);
            // Per message: empty-body delivery gets strictly faster.
            assert!(
                new.delivery_delay(0) < old.delivery_delay(0),
                "per-message cost must fall between consecutive eras"
            );
            // Per byte: bandwidth strictly improves.
            assert!(
                new.ps_per_byte < old.ps_per_byte,
                "per-byte cost must fall between consecutive eras"
            );
            // And full-page transfers get strictly faster too.
            assert!(new.delivery_delay(4096) < old.delivery_delay(4096));
        }
        // The lookahead bound stays positive for every era, so the
        // kernel always has a non-degenerate window.
        for m in &eras {
            assert!(m.min_net_delay() > Dur::ZERO);
        }
    }

    #[test]
    fn only_rdma_supports_one_sided_and_bounds_hold() {
        for name in CostModel::ERA_NAMES {
            let m = CostModel::era(name).unwrap();
            assert_eq!(m.supports_one_sided(), name == "rdma_modern");
        }
        let rdma = CostModel::rdma_modern();
        // One-sided remote read: doorbell + data back ≈ 1.5 µs RTT.
        let rtt = rdma.one_sided_latency * 2 + rdma.one_sided_byte_cost(4096);
        assert!(rtt >= Dur::nanos(1_500) && rtt <= Dur::micros(2));
        // min_net_delay is the one-sided latency (the cheapest way any
        // effect can cross the fabric) and still a safe lower bound.
        assert_eq!(rdma.min_net_delay(), rdma.one_sided_latency);
        assert!(rdma.min_net_delay() <= rdma.delivery_delay(0));
    }

    #[test]
    fn era_lookup_rejects_unknown_names() {
        assert!(CostModel::era("token_ring").is_none());
        assert!(CostModel::era("").is_none());
    }

    #[test]
    fn byte_cost_truncation_is_monotone() {
        // 40 ps/byte: sub-ns costs truncate, but never invert order.
        let m = CostModel::rdma_modern();
        assert_eq!(m.byte_cost(10), Dur::ZERO); // 400 ps rounds down
        assert_eq!(m.byte_cost(4096), Dur::nanos(163)); // 163.84 ns
        for b in 0..200u64 {
            assert!(m.byte_cost(b) <= m.byte_cost(b + 1));
        }
    }

    #[test]
    fn mem_copy_scales() {
        let m = CostModel::rdma_modern();
        assert_eq!(m.mem_copy(4096), Dur::nanos(4096));
    }

    #[test]
    fn fault_plan_enabled_logic() {
        assert!(!FaultPlan::NONE.enabled());
        assert!(FaultPlan::lossy(0.05, 0.0, 1).enabled());
        assert!(FaultPlan::lossy(0.0, 0.1, 1).enabled());
        // Spikes need a nonzero max to matter.
        assert!(!FaultPlan::NONE.with_spikes(0.5, Dur::ZERO).enabled());
        assert!(FaultPlan::NONE.with_spikes(0.5, Dur::micros(10)).enabled());
    }

    #[test]
    fn fault_thresholds_span_the_draw_range() {
        assert_eq!(FaultPlan::threshold(0.0), 0);
        assert_eq!(FaultPlan::threshold(1.0), 1u64 << 53);
        let half = FaultPlan::threshold(0.5);
        assert_eq!(half, 1u64 << 52);
        // Out-of-range probabilities clamp instead of wrapping.
        assert_eq!(FaultPlan::threshold(7.0), 1u64 << 53);
        assert_eq!(FaultPlan::threshold(-1.0), 0);
    }
}
