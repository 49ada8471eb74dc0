//! What the benchmark runs and what it reports: the six workloads and
//! every metric name with its unit. `BENCHMARK.json` repeats these
//! tables (adding direction and bound); `tests/quick.rs` holds the two
//! together.

use dsm_core::ProtocolKind;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The deterministic simulator: one pinned child, fixed work.
    Sim,
    /// Two real node processes over loopback UDP, fixed window.
    Cluster,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub engine: Engine,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "sim_kv_ivy",
        engine: Engine::Sim,
    },
    Workload {
        name: "sim_kv_lrc",
        engine: Engine::Sim,
    },
    Workload {
        name: "sim_matmul_hits",
        engine: Engine::Sim,
    },
    Workload {
        name: "sim_sor_wide",
        engine: Engine::Sim,
    },
    Workload {
        name: "cluster_kv",
        engine: Engine::Cluster,
    },
    Workload {
        name: "cluster_pages",
        engine: Engine::Cluster,
    },
];

pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Process id of `rank` of `workload` in the trace file, unique over
/// a run of all six.
pub fn trace_pid(workload: &str, rank: u32) -> u32 {
    let index = WORKLOADS.iter().position(|w| w.name == workload);
    10 * index.expect("a workload of this benchmark") as u32 + rank
}

/// How two runs of the same code may differ on a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Host time, memory, or anything derived from them: differs from
    /// run to run.
    Host,
    /// Virtual time or a count made by the simulator: repeats exactly
    /// on the simulator workloads (and is 0 on the cluster ones).
    Exact,
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub kind: Kind,
}

fn m(name: &str, unit: &'static str, kind: Kind) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        kind,
    }
}

/// Metrics a user of the system sees; every workload reports each.
pub fn end_to_end() -> Vec<Metric> {
    vec![
        m("setup_s", "s", Kind::Host),
        m("ops_per_s", "1/s", Kind::Host),
        m("peak_rss_mb", "MiB", Kind::Host),
    ]
}

/// All eleven protocols, the three outside `ProtocolKind::ALL` too.
pub fn all_protocols() -> Vec<ProtocolKind> {
    let mut all = ProtocolKind::ALL.to_vec();
    all.extend([ProtocolKind::Scabd, ProtocolKind::Rdma, ProtocolKind::Obj]);
    all
}

pub fn proto_metric(kind: ProtocolKind) -> String {
    format!("proto.{}.events_per_s", kind.name())
}

/// Per-workload metrics from the untraced and traced passes. A metric
/// that does not apply to a workload reads 0 there.
pub fn per_workload() -> Vec<Metric> {
    use Kind::{Exact, Host};
    vec![
        // End-to-end in the issue, per-layer here: they apply to one
        // engine only (see README, "Demoted metrics").
        m("wall_s", "s", Host),
        m("sim_events_per_s", "1/s", Host),
        m("virt_completion_ms", "ms", Exact),
        m("read_fault_p50_us", "us", Host),
        m("read_fault_p90_us", "us", Host),
        m("write_fault_p50_us", "us", Host),
        m("write_fault_p90_us", "us", Host),
        m("op_p50_us", "us", Host),
        m("op_p90_us", "us", Host),
        m("failed_op_share", "ratio", Host),
        // `ops_per_s` in host seconds as the clock gave them, and how
        // much slower than nominal the host-speed reference ran (see
        // README, "Reference seconds").
        m("raw_ops_per_s", "1/s", Host),
        m("host_slowdown", "ratio", Host),
        // Counts from `RunResult`.
        m("net.events_per_op", "count", Exact),
        m("net.msgs_per_op", "count", Exact),
        m("net.bytes_per_op", "count", Exact),
        m("net.rendezvous_per_op", "count", Exact),
        m("net.host_ns_per_event", "ns", Host),
        // Ledger attribution of the timed section.
        m("share.net_kernel", "ratio", Host),
        m("share.net_rendezvous", "ratio", Host),
        m("share.core_hits", "ratio", Host),
        m("share.residual", "ratio", Host),
        // Traced pass, simulator: virtual-time latency per call kind.
        m("sync.acquire_virt_p50_us", "us", Exact),
        m("sync.acquire_virt_p99_us", "us", Exact),
        m("core.read_virt_p99_us", "us", Exact),
        m("core.write_virt_p99_us", "us", Exact),
        m("sync.barrier_virt_p50_us", "us", Exact),
        // Traced pass, cluster: host self time per call kind.
        m("span.acquire_s", "s", Host),
        m("span.release_s", "s", Host),
        m("span.read_s", "s", Host),
        m("span.write_s", "s", Host),
        m("span.barrier_s", "s", Host),
        m("span.app_s", "s", Host),
        m("sync.acquire_p50_us", "us", Host),
        m("sync.acquire_p90_us", "us", Host),
        m("sync.barrier_p50_us", "us", Host),
        m("core.slow_access_share", "ratio", Host),
        m("trace_overhead_share", "ratio", Host),
    ]
}

/// The ledger: one microbenchmark per row, independent of the workload.
pub fn ledger() -> Vec<Metric> {
    let h = |name: &str, unit| m(name, unit, Kind::Host);
    let mut rows = vec![
        h("net.kernel_event_ns", "ns"),
        h("net.kernel_event_n512_ns", "ns"),
        h("net.rendezvous_ns", "ns"),
        h("net.reliable_frame_ns", "ns"),
        h("net.wire_ctl_ns", "ns"),
        h("net.wire_page_ns", "ns"),
        h("net.udp_rtt_us", "us"),
        h("mem.frame_hit_ns", "ns"),
        h("mem.diff_create_ns", "ns"),
        h("mem.diff_apply_ns", "ns"),
    ];
    rows.extend(
        all_protocols()
            .into_iter()
            .map(|k| h(&proto_metric(k), "1/s")),
    );
    rows.extend([
        h("sync.lock_handoff_ns", "ns"),
        h("sync.barrier_episode_n8_ns", "ns"),
        h("sync.barrier_episode_n512_us", "us"),
        h("core.lease_hit_ns", "ns"),
        h("core.op_hit_ns", "ns"),
        h("core.row_read_ns", "ns"),
        h("core.sim_fault_us", "us"),
        h("vm.mprotect_ns", "ns"),
        h("vm.trap_roundtrip_us", "us"),
        h("vm.view_install_ns", "ns"),
        h("vm.view_snapshot_ns", "ns"),
        h("vm.engine_fault_us", "us"),
        h("obj.op_ns", "ns"),
    ]);
    rows
}

/// Every per-layer metric: per-workload rows, then the ledger.
pub fn per_layer() -> Vec<Metric> {
    let mut all = per_workload();
    all.extend(ledger());
    all
}
