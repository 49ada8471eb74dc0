//! Shared command-line plumbing: `dsmrun` and `dsm-cluster` accept one
//! common flag vocabulary ([`CommonFlags`]), parsed here so the
//! front-ends cannot drift: the machine's shape, and the app and size
//! both look up in one table ([`dsm_apps::plan`]). The simulator's
//! fault flags are `dsmrun`'s alone (a real socket loses what it
//! loses); the `--crash` and `--partition` syntax it parses with is
//! here too.
//!
//! All fault times are *virtual* microseconds.
//!
//! - `--crash "node@t[:recover_t]"` — crash `node` at `t` µs; with the
//!   optional `:recover_t`, reboot it at `recover_t` µs (otherwise it
//!   stays dead for the rest of the run).
//! - `--partition "a,b|c,d@t1..t2"` — sever every link between the
//!   comma-separated node groups on each side of the `|` from `t1` µs
//!   (inclusive) to `t2` µs (exclusive). Partitions drop silently:
//!   they exercise the timeout-driven failure detector, not the
//!   crash notices.

use dsm_core::{CostModel, DsmConfig, Dur, FaultPlan, ProtocolKind, SimTime};

/// The flag vocabulary both front-ends share. Each binary owns its
/// specific flags (`dsmrun --lock`, `dsm-cluster --child-rank`, …) and
/// funnels everything else through [`CommonFlags::take`] and then
/// [`CommonFlags::validate`], so the machine shape, `--net` and
/// `--batch-depth` parse identically everywhere and a value the runtime
/// would panic on is a usage error.
#[derive(Debug, Clone)]
pub struct CommonFlags {
    pub nodes: u32,
    pub proto: ProtocolKind,
    pub page: usize,
    /// Interconnect era name (validated against [`CostModel::ERA_NAMES`]);
    /// `None` keeps the `DSM_NET`-or-1992-LAN default.
    pub net: Option<String>,
    pub batch_depth: usize,
    /// An app of [`dsm_apps::APPS`].
    pub app: String,
    /// The app's scale knob; 0 keeps its default.
    pub size: usize,
}

impl Default for CommonFlags {
    fn default() -> Self {
        CommonFlags {
            nodes: 4,
            proto: ProtocolKind::Lrc,
            page: 4096,
            net: None,
            batch_depth: 1,
            app: "sor".into(),
            size: 0,
        }
    }
}

impl CommonFlags {
    /// One-line usage fragment for the shared flags.
    pub const USAGE: &'static str =
        "[--app NAME] [--size S] [--nodes N] [--proto NAME] [--page B] [--net ERA] \
         [--batch-depth D]";

    /// Try to consume `flag` (pulling its value from `it` when it
    /// takes one). `Ok(true)` if it was one of the shared flags,
    /// `Ok(false)` if the caller should handle it, `Err` on a bad
    /// value.
    pub fn take<I: Iterator<Item = String>>(
        &mut self,
        flag: &str,
        it: &mut I,
    ) -> Result<bool, String> {
        let mut val = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag {
            "--nodes" => self.nodes = val()?.parse().map_err(|e| format!("--nodes: {e}"))?,
            "--proto" => {
                let v = val()?;
                self.proto = ProtocolKind::from_name(&v)
                    .ok_or_else(|| format!("unknown protocol {v} (try dsmrun --list)"))?;
            }
            "--page" => self.page = val()?.parse().map_err(|e| format!("--page: {e}"))?,
            "--net" => {
                let v = val()?;
                if CostModel::era(&v).is_none() {
                    return Err(format!(
                        "unknown era {v} (one of: {})",
                        CostModel::ERA_NAMES.join(" ")
                    ));
                }
                self.net = Some(v);
            }
            "--batch-depth" => {
                self.batch_depth = val()?.parse().map_err(|e| format!("--batch-depth: {e}"))?;
            }
            "--app" => self.app = val()?,
            "--size" => self.size = val()?.parse().map_err(|e| format!("--size: {e}"))?,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Check, once every flag is in, the values the runtime asserts on:
    /// each of these would otherwise end in a panic.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes == 0 {
            return Err("--nodes must be at least 1".into());
        }
        if !self.page.is_power_of_two() || self.page < 8 {
            return Err(format!(
                "--page {} must be a power of two, at least 8",
                self.page
            ));
        }
        Ok(())
    }

    /// The machine these flags describe: the heap is the app's to size
    /// ([`dsm_apps::plan`]), the cost model `--net`'s if given.
    pub fn config(&self) -> DsmConfig {
        let mut cfg = DsmConfig::new(self.nodes, self.proto)
            .page_size(self.page)
            .batch_depth(self.batch_depth);
        if let Some(model) = self.net.as_deref().and_then(CostModel::era) {
            cfg.model = model;
        }
        cfg
    }
}

/// A parsed `--crash` spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashSpec {
    pub node: u32,
    pub at: SimTime,
    pub recover: Option<SimTime>,
}

/// A parsed `--partition` spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionSpec {
    pub a: Vec<u32>,
    pub b: Vec<u32>,
    pub from: SimTime,
    pub until: SimTime,
}

fn us(s: &str) -> Result<SimTime, String> {
    let v: u64 = s
        .parse()
        .map_err(|_| format!("bad time {s:?} (virtual microseconds)"))?;
    Ok(SimTime(Dur::micros(v).as_nanos()))
}

fn nodes(s: &str) -> Result<Vec<u32>, String> {
    s.split(',')
        .map(|n| n.parse().map_err(|_| format!("bad node id {n:?}")))
        .collect()
}

/// Parse `node@t[:recover_t]` (times in virtual µs).
pub fn parse_crash(s: &str) -> Result<CrashSpec, String> {
    let (node, rest) = s
        .split_once('@')
        .ok_or_else(|| format!("--crash {s:?}: expected node@t_us[:recover_us]"))?;
    let node = node
        .parse()
        .map_err(|_| format!("--crash {s:?}: bad node id {node:?}"))?;
    let (at, recover) = match rest.split_once(':') {
        Some((at, r)) => (us(at)?, Some(us(r)?)),
        None => (us(rest)?, None),
    };
    if let Some(r) = recover {
        if r <= at {
            return Err(format!("--crash {s:?}: recovery must follow the crash"));
        }
    }
    Ok(CrashSpec { node, at, recover })
}

/// Parse `a,b|c,d@t1..t2` (times in virtual µs).
pub fn parse_partition(s: &str) -> Result<PartitionSpec, String> {
    let (groups, span) = s
        .split_once('@')
        .ok_or_else(|| format!("--partition {s:?}: expected a,b|c,d@t1..t2 (µs)"))?;
    let (a, b) = groups
        .split_once('|')
        .ok_or_else(|| format!("--partition {s:?}: groups must be separated by |"))?;
    let (from, until) = span
        .split_once("..")
        .ok_or_else(|| format!("--partition {s:?}: time span must be t1..t2"))?;
    let spec = PartitionSpec {
        a: nodes(a)?,
        b: nodes(b)?,
        from: us(from)?,
        until: us(until)?,
    };
    if spec.until <= spec.from {
        return Err(format!(
            "--partition {s:?}: span must have positive duration"
        ));
    }
    if spec.a.iter().any(|n| spec.b.contains(n)) {
        return Err(format!("--partition {s:?}: groups must be disjoint"));
    }
    Ok(spec)
}

/// Fold parsed specs into a fault plan.
pub fn apply(
    mut plan: FaultPlan,
    crashes: &[CrashSpec],
    partitions: &[PartitionSpec],
) -> FaultPlan {
    for c in crashes {
        plan = plan.with_crash(c.node, c.at, c.recover);
    }
    for p in partitions {
        plan = plan.with_partition(p.a.clone(), p.b.clone(), p.from, p.until);
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_spec_round_trips() {
        let c = parse_crash("3@900").unwrap();
        assert_eq!(c.node, 3);
        assert_eq!(c.at, SimTime(Dur::micros(900).as_nanos()));
        assert_eq!(c.recover, None);
        let c = parse_crash("0@100:250").unwrap();
        assert_eq!(c.recover, Some(SimTime(Dur::micros(250).as_nanos())));
        assert!(parse_crash("0@250:100").is_err());
        assert!(parse_crash("junk").is_err());
    }

    #[test]
    fn partition_spec_round_trips() {
        let p = parse_partition("0,1|2,3@100..400").unwrap();
        assert_eq!(p.a, vec![0, 1]);
        assert_eq!(p.b, vec![2, 3]);
        assert_eq!(p.from, SimTime(Dur::micros(100).as_nanos()));
        assert_eq!(p.until, SimTime(Dur::micros(400).as_nanos()));
        assert!(parse_partition("0|0@1..2").is_err());
        assert!(parse_partition("0,1@1..2").is_err());
        assert!(parse_partition("0|1@4..4").is_err());
    }

    #[test]
    fn common_flags_take_shared_vocabulary() {
        let mut f = CommonFlags::default();
        let argv = [
            "--nodes",
            "8",
            "--proto",
            "ivy-fixed",
            "--net",
            "lan_1992",
            "--batch-depth",
            "4",
            "--crash",
            "--unrelated",
        ];
        let mut it = argv.iter().map(|s| s.to_string());
        let mut unknown = Vec::new();
        while let Some(flag) = it.next() {
            if !f.take(&flag, &mut it).unwrap() {
                unknown.push(flag);
            }
        }
        assert_eq!(f.nodes, 8);
        assert_eq!(f.proto.name(), "ivy-fixed");
        assert_eq!(f.net.as_deref(), Some("lan_1992"));
        assert_eq!(f.batch_depth, 4);
        // The fault flags are `dsmrun`'s own.
        assert_eq!(unknown, vec!["--crash", "--unrelated"]);
        assert!(f
            .take("--proto", &mut ["nope".to_string()].into_iter())
            .is_err());
        assert!(f
            .take("--net", &mut ["nope".to_string()].into_iter())
            .is_err());
    }

    #[test]
    fn apply_builds_a_schedule() {
        let plan = apply(
            FaultPlan::NONE,
            &[parse_crash("1@10:20").unwrap()],
            &[parse_partition("0|1@5..9").unwrap()],
        );
        assert!(plan.enabled());
    }
}
