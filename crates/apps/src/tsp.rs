//! Traveling-salesman branch and bound with a shared work stack and a
//! shared best bound — the migratory-data workload: the stack and bound
//! bounce between whichever nodes hold the lock.

use crate::table::{App, Words};
use crate::util::{compute_flops, u64_at};
use dsm_core::{Dsm, DsmConfig, Dur, Engine, GlobalAddr};
use dsm_sync::LockId;
use std::ops::Range;

/// TSP instance description. City distances are a deterministic
/// function of the seed, so every run and the reference agree.
#[derive(Debug, Clone, Copy)]
pub struct TspParams {
    /// Number of cities (≤ 16: paths are nibble-packed in a u64).
    pub cities: usize,
    pub seed: u64,
    /// Work-stack capacity (entries).
    pub capacity: usize,
    /// Poll interval while the stack is empty but work is in flight.
    pub poll: Dur,
}

pub const TSP_LOCK: LockId = 0;

const BEST: GlobalAddr = GlobalAddr(0); // f64 bits
const TOP: GlobalAddr = GlobalAddr(8); // stack depth
const ACTIVE: GlobalAddr = GlobalAddr(16); // expansions in flight
const STACK: GlobalAddr = GlobalAddr(24); // entries: 3 u64 each

const ENTRY_WORDS: usize = 3;

impl TspParams {
    pub fn heap_bytes(&self) -> usize {
        24 + self.capacity * ENTRY_WORDS * 8
    }

    /// Deterministic pseudo-random distance in [1, 100].
    pub fn dist(&self, a: usize, b: usize) -> f64 {
        if a == b {
            return 0.0;
        }
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let mut x = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((lo * 131 + hi * 17) as u64);
        x ^= x >> 33;
        x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        x ^= x >> 33;
        (x % 100 + 1) as f64
    }
}

#[derive(Debug, Clone, Copy)]
struct Node {
    cost: f64,
    visited: u16,
    path: u64, // nibble-packed city sequence
    depth: u8,
}

fn pack(n: &Node) -> [u64; ENTRY_WORDS] {
    [
        n.cost.to_bits(),
        (n.visited as u64) | ((n.depth as u64) << 32),
        n.path,
    ]
}

fn unpack(w: &[u64]) -> Node {
    Node {
        cost: f64::from_bits(w[0]),
        visited: (w[1] & 0xFFFF) as u16,
        depth: ((w[1] >> 32) & 0xFF) as u8,
        path: w[2],
    }
}

fn path_last(path: u64, depth: u8) -> usize {
    ((path >> ((depth - 1) * 4)) & 0xF) as usize
}

/// Run the solver; every node returns the best tour length it observed
/// at termination (all equal, and equal to the reference).
pub fn run(dsm: &Dsm<'_, impl Engine>, p: &TspParams) -> f64 {
    let me = dsm.id().0;
    if me == 0 {
        // Seed: tour starting at city 0.
        let root = Node {
            cost: 0.0,
            visited: 1,
            path: 0,
            depth: 1,
        };
        dsm.write_u64(BEST, f64::INFINITY.to_bits());
        let w = pack(&root);
        dsm.write_u64s(u64_at(STACK, 0), &w);
        dsm.write_u64(TOP, 1);
        dsm.write_u64(ACTIVE, 0);
    }
    dsm.barrier(0);

    loop {
        dsm.acquire(TSP_LOCK);
        let top = dsm.read_u64(TOP);
        if top == 0 {
            let active = dsm.read_u64(ACTIVE);
            dsm.release(TSP_LOCK);
            if active == 0 {
                break;
            }
            dsm.compute(p.poll);
            continue;
        }
        let idx = (top - 1) as usize;
        let words = dsm.read_u64s(u64_at(STACK, idx * ENTRY_WORDS), ENTRY_WORDS);
        dsm.write_u64(TOP, top - 1);
        dsm.write_u64(ACTIVE, dsm.read_u64(ACTIVE) + 1);
        let best = f64::from_bits(dsm.read_u64(BEST));
        dsm.release(TSP_LOCK);

        let node = unpack(&words);
        // Expand locally (no shared state touched).
        let mut children: Vec<Node> = Vec::new();
        let mut improved: Option<f64> = None;
        if node.cost < best {
            let last = path_last(node.path, node.depth);
            if node.depth as usize == p.cities {
                let total = node.cost + p.dist(last, 0);
                if total < best {
                    improved = Some(total);
                }
            } else {
                for city in 1..p.cities {
                    if node.visited & (1 << city) != 0 {
                        continue;
                    }
                    let cost = node.cost + p.dist(last, city);
                    if cost < best {
                        children.push(Node {
                            cost,
                            visited: node.visited | (1 << city),
                            path: node.path | ((city as u64) << (node.depth * 4)),
                            depth: node.depth + 1,
                        });
                    }
                }
                // Deterministic DFS order: worst-first push so the
                // cheapest child pops first.
                children.sort_by(|a, b| b.cost.total_cmp(&a.cost));
            }
        }
        compute_flops(dsm, (p.cities * 4) as u64);

        // Publish results under the lock.
        dsm.acquire(TSP_LOCK);
        let best_now = f64::from_bits(dsm.read_u64(BEST));
        if let Some(t) = improved {
            if t < best_now {
                dsm.write_u64(BEST, t.to_bits());
            }
        }
        let mut top = dsm.read_u64(TOP);
        for ch in &children {
            if ch.cost < f64::from_bits(dsm.read_u64(BEST)) {
                assert!((top as usize) < p.capacity, "work stack overflow");
                let w = pack(ch);
                dsm.write_u64s(u64_at(STACK, top as usize * ENTRY_WORDS), &w);
                top += 1;
            }
        }
        dsm.write_u64(TOP, top);
        dsm.write_u64(ACTIVE, dsm.read_u64(ACTIVE) - 1);
        dsm.release(TSP_LOCK);
    }

    dsm.barrier(1);
    let best = f64::from_bits(dsm.read_u64(BEST));
    dsm.barrier(2);
    best
}

/// Sequential reference: exact branch-and-bound best tour length.
pub fn reference(p: &TspParams) -> f64 {
    let mut best = f64::INFINITY;
    let mut stack = vec![Node {
        cost: 0.0,
        visited: 1,
        path: 0,
        depth: 1,
    }];
    while let Some(node) = stack.pop() {
        if node.cost >= best {
            continue;
        }
        let last = path_last(node.path, node.depth);
        if node.depth as usize == p.cities {
            let total = node.cost + p.dist(last, 0);
            if total < best {
                best = total;
            }
            continue;
        }
        let mut children = Vec::new();
        for city in 1..p.cities {
            if node.visited & (1 << city) != 0 {
                continue;
            }
            let cost = node.cost + p.dist(last, city);
            if cost < best {
                children.push(Node {
                    cost,
                    visited: node.visited | (1 << city),
                    path: node.path | ((city as u64) << (node.depth * 4)),
                    depth: node.depth + 1,
                });
            }
        }
        children.sort_by(|a, b| b.cost.total_cmp(&a.cost));
        stack.extend(children);
    }
    best
}

impl App for TspParams {
    fn name(&self) -> &'static str {
        "tsp"
    }

    /// The whole state bound to its lock, for entry consistency.
    fn machine(&mut self, cfg: DsmConfig) -> DsmConfig {
        let bytes = self.heap_bytes();
        cfg.heap_bytes(bytes).bind(TSP_LOCK, GlobalAddr(0), bytes)
    }

    fn program(&self, d: &Dsm<'_, impl Engine>) -> Words {
        vec![run(d, self).to_bits()]
    }

    fn verdict(&self, results: &[Words]) -> bool {
        let want = [reference(self).to_bits()];
        results.iter().all(|w| w[..] == want)
    }

    /// None: node 0 seeds the stack before the first barrier, while no
    /// other rank writes, and every later write is under the lock.
    fn writes(&self, _: usize, _: usize) -> Vec<Range<usize>> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: TspParams = TspParams {
        cities: 7,
        seed: 42,
        capacity: 4096,
        poll: Dur::micros(500),
    };

    #[test]
    fn reference_finds_a_finite_tour() {
        let p = SMALL;
        let b = reference(&p);
        assert!(b.is_finite() && b > 0.0);
    }

    #[test]
    fn reference_matches_brute_force_on_tiny_instance() {
        let p = TspParams { cities: 6, ..SMALL };
        // Brute force all permutations of 1..6.
        let mut cities: Vec<usize> = (1..6).collect();
        let mut best = f64::INFINITY;
        permute(&mut cities, 0, &mut |perm| {
            let mut len = 0.0;
            let mut cur = 0;
            for &c in perm {
                len += p.dist(cur, c);
                cur = c;
            }
            len += p.dist(cur, 0);
            if len < best {
                best = len;
            }
        });
        assert_eq!(reference(&p), best);
    }

    fn permute(v: &mut Vec<usize>, k: usize, f: &mut impl FnMut(&[usize])) {
        if k == v.len() {
            f(v);
            return;
        }
        for i in k..v.len() {
            v.swap(k, i);
            permute(v, k + 1, f);
            v.swap(k, i);
        }
    }

    #[test]
    fn distances_symmetric_and_deterministic() {
        let p = SMALL;
        assert_eq!(p.dist(2, 5), p.dist(5, 2));
        assert_eq!(p.dist(1, 3), p.dist(1, 3));
        assert_eq!(p.dist(4, 4), 0.0);
    }
}
