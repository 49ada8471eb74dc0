//! Randomized tests for the memory substrate invariants that the
//! coherence protocols rely on.
//!
//! Driven by the workspace's own deterministic [`XorShift64`] with
//! fixed seeds (the external property-testing crates are unavailable
//! in the offline build), so every run exercises the same cases —
//! failures reproduce immediately.

use dsm_mem::{Access, FrameTable, GlobalAddr, NodeSet, PageDiff, PageGeometry, PageId, VClock};
use dsm_net::{NodeId, XorShift64};

const PAGE: usize = 256;
const CASES: u64 = 64;

/// A twin and a mutated copy with a controlled number of edits, so we
/// exercise both sparse and dense diffs.
fn page_pair(rng: &mut XorShift64) -> (Vec<u8>, Vec<u8>) {
    let twin: Vec<u8> = (0..PAGE).map(|_| rng.below(256) as u8).collect();
    let mut cur = twin.clone();
    for _ in 0..rng.below(40) {
        let i = rng.below(PAGE as u64) as usize;
        cur[i] = rng.below(256) as u8;
    }
    (twin, cur)
}

/// apply(create(twin, cur), twin) == cur — the fundamental diff law.
#[test]
fn diff_roundtrip() {
    let mut rng = XorShift64::new(1);
    for _ in 0..CASES {
        let (twin, cur) = page_pair(&mut rng);
        let d = PageDiff::create(&twin, &cur);
        let mut page = twin.clone();
        d.apply(&mut page);
        assert_eq!(page, cur);
    }
}

/// A diff never carries more payload than the page and is empty iff
/// the pages are equal.
#[test]
fn diff_size_bounds() {
    let mut rng = XorShift64::new(2);
    for _ in 0..CASES {
        let (twin, cur) = page_pair(&mut rng);
        let d = PageDiff::create(&twin, &cur);
        assert_eq!(d.is_empty(), twin == cur);
        assert!(d.changed_bytes() <= PAGE);
        // Wire size is bounded by data plus one header per run.
        assert!(d.wire_bytes() <= d.changed_bytes() + 4 * d.run_count());
    }
}

/// Diffs from writers touching disjoint halves of a page commute —
/// the property multiple-writer protocols depend on.
#[test]
fn disjoint_diffs_commute() {
    let mut rng = XorShift64::new(3);
    for _ in 0..CASES {
        let twin = vec![0u8; PAGE];
        let mut a = twin.clone();
        for _ in 0..1 + rng.below(19) {
            a[rng.below(PAGE as u64 / 2) as usize] = rng.below(256) as u8;
        }
        let mut b = twin.clone();
        for _ in 0..1 + rng.below(19) {
            b[(PAGE / 2) + rng.below(PAGE as u64 / 2) as usize] = rng.below(256) as u8;
        }
        let da = PageDiff::create(&twin, &a);
        let db = PageDiff::create(&twin, &b);
        assert!(!da.overlaps(&db));
        let mut ab = twin.clone();
        da.apply(&mut ab);
        db.apply(&mut ab);
        let mut ba = twin;
        db.apply(&mut ba);
        da.apply(&mut ba);
        assert_eq!(ab, ba);
    }
}

fn vclock(rng: &mut XorShift64, n: usize) -> VClock {
    let mut c = VClock::new(n);
    for i in 0..n {
        c.set(i, rng.below(8) as u32);
    }
    c
}

/// join is the least upper bound: it dominates both inputs, and any
/// clock dominating both inputs dominates the join.
#[test]
fn vclock_join_is_lub() {
    let mut rng = XorShift64::new(4);
    for _ in 0..CASES {
        let a = vclock(&mut rng, 4);
        let b = vclock(&mut rng, 4);
        let c = vclock(&mut rng, 4);
        let mut j = a.clone();
        j.join(&b);
        assert!(j.dominates(&a));
        assert!(j.dominates(&b));
        if c.dominates(&a) && c.dominates(&b) {
            assert!(c.dominates(&j));
        }
    }
}

/// Domination is a partial order: reflexive, antisymmetric, transitive.
#[test]
fn vclock_partial_order() {
    let mut rng = XorShift64::new(5);
    for _ in 0..CASES {
        let a = vclock(&mut rng, 4);
        let b = vclock(&mut rng, 4);
        let c = vclock(&mut rng, 4);
        assert!(a.dominates(&a));
        if a.dominates(&b) && b.dominates(&a) {
            assert_eq!(&a, &b);
        }
        if a.dominates(&b) && b.dominates(&c) {
            assert!(a.dominates(&c));
        }
        // concurrent is symmetric.
        assert_eq!(a.concurrent(&b), b.concurrent(&a));
    }
}

/// NodeSet behaves like a set of u32s.
#[test]
fn nodeset_matches_reference() {
    let mut rng = XorShift64::new(6);
    for _ in 0..CASES {
        let mut s = NodeSet::new();
        let mut reference = std::collections::BTreeSet::new();
        for _ in 0..rng.below(100) {
            let add = rng.below(2) == 0;
            let id = rng.below(200) as u32;
            if add {
                assert_eq!(s.insert(NodeId(id)), reference.insert(id));
            } else {
                assert_eq!(s.remove(NodeId(id)), reference.remove(&id));
            }
        }
        assert_eq!(s.len(), reference.len());
        let got: Vec<u32> = s.iter().map(|n| n.0).collect();
        let want: Vec<u32> = reference.into_iter().collect();
        assert_eq!(got, want);
    }
}

/// Writes through the frame table always read back, across page
/// boundaries, when rights permit.
#[test]
fn frame_table_write_read_roundtrip() {
    let mut rng = XorShift64::new(7);
    for _ in 0..CASES {
        let g = PageGeometry::new(PAGE);
        let mut t = FrameTable::new(g);
        for p in 0..4 {
            t.install_zeroed(PageId(p), Access::Write);
        }
        let mut shadow = vec![0u8; PAGE * 4];
        for _ in 0..1 + rng.below(29) {
            let len = 1 + rng.below(15) as usize;
            let addr = (rng.below((PAGE * 4 - 16) as u64) as usize).min(PAGE * 4 - len);
            let data: Vec<u8> = (0..len).map(|_| rng.below(256) as u8).collect();
            assert!(t.try_write(GlobalAddr(addr), &data));
            shadow[addr..addr + len].copy_from_slice(&data);
        }
        let mut out = vec![0u8; PAGE * 4];
        assert!(t.try_read(GlobalAddr(0), &mut out));
        assert_eq!(out, shadow);
    }
}

/// The bytewise scan `PageDiff::scan_runs` was before it learned to
/// cross clean stretches in chunks — kept as the oracle for where runs
/// begin and end, which gaps merge, and the modeled wire size.
fn bytewise_runs(twin: &[u8], current: &[u8]) -> (Vec<(usize, Vec<u8>)>, usize) {
    const MERGE_GAP: usize = 8;
    const RUN_HEADER_BYTES: usize = 4;
    let n = twin.len();
    let mut runs = Vec::new();
    let mut i = 0;
    let mut wire = 0;
    while i < n {
        if twin[i] == current[i] {
            i += 1;
            continue;
        }
        let start = i;
        let mut end = i;
        while i < n {
            if twin[i] != current[i] {
                i += 1;
                end = i;
                continue;
            }
            let gap_start = i;
            let mut j = i;
            while j < n && twin[j] == current[j] && j - gap_start < MERGE_GAP {
                j += 1;
            }
            if j < n && twin[j] != current[j] && j - gap_start < MERGE_GAP {
                i = j;
            } else {
                break;
            }
        }
        runs.push((start, current[start..end].to_vec()));
        wire += RUN_HEADER_BYTES + (end - start);
    }
    (runs, wire)
}

fn assert_scan_matches_bytewise(twin: &[u8], cur: &[u8], what: &str) {
    let mut runs = Vec::new();
    let wire = PageDiff::scan_runs(twin, cur, |off, bytes| runs.push((off, bytes.to_vec())));
    assert_eq!((runs, wire), bytewise_runs(twin, cur), "{what}");
}

/// The chunked scan reports exactly the runs of the bytewise scan: on
/// every page size from 1 to 4100 bytes (so every remainder modulo the
/// word and chunk widths), on all-clean and all-dirty pages, and with
/// two edits placed `MERGE_GAP` − 1, `MERGE_GAP` and `MERGE_GAP` + 1
/// clean bytes apart at every offset within a chunk, so the gap
/// straddles word and chunk edges.
#[test]
fn chunked_diff_scan_matches_the_bytewise_scan() {
    let mut rng = XorShift64::new(17);
    for size in 1..=4100usize {
        let twin: Vec<u8> = (0..size).map(|_| rng.below(256) as u8).collect();
        assert_scan_matches_bytewise(&twin, &twin, "all clean");
        let dirty: Vec<u8> = twin.iter().map(|b| !b).collect();
        assert_scan_matches_bytewise(&twin, &dirty, "all dirty");
        // Sparse to dense random edits, some clustered so gaps merge.
        let mut cur = twin.clone();
        for _ in 0..rng.below(1 + size as u64 / 16) {
            let at = rng.below(size as u64) as usize;
            let len = 1 + rng.below(12) as usize;
            for b in cur.iter_mut().skip(at).take(len) {
                *b = !*b;
            }
        }
        assert_scan_matches_bytewise(&twin, &cur, &format!("random edits, size {size}"));
    }
    let twin = vec![0x5au8; 200];
    for first in 0..64usize {
        for gap in [7usize, 8, 9] {
            for second_len in [1usize, 3] {
                let mut cur = twin.clone();
                cur[first] ^= 1;
                let second = first + 1 + gap;
                for b in &mut cur[second..second + second_len] {
                    *b ^= 0x80;
                }
                // And a far edit at the very end of the page.
                cur[199] ^= 1;
                assert_scan_matches_bytewise(&twin, &cur, &format!("edit at {first}, gap {gap}"));
            }
        }
    }
}
