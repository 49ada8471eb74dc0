//! Twin/diff machinery for multiple-writer protocols (Munin,
//! TreadMarks).
//!
//! Before a node's first write to a page in an interval, the protocol
//! snapshots the page (the *twin*). At release/flush time the twin is
//! compared against the current contents and the changed byte runs are
//! encoded as a [`PageDiff`], which is what travels on the wire instead
//! of the whole page. Two nodes writing disjoint parts of a page
//! produce disjoint diffs that can be applied in any order — the cure
//! for false-sharing ping-pong.
//!
//! Most of a twinned page is usually untouched, so the scan
//! ([`PageDiff::scan_runs`]) spends its time in clean stretches. It
//! crosses those 32 bytes at a time, then a word at a time, and
//! compares byte by byte only inside a changed run and across the
//! short gap that may merge it with the next. The run boundaries are
//! those of a plain bytewise scan, which `tests/properties.rs` keeps
//! as the oracle.

use dsm_net::{Wire, WireReader};

/// One contiguous run of changed bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Run {
    offset: u32,
    bytes: Vec<u8>,
}

/// A set of changed byte runs for one page, ordered by offset.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PageDiff {
    runs: Vec<Run>,
}

/// Two adjacent runs closer than this are merged: each run costs a
/// header on the wire, so tiny gaps are cheaper to ship than to skip.
const MERGE_GAP: usize = 8;

/// Modeled wire overhead per run (offset + length fields).
const RUN_HEADER_BYTES: usize = 4;

impl PageDiff {
    /// Compare `twin` (the pristine snapshot) with `current` and encode
    /// the changed runs. Both slices must be the same length.
    pub fn create(twin: &[u8], current: &[u8]) -> PageDiff {
        let mut runs: Vec<Run> = Vec::new();
        PageDiff::scan_runs(twin, current, |offset, bytes| {
            runs.push(Run {
                offset: offset as u32,
                bytes: bytes.to_vec(),
            });
        });
        PageDiff { runs }
    }

    /// Walk the changed runs of `current` against `twin` without
    /// building a diff: `f(offset, bytes)` is called once per run with
    /// exactly the boundaries (including gap merging) that
    /// [`PageDiff::create`] would encode. Returns the modeled wire
    /// size. This is the allocation-free path for callers that apply
    /// and account for a diff in one pass (the VM engine's barrier
    /// flush).
    pub fn scan_runs(twin: &[u8], current: &[u8], mut f: impl FnMut(usize, &[u8])) -> usize {
        assert_eq!(twin.len(), current.len(), "twin/page size mismatch");
        let n = twin.len();
        let mut i = 0;
        let mut wire = 0;
        loop {
            i = first_difference(twin, current, i);
            if i == n {
                break;
            }
            let start = i;
            let mut end = i;
            while i < n {
                if twin[i] != current[i] {
                    i += 1;
                    end = i;
                    continue;
                }
                // Clean byte: absorb the gap if more changes follow
                // within MERGE_GAP (a run header costs more than tiny
                // gaps are worth).
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
            f(start, &current[start..end]);
            wire += RUN_HEADER_BYTES + (end - start);
        }
        wire
    }

    /// True when every run lies inside a page of `page_len` bytes. A
    /// diff made by [`PageDiff::create`] fits the pages it was made
    /// from; one decoded off a wire has whatever offsets and lengths
    /// the datagram said, and its receiver drops it unless it fits.
    pub fn fits(&self, page_len: usize) -> bool {
        let end = |r: &Run| (r.offset as usize).checked_add(r.bytes.len());
        self.runs
            .iter()
            .all(|r| end(r).is_some_and(|end| end <= page_len))
    }

    /// Overwrite `page` with this diff's runs, which must all lie
    /// inside it ([`PageDiff::fits`]).
    pub fn apply(&self, page: &mut [u8]) {
        for run in &self.runs {
            let off = run.offset as usize;
            page[off..off + run.bytes.len()].copy_from_slice(&run.bytes);
        }
    }

    /// True when no bytes changed.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Number of encoded runs.
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Total changed bytes carried.
    pub fn changed_bytes(&self) -> usize {
        self.runs.iter().map(|r| r.bytes.len()).sum()
    }

    /// Modeled wire size: per-run header plus data.
    pub fn wire_bytes(&self) -> usize {
        self.runs
            .iter()
            .map(|r| RUN_HEADER_BYTES + r.bytes.len())
            .sum::<usize>()
    }

    /// Do two diffs touch any common byte? Multiple-writer protocols
    /// rely on data-race-free programs, where concurrent diffs of the
    /// same page never overlap; this is the checkable version of that
    /// assumption.
    pub fn overlaps(&self, other: &PageDiff) -> bool {
        let mut a = self.runs.iter().peekable();
        let mut b = other.runs.iter().peekable();
        while let (Some(x), Some(y)) = (a.peek(), b.peek()) {
            let (xs, xe) = (x.offset as usize, x.offset as usize + x.bytes.len());
            let (ys, ye) = (y.offset as usize, y.offset as usize + y.bytes.len());
            if xs < ye && ys < xe {
                return true;
            }
            if xe <= ys {
                a.next();
            } else {
                b.next();
            }
        }
        false
    }
}

/// Index of the first byte at or after `from` where `a` and `b`
/// differ, or their length if none does. Clean stretches are crossed
/// in 32-byte chunks, then 8-byte words; only the word that holds the
/// difference is looked into.
fn first_difference(a: &[u8], b: &[u8], from: usize) -> usize {
    const CHUNK: usize = 32;
    const WORD: usize = 8;
    let n = a.len();
    let mut i = from;
    while i + CHUNK <= n {
        let (x, y): (&[u8; CHUNK], &[u8; CHUNK]) = (
            a[i..i + CHUNK].try_into().expect("chunk-sized slice"),
            b[i..i + CHUNK].try_into().expect("chunk-sized slice"),
        );
        if x != y {
            break;
        }
        i += CHUNK;
    }
    while i + WORD <= n {
        let word = |s: &[u8]| u64::from_le_bytes(s[i..i + WORD].try_into().expect("word-sized"));
        let x = word(a) ^ word(b);
        if x != 0 {
            // Little-endian load: the lowest set byte is the first
            // differing address.
            return i + x.trailing_zeros() as usize / 8;
        }
        i += WORD;
    }
    while i < n && a[i] == b[i] {
        i += 1;
    }
    i
}

impl Wire for PageDiff {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.runs.len() as u32).encode(out);
        for r in &self.runs {
            r.offset.encode(out);
            r.bytes.encode(out);
        }
    }

    fn decode(rd: &mut WireReader<'_>) -> Option<Self> {
        let n = rd.u32()? as usize;
        if n > rd.remaining() {
            return None;
        }
        let mut runs = Vec::with_capacity(n);
        for _ in 0..n {
            runs.push(Run {
                offset: rd.u32()?,
                bytes: Vec::<u8>::decode(rd)?,
            });
        }
        Some(PageDiff { runs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_pages_give_empty_diff() {
        let page = vec![7u8; 128];
        let d = PageDiff::create(&page, &page);
        assert!(d.is_empty());
        assert_eq!(d.wire_bytes(), 0);
        assert_eq!(d.changed_bytes(), 0);
    }

    #[test]
    fn roundtrip_applies_changes() {
        let twin = vec![0u8; 64];
        let mut cur = twin.clone();
        cur[3] = 1;
        cur[40..44].copy_from_slice(&[9, 9, 9, 9]);
        let d = PageDiff::create(&twin, &cur);
        let mut page = twin.clone();
        d.apply(&mut page);
        assert_eq!(page, cur);
    }

    #[test]
    fn nearby_changes_merge_into_one_run() {
        let twin = vec![0u8; 64];
        let mut cur = twin.clone();
        cur[10] = 1;
        cur[14] = 2; // gap of 3 clean bytes < MERGE_GAP
        let d = PageDiff::create(&twin, &cur);
        assert_eq!(d.run_count(), 1);
        let mut page = twin.clone();
        d.apply(&mut page);
        assert_eq!(page, cur);
    }

    #[test]
    fn distant_changes_stay_separate() {
        let twin = vec![0u8; 256];
        let mut cur = twin.clone();
        cur[0] = 1;
        cur[200] = 2;
        let d = PageDiff::create(&twin, &cur);
        assert_eq!(d.run_count(), 2);
        assert_eq!(d.changed_bytes(), 2);
        assert_eq!(d.wire_bytes(), 2 * (RUN_HEADER_BYTES + 1));
    }

    #[test]
    fn disjoint_diffs_commute() {
        let twin = vec![0u8; 128];
        let mut a = twin.clone();
        a[0..8].copy_from_slice(&[1; 8]);
        let mut b = twin.clone();
        b[64..72].copy_from_slice(&[2; 8]);
        let da = PageDiff::create(&twin, &a);
        let db = PageDiff::create(&twin, &b);
        assert!(!da.overlaps(&db));

        let mut ab = twin.clone();
        da.apply(&mut ab);
        db.apply(&mut ab);
        let mut ba = twin.clone();
        db.apply(&mut ba);
        da.apply(&mut ba);
        assert_eq!(ab, ba);
    }

    #[test]
    fn overlap_detected() {
        let twin = vec![0u8; 32];
        let mut a = twin.clone();
        a[4..10].fill(1);
        let mut b = twin.clone();
        b[8..12].fill(2);
        let da = PageDiff::create(&twin, &a);
        let db = PageDiff::create(&twin, &b);
        assert!(da.overlaps(&db));
        assert!(db.overlaps(&da));
    }

    #[test]
    fn scan_runs_matches_create() {
        // Mixed pattern: leading run, mergeable gap, separate run,
        // trailing run at the page edge.
        let twin = vec![0u8; 256];
        let mut cur = twin.clone();
        cur[0..5].fill(1);
        cur[8] = 2; // gap 3 < MERGE_GAP: merges with the first run
        cur[100..120].fill(3);
        cur[255] = 4;
        let d = PageDiff::create(&twin, &cur);
        let mut page = twin.clone();
        let wire = PageDiff::scan_runs(&twin, &cur, |off, bytes| {
            page[off..off + bytes.len()].copy_from_slice(bytes);
        });
        assert_eq!(page, cur);
        assert_eq!(wire, d.wire_bytes());
        let mut count = 0;
        PageDiff::scan_runs(&twin, &cur, |_, _| count += 1);
        assert_eq!(count, d.run_count());
    }

    #[test]
    fn a_diff_fits_a_page_that_holds_every_run() {
        let run = |offset, len| Run {
            offset,
            bytes: vec![1; len],
        };
        let diff = PageDiff {
            runs: vec![run(0, 4), run(60, 4)],
        };
        assert!(diff.fits(64) && !diff.fits(63));
        assert!(PageDiff::default().fits(0));
        for outside in [run(64, 1), run(65, 0), run(u32::MAX, 2)] {
            let runs = vec![run(0, 4), outside];
            assert!(!PageDiff { runs }.fits(64));
        }
    }

    #[test]
    fn whole_page_change() {
        let twin = vec![0u8; 64];
        let cur = vec![255u8; 64];
        let d = PageDiff::create(&twin, &cur);
        assert_eq!(d.run_count(), 1);
        assert_eq!(d.changed_bytes(), 64);
        let mut page = twin.clone();
        d.apply(&mut page);
        assert_eq!(page, cur);
    }
}
