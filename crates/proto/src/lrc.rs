//! Lazy release consistency (TreadMarks).
//!
//! Nothing moves at release time. Each node's execution is divided into
//! *intervals* (closed at each release/barrier departure when the node
//! has written). Closing an interval snapshots the dirty pages' diffs
//! and records a write notice per page. On lock acquire, the granter
//! piggybacks the interval records the acquirer hasn't seen (computed
//! from the acquirer's vector clock, which rides the lock request);
//! the acquirer merely *invalidates* the noticed pages. Only when an
//! invalidated page is actually touched are its missing diffs fetched —
//! from their creators — and applied in causal order.
//!
//! ## Causal-metadata compression and interval GC
//!
//! All clocks travel as [`VClockDelta`]s against the node's barrier
//! floor ([`CausalTime`]): after every barrier the floor is shared
//! fleet-wide, so a steady-state clock costs a handful of entries
//! instead of `N × u32` — the fix for the O(N²) barrier metadata that
//! killed N=128 scaling.
//!
//! With GC enabled (the default), barriers also *retire* the epoch, in
//! the spirit of TreadMarks' garbage collection crossed with
//! home-based LRC: before arriving, each node pushes its epoch's
//! remotely-homed diffs point-to-point to their homes
//! ([`ProtoMsg::LrcFlush`], acked — homes buffer them unapplied), so
//! bulk data never transits the barrier root. The arrival then carries
//! interval records only; the root computes each page's causal write
//! order and releases, per node, the ordered interval-id lists for the
//! pages it homes plus compacted per-page invalidation notices (one
//! per written page, not one per interval). On release every node
//! applies its home pages' buffered/resident diffs in that order,
//! evicts stale copies, and drops its entire interval log and diff
//! cache — every record is dominated by the new global clock —
//! bounding resident causal metadata to one epoch and barrier messages
//! to O(records). Homes are barrier-current, so post-barrier faults
//! take the plain first-touch path. Releases reach nodes at different
//! times, so page requests are epoch-tagged: a home still waiting for
//! the release a requester has already survived parks the request and
//! serves it once its own release applies the buffered flushes (and,
//! symmetrically, next-epoch flushes buffered early survive the
//! current release's retirement).
//!
//! ## Host cost follows what moves
//!
//! None of the bookkeeping below is visible to the protocol, and each
//! step is sized by what it sends or receives, not by how long the run
//! has been going. The interval log is one contiguous run of sequence
//! numbers per creator ([`IntervalLog`]), so "what does this acquirer
//! lack" is one slice per creator, already in wire order, and a record
//! is found by indexing; clocks, interval records and diffs are
//! immutable once made and shared by reference, so a grant, a barrier
//! arrival or a diff reply costs reference counts, not copies; the
//! resident-metadata gauge is a running counter kept
//! at the sites that change the four tables it sums (the full
//! recompute survives as a debug assertion); a page's causal write
//! order is a chain-head topological selection
//! ([`Lrc::causal_order`]), O(k·p) integer compares for k intervals
//! from p writers; and a barrier root joins arrivals from their deltas
//! and hands all N releases one epoch clock and one written set (page,
//! home, sole writer), in which a node looks up only the pages it holds.
//!
//! Other deviations from TreadMarks proper, chosen for clarity and
//! noted in DESIGN.md: diffs are created eagerly at interval close
//! (TreadMarks defers even diff creation until first request); when a
//! faulting node holds no base copy of a page it fetches a full current
//! copy from the causally-latest writer (plus diffs for any concurrent
//! intervals), where TreadMarks reconstructs from base + all diffs.

use crate::api::{BatchingIo, ProtoEvent, ProtoIo, Protocol};
use crate::msg::{Piggy, ProtoMsg};
use dsm_mem::{
    Access, CausalTime, FrameTable, IntervalId, IntervalRecord, PageDiff, PageId, PageMap,
    SpaceLayout, VClock, WireIntervalRecord,
};
use dsm_net::NodeId;
use dsm_sync::{LockId, SyncEnvelope};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One in-flight local fault.
#[derive(Debug)]
struct LrcPending {
    write: bool,
    /// Reply messages still expected (diff batches + optional full page).
    awaiting: u32,
    /// Diffs collected so far, to be applied causally once complete.
    diffs: Vec<(IntervalId, Arc<PageDiff>)>,
    /// Full page image, if one was requested.
    full: Option<Box<[u8]>>,
}

/// One creator's logged records: `recs[i]` has sequence number
/// `first + i`.
struct Run {
    first: u32,
    recs: Vec<IntervalRecord>,
}

/// The interval log: every live record a node knows, one contiguous run
/// of sequence numbers per creator. A node learns a creator's records
/// in order and without gaps — a grant carries everything above the
/// acquirer's clock, a deposit everything the depositor holds, and a
/// record already held or below the floor is skipped — so "does the log
/// hold `id`", "which record is `id`" and "what comes after `seq`" are
/// a lookup and an index. The runs sit in a sparse map: a creator has
/// an entry from its first record on, and an epoch of a wide fleet
/// hears of few creators.
#[derive(Default)]
struct IntervalLog {
    runs: PageMap<u32, Run>,
}

impl IntervalLog {
    /// The record `id`, if logged.
    fn get(&self, id: IntervalId) -> Option<&IntervalRecord> {
        let run = self.runs.get(&id.node.0)?;
        run.recs.get(id.seq.checked_sub(run.first)? as usize)
    }

    /// `creator`'s records with a sequence number above `seq`,
    /// ascending.
    fn after(&self, creator: NodeId, seq: u32) -> &[IntervalRecord] {
        self.runs.get(&creator.0).map_or(&[], |run| {
            let skip = seq.saturating_add(1).saturating_sub(run.first) as usize;
            &run.recs[skip.min(run.recs.len())..]
        })
    }

    /// Log `rec`, the next record of its creator or the first.
    fn push(&mut self, rec: IntervalRecord) {
        let (creator, seq) = (rec.id.node, rec.id.seq);
        let run = self.runs.entry(creator.0).or_insert_with(|| Run {
            first: seq,
            recs: Vec::new(),
        });
        debug_assert_eq!(
            run.first as usize + run.recs.len(),
            seq as usize,
            "a gap in {creator}'s records"
        );
        run.recs.push(rec);
    }

    /// Every record in id order: creators ascending, each in sequence.
    fn values(&self) -> impl Iterator<Item = &IntervalRecord> {
        let mut creators: Vec<u32> = self.runs.keys().copied().collect();
        creators.sort_unstable();
        creators.into_iter().flat_map(|c| &self.runs[&c].recs)
    }

    fn len(&self) -> usize {
        self.runs.values().map(|run| run.recs.len()).sum()
    }

    fn clear(&mut self) {
        self.runs.clear();
    }
}

/// LRC protocol state for one node.
pub struct Lrc {
    layout: SpaceLayout,
    me: NodeId,
    nnodes: u32,
    /// This node's causal time: current clock + barrier floor. All
    /// wire encodings are produced relative to the floor.
    time: CausalTime,
    /// Twins of pages dirtied in the current (open) interval.
    twins: PageMap<usize, Box<[u8]>>,
    /// Diffs of this node's own closed intervals: (page, seq) → diff,
    /// shared with every reply and flush that carries it.
    my_diffs: PageMap<(usize, u32), Arc<PageDiff>>,
    /// Every live interval record this node knows (its own and
    /// received). With GC on, this empties at every barrier.
    log: IntervalLog,
    /// Unapplied write notices per page.
    missing: PageMap<usize, Vec<IntervalId>>,
    /// In-flight local faults by page. Several read faults coexist when
    /// the runtime batches a demand fault with prefetch candidates;
    /// serving nodes keep no per-transaction state, so no confirmation
    /// protocol is needed.
    pending: PageMap<usize, LrcPending>,
    /// Interval GC at barriers (home-flush epoch retirement).
    gc: bool,
    /// Home-side: epoch diffs flushed here by departing writers,
    /// buffered unapplied until the release delivers the causal order.
    flushed: PageMap<(IntervalId, usize), Arc<PageDiff>>,
    /// Modeled bytes held in `log`, `my_diffs` and `missing` — what a GC
    /// barrier retires wholesale — kept current at every site that
    /// changes one of them.
    resident_epoch: u64,
    /// Modeled bytes held in `flushed`, which outlives the epoch.
    resident_flushed: u64,
    /// Writer-side: epoch-flush acks outstanding before this node may
    /// arrive at the barrier.
    flush_outstanding: u32,
    /// GC epochs survived (barrier releases applied). Page requests
    /// carry it so a home whose release is still in flight can tell it
    /// must not serve pre-epoch bytes to a post-epoch requester.
    epoch: u64,
    /// Page requests from requesters one epoch ahead, parked until our
    /// own release applies the buffered flushes they depend on.
    deferred: Vec<(NodeId, usize)>,
    /// High-water mark of [`Lrc::resident_bytes`], sampled at sync
    /// points.
    peak_resident: u64,
}

impl Lrc {
    pub fn new(me: NodeId, layout: SpaceLayout) -> Self {
        Self::with_gc(me, layout, true)
    }

    pub fn with_gc(me: NodeId, layout: SpaceLayout, gc: bool) -> Self {
        let nnodes = layout.nnodes();
        Lrc {
            layout,
            me,
            nnodes,
            time: CausalTime::new(nnodes as usize),
            twins: PageMap::default(),
            my_diffs: PageMap::default(),
            log: IntervalLog::default(),
            missing: PageMap::default(),
            pending: PageMap::default(),
            gc,
            flushed: PageMap::default(),
            resident_epoch: 0,
            resident_flushed: 0,
            flush_outstanding: 0,
            epoch: 0,
            deferred: Vec::new(),
            peak_resident: 0,
        }
    }

    fn home_of(&self, page: usize) -> NodeId {
        self.layout.home_of(PageId(page))
    }

    /// Serve a full-page request with our current copy (we are the home
    /// or the latest writer; either way our bytes cover the requester's
    /// causal past).
    fn serve_page(
        &mut self,
        io: &mut dyn ProtoIo,
        mem: &mut FrameTable,
        from: NodeId,
        page: usize,
    ) {
        if mem.page_bytes(PageId(page)).is_none() {
            debug_assert_eq!(self.home_of(page), self.me);
            mem.install_zeroed(PageId(page), Access::Read);
        }
        let data = mem
            .page_bytes(PageId(page))
            .unwrap()
            .to_vec()
            .into_boxed_slice();
        io.send(from, ProtoMsg::LrcPageRep { page, data });
    }

    /// Resident causal-metadata footprint: live interval records, own
    /// retained diffs, buffered epoch flushes, and unapplied write
    /// notices (modeled bytes). A running count — sampled at every
    /// acquire, it must not cost a walk of the tables.
    fn resident_bytes(&self) -> u64 {
        let resident = self.resident_epoch + self.resident_flushed;
        debug_assert_eq!(resident, self.recount_resident_bytes());
        resident
    }

    /// What [`Lrc::resident_bytes`] counts, summed from the tables.
    fn recount_resident_bytes(&self) -> u64 {
        let recs: u64 = self.log.values().map(|r| r.wire_bytes() as u64).sum();
        let diffs: u64 = self.my_diffs.values().map(|d| own_diff_bytes(d)).sum();
        let buffered: u64 = self.flushed.values().map(|d| flushed_diff_bytes(d)).sum();
        let notices: u64 = self
            .missing
            .values()
            .map(|ids| notice_bytes(ids.len()))
            .sum();
        recs + diffs + buffered + notices
    }

    fn sample_peak(&mut self) {
        self.peak_resident = self.peak_resident.max(self.resident_bytes());
    }

    /// Has this node already applied (or retired) interval `id`?
    /// Live records are in the log; records at or below the barrier
    /// floor were retired by GC (or are provably held by everyone in
    /// the non-GC scheme) — both count as seen.
    fn seen(&self, id: IntervalId) -> bool {
        id.seq <= self.time.floor().get(id.node.index()) || self.log.get(id).is_some()
    }

    /// Close the current interval if this node has written anything.
    fn close_interval(&mut self, mem: &mut FrameTable) {
        if self.twins.is_empty() {
            return;
        }
        let seq = self.time.tick(self.me.index());
        let twins = std::mem::take(&mut self.twins);
        let mut pages = Vec::with_capacity(twins.len());
        for (page, twin) in twins {
            let cur = mem.page_bytes(PageId(page)).expect("dirty page vanished");
            let diff = PageDiff::create(&twin, cur);
            mem.set_access(PageId(page), Access::Read);
            self.resident_epoch += own_diff_bytes(&diff);
            self.my_diffs.insert((page, seq), Arc::new(diff));
            pages.push(PageId(page));
        }
        pages.sort();
        // The record shares the clock until the clock next moves.
        let rec = IntervalRecord {
            id: IntervalId::new(self.me, seq),
            vc: Arc::clone(self.time.now()),
            pages: pages.into(),
        };
        self.resident_epoch += rec.wire_bytes() as u64;
        self.log.push(rec);
    }

    /// Ingest interval records received with a grant or barrier
    /// release: log them (sharing what arrived), advance the clock, and
    /// invalidate noticed pages.
    fn ingest(&mut self, mem: &mut FrameTable, records: &[WireIntervalRecord]) {
        for wire in records {
            // Already-known (a centralized lock server deposits the
            // releaser's full set, which can come straight back) and
            // GC-retired records (a deposit granted across a barrier)
            // are both common; skip before logging or asserting.
            if self.seen(wire.id) {
                continue;
            }
            let rec = wire.expand();
            debug_assert_ne!(
                rec.id.node, self.me,
                "an unknown own record cannot exist elsewhere"
            );
            self.time.join(&rec.vc);
            for page in rec.pages.iter() {
                // The page's entry now costs one notice more (and its
                // header, if this is its first).
                let ids = self.missing.entry(page.0).or_default();
                if !ids.is_empty() {
                    self.resident_epoch -= notice_bytes(ids.len());
                }
                ids.push(rec.id);
                self.resident_epoch += notice_bytes(ids.len());
                // Invalidate any local copy; a concurrent local twin is
                // kept — the remote diffs will be folded into it at the
                // next fault.
                mem.invalidate(*page);
            }
            self.resident_epoch += rec.wire_bytes() as u64;
            self.log.push(rec);
        }
    }

    /// Records in our log the holder of `their_vt` has not seen, in id
    /// order and wire-encoded against our floor: the tail of one run
    /// per creator, written into a payload sized for them.
    fn records_missing_for(&self, their_vt: &VClock) -> Vec<WireIntervalRecord> {
        let now = self.time.now();
        // Every logged record was joined into our clock, so a creator
        // they have seen as far as we have has nothing.
        let tails = || {
            let behind = (0..self.nnodes as usize).filter(|&c| their_vt.get(c) < now.get(c));
            behind.map(|c| self.log.after(NodeId(c as u32), their_vt.get(c)))
        };
        let mut recs = Vec::with_capacity(tails().map(<[_]>::len).sum());
        let floor = self.time.floor();
        recs.extend(
            tails()
                .flatten()
                .map(|r| WireIntervalRecord::against(r, floor)),
        );
        recs
    }

    /// Wire-encode records against our barrier floor (shared with any
    /// same-epoch receiver, so steady-state clocks are tiny).
    fn compress_floor<'a>(
        &self,
        recs: impl IntoIterator<Item = &'a IntervalRecord>,
    ) -> Vec<WireIntervalRecord> {
        let floor = self.time.floor();
        recs.into_iter()
            .map(|r| WireIntervalRecord::against(r, floor))
            .collect()
    }

    /// Our whole log, wire-encoded against the zero clock — for
    /// deposits whose eventual receiver (and its floor) is unknown,
    /// keeping the modeled wire size honest.
    fn whole_log_dense(&self) -> Vec<WireIntervalRecord> {
        let zero = Arc::new(VClock::new(self.nnodes as usize));
        self.log
            .values()
            .map(|r| WireIntervalRecord::against(r, &zero))
            .collect()
    }

    /// Start fetching whatever `page` needs; returns true if nothing
    /// was needed (fault resolved synchronously).
    fn fault(
        &mut self,
        io: &mut dyn ProtoIo,
        mem: &mut FrameTable,
        page: PageId,
        write: bool,
    ) -> bool {
        let p = page.0;
        debug_assert!(
            !self.pending.contains_key(&p),
            "{} double fault on p{p}",
            self.me
        );
        let notices = self.missing.remove(&p).unwrap_or_default();
        if !notices.is_empty() {
            self.resident_epoch -= notice_bytes(notices.len());
        }
        let have_copy = mem.page_bytes(page).is_some();

        if notices.is_empty() && have_copy {
            // Pure access upgrade: readable copy or new writer.
            if write {
                self.twin(mem, p);
            } else {
                mem.set_access(page, Access::Read);
            }
            return true;
        }

        if notices.is_empty() {
            // First touch, nothing known missing: a current copy from
            // the page's home is causally sufficient. (With GC, homes
            // are barrier-current, so this also serves re-faults on
            // epoch-evicted pages.)
            let home = self.home_of(p);
            if home == self.me {
                mem.install_zeroed(page, Access::Read);
                if write {
                    self.twin(mem, p);
                }
                return true;
            }
            self.pending.insert(
                p,
                LrcPending {
                    write,
                    awaiting: 1,
                    diffs: Vec::new(),
                    full: None,
                },
            );
            io.send(
                home,
                ProtoMsg::LrcPageReq {
                    page: p,
                    epoch: self.epoch,
                },
            );
            return false;
        }

        // There are unseen writes. Decide what to fetch.
        let mut awaiting = 0u32;
        if have_copy {
            // Fetch just the missing diffs, grouped by creator.
            let mut by_creator: BTreeMap<NodeId, Vec<IntervalId>> = BTreeMap::new();
            for id in notices {
                by_creator.entry(id.node).or_default().push(id);
            }
            for (creator, ids) in by_creator {
                io.send(creator, ProtoMsg::LrcDiffReq { page: p, ids });
                awaiting += 1;
            }
        } else {
            // No base copy: full page from the causally latest writer
            // covers every interval it dominates; concurrent intervals
            // still need their diffs.
            // Pick a causally maximal notice (domination is a partial
            // order, so scan rather than sort).
            let log = &self.log;
            let vc = |id: IntervalId| &log.get(id).expect("noticed interval logged").vc;
            let mut latest = notices[0];
            for &id in &notices[1..] {
                if vc(id).dominates(vc(latest)) {
                    latest = id;
                }
            }
            let latest_vc = vc(latest);
            io.send(
                latest.node,
                ProtoMsg::LrcPageReq {
                    page: p,
                    epoch: self.epoch,
                },
            );
            awaiting += 1;
            let mut by_creator: BTreeMap<NodeId, Vec<IntervalId>> = BTreeMap::new();
            for id in notices {
                if id == latest {
                    continue;
                }
                if latest_vc.dominates(vc(id)) {
                    continue; // covered by the full copy
                }
                by_creator.entry(id.node).or_default().push(id);
            }
            for (creator, ids) in by_creator {
                io.send(creator, ProtoMsg::LrcDiffReq { page: p, ids });
                awaiting += 1;
            }
        }
        self.pending.insert(
            p,
            LrcPending {
                write,
                awaiting,
                diffs: Vec::new(),
                full: None,
            },
        );
        false
    }

    fn twin(&mut self, mem: &mut FrameTable, page: usize) {
        // Idempotent: a page already twinned in this interval keeps its
        // original twin, or the earlier local writes would vanish from
        // the eventual diff.
        self.twins.entry(page).or_insert_with(|| {
            mem.page_bytes(PageId(page))
                .expect("twin of missing page")
                .to_vec()
                .into_boxed_slice()
        });
        mem.set_access(PageId(page), Access::Write);
    }

    /// A reply arrived; if the fault on `page` is fully served,
    /// reconstruct the page and report readiness.
    fn maybe_complete(&mut self, mem: &mut FrameTable, page: usize, events: &mut Vec<ProtoEvent>) {
        let done = matches!(self.pending.get(&page), Some(p) if p.awaiting == 0);
        if !done {
            return;
        }
        let mut pend = self.pending.remove(&page).unwrap();
        let p = page;
        let page = PageId(page);
        if let Some(full) = pend.full.take() {
            mem.install(page, full, Access::Read);
        }
        // Apply collected diffs in causal order. causal_cmp is a
        // partial order, and patching incomparable pairs with an id
        // tiebreak does NOT make it total (comparability is not
        // transitive across the patched pairs), so this must be a
        // topological selection, never a comparator sort — sort_by
        // here can silently apply an older same-key diff after a
        // newer one (a lost update) or panic outright. Concurrent
        // diffs are disjoint (data-race-free program) so their mutual
        // order is irrelevant; interval id breaks ties.
        let stamped: Vec<(IntervalId, &VClock)> = pend
            .diffs
            .iter()
            .map(|(id, _)| {
                (
                    *id,
                    &*self.log.get(*id).expect("fetched interval logged").vc,
                )
            })
            .collect();
        let order = Self::causal_order(&stamped);
        {
            let bytes = mem
                .page_bytes_mut(page)
                .expect("fault completion without a frame");
            for &i in &order {
                pend.diffs[i].1.apply(bytes);
            }
        }
        // Fold remote writes into a concurrent local twin so our own
        // diff stays disjoint.
        if let Some(twin) = self.twins.get_mut(&p) {
            for &i in &order {
                pend.diffs[i].1.apply(twin);
            }
        }
        mem.set_access(page, Access::Read);
        if pend.write || self.twins.contains_key(&p) {
            // New writer, or still writing this page in the open
            // interval (twin() is idempotent).
            self.twin(mem, p);
        }
        events.push(ProtoEvent::PageReady(page));
    }

    /// Order intervals causally (minimal first), interval id breaking
    /// ties among concurrent records deterministically: repeatedly the
    /// lowest id among those no remaining interval happens before.
    /// Concurrent diffs of a data-race-free program are disjoint, so
    /// only the (total) order of comparable pairs matters. Returns
    /// positions in `stamped`, which pairs each id with its record's
    /// clock.
    ///
    /// One creator's intervals are totally ordered by sequence number,
    /// so the ids fall into one chain per creator, and only a chain's
    /// head can be minimal. A head is blocked exactly when another
    /// chain's head happens before it (any blocker deeper in that chain
    /// follows its head), so per chain a count of blocking heads,
    /// adjusted as heads advance, decides: O(k·p) happens-before tests
    /// for k ids from p creators, each a single integer compare.
    fn causal_order(stamped: &[(IntervalId, &VClock)]) -> Vec<usize> {
        let mut by_id: Vec<usize> = (0..stamped.len()).collect();
        by_id.sort_unstable_by_key(|&i| stamped[i].0);
        // One creator's ids are a contiguous stretch of `by_id`:
        // `(next, end)` positions per chain, chains in creator order.
        let mut chains: Vec<(usize, usize)> = Vec::new();
        for (pos, &i) in by_id.iter().enumerate() {
            match chains.last_mut() {
                Some((_, end)) if stamped[by_id[*end - 1]].0.node == stamped[i].0.node => {
                    *end = pos + 1
                }
                _ => chains.push((pos, pos + 1)),
            }
        }
        let head = |chain: (usize, usize)| (chain.0 < chain.1).then(|| stamped[by_id[chain.0]]);
        // For each chain, how many other chains' heads precede its own.
        let mut blockers: Vec<usize> = (0..chains.len())
            .map(|c| match head(chains[c]) {
                Some(own) => (0..chains.len())
                    .filter(|&o| o != c)
                    .filter_map(|o| head(chains[o]))
                    .filter(|&other| happens_before(other, own))
                    .count(),
                None => 0,
            })
            .collect();
        let mut out = Vec::with_capacity(by_id.len());
        while out.len() < by_id.len() {
            let (c, emitted) = (0..chains.len())
                .filter(|&c| blockers[c] == 0)
                .find_map(|c| head(chains[c]).map(|h| (c, h)))
                .expect("causal order always has a minimal element");
            out.push(by_id[chains[c].0]);
            chains[c].0 += 1;
            let next = head(chains[c]);
            let mut blocking_next = 0;
            for o in (0..chains.len()).filter(|&o| o != c) {
                let Some(other) = head(chains[o]) else {
                    continue;
                };
                // The successor blocks no head its predecessor did not.
                if happens_before(emitted, other) && !next.is_some_and(|n| happens_before(n, other))
                {
                    blockers[o] -= 1;
                }
                if next.is_some_and(|n| happens_before(other, n)) {
                    blocking_next += 1;
                }
            }
            blockers[c] = blocking_next;
        }
        out
    }
}

/// Does interval `a` happen before interval `b`, of another creator?
/// Exactly when `b`'s creator had seen `a` by the time it closed `b` —
/// one component of `b`'s clock. (A clock that has seen interval
/// `a.seq` of `a.node` has joined that interval's clock, or one that
/// dominates it, so the full vector comparison can only agree.)
fn happens_before(a: (IntervalId, &VClock), b: (IntervalId, &VClock)) -> bool {
    #[cfg(test)]
    tests::HAPPENS_BEFORE_EVALS.with(|n| n.set(n.get() + 1));
    debug_assert_ne!(a.0.node, b.0.node);
    let before = b.1.get(a.0.node.index()) >= a.0.seq;
    debug_assert_eq!(
        before,
        a.1.causal_cmp(b.1) == Some(std::cmp::Ordering::Less),
        "{:?} vs {:?}",
        a,
        b
    );
    before
}

/// Modeled resident bytes of one retained own diff.
fn own_diff_bytes(d: &PageDiff) -> u64 {
    8 + d.wire_bytes() as u64
}

/// Modeled resident bytes of one buffered epoch flush.
fn flushed_diff_bytes(d: &PageDiff) -> u64 {
    12 + d.wire_bytes() as u64
}

/// Modeled resident bytes of one page's `ids` unapplied write notices.
fn notice_bytes(ids: usize) -> u64 {
    8 + 8 * ids as u64
}

impl Protocol for Lrc {
    fn on_start(&mut self, _io: &mut dyn ProtoIo, mem: &mut FrameTable) {
        for p in self.layout.pages_of(self.me) {
            mem.install_zeroed(p, Access::Read);
        }
    }

    fn write_fault(&mut self, io: &mut dyn ProtoIo, mem: &mut FrameTable, page: PageId) -> bool {
        self.fault(io, mem, page, true)
    }

    fn read_fault_batch(
        &mut self,
        io: &mut dyn ProtoIo,
        mem: &mut FrameTable,
        pages: &[PageId],
    ) -> (bool, Vec<PageId>) {
        debug_assert!(!pages.is_empty());
        let mut bio = BatchingIo::new(io);
        let resolved = self.fault(&mut bio, mem, pages[0], false);
        let mut issued = Vec::new();
        if !resolved {
            for &pg in &pages[1..] {
                if self.pending.contains_key(&pg.0) {
                    continue;
                }
                // fault() may resolve a candidate synchronously (access
                // upgrade, home-local first touch) — then there is
                // nothing in flight and nothing to report.
                if !self.fault(&mut bio, mem, pg, false) {
                    issued.push(pg);
                }
            }
        }
        bio.flush();
        (resolved, issued)
    }

    fn on_message(
        &mut self,
        io: &mut dyn ProtoIo,
        mem: &mut FrameTable,
        from: NodeId,
        msg: ProtoMsg,
        events: &mut Vec<ProtoEvent>,
    ) {
        // A diff is kept only if it lies inside a page: one that does not
        // takes its message with it, as a datagram that fails `decode` does.
        let page_size = self.layout.geometry.page_size();
        match msg {
            ProtoMsg::LrcPageReq { page, epoch } => {
                if epoch > self.epoch {
                    // The requester already survived a barrier release
                    // that is still in flight to us: our copy may
                    // predate the epoch image (its diffs sit unapplied
                    // in `flushed`). Park the request; our release
                    // serves it. Barrier semantics bound the skew to
                    // one epoch.
                    debug_assert!(self.gc);
                    debug_assert_eq!(epoch, self.epoch + 1);
                    self.deferred.push((from, page));
                    return;
                }
                self.serve_page(io, mem, from, page);
            }
            ProtoMsg::LrcPageRep { page, data } => {
                let pend = self.pending.get_mut(&page).expect("unsolicited page");
                pend.full = Some(data);
                pend.awaiting -= 1;
                self.maybe_complete(mem, page, events);
            }
            ProtoMsg::LrcDiffReq { page, ids } => {
                let diffs = ids
                    .into_iter()
                    .map(|id| {
                        debug_assert_eq!(id.node, self.me);
                        let d = self.my_diffs.get(&(page, id.seq)).unwrap_or_else(|| {
                            panic!("{} has no diff for p{page}@{:?}", self.me, id)
                        });
                        (id, Arc::clone(d))
                    })
                    .collect();
                io.send(from, ProtoMsg::LrcDiffRep { page, diffs });
            }
            ProtoMsg::LrcDiffRep { page, diffs } => {
                if !diffs.iter().all(|(_, d)| d.fits(page_size)) {
                    return;
                }
                let pend = self.pending.get_mut(&page).expect("unsolicited diffs");
                pend.diffs.extend(diffs);
                pend.awaiting -= 1;
                self.maybe_complete(mem, page, events);
            }
            ProtoMsg::LrcFlush { diffs } => {
                // A departing writer's epoch diffs for pages homed here.
                // Buffer only — the causal application order arrives
                // with the barrier release.
                debug_assert!(self.gc);
                if !diffs.iter().all(|(.., d)| d.fits(page_size)) {
                    return; // unacked
                }
                for (id, page, d) in diffs {
                    debug_assert_eq!(self.home_of(page), self.me);
                    self.resident_flushed += flushed_diff_bytes(&d);
                    if let Some(old) = self.flushed.insert((id, page), d) {
                        self.resident_flushed -= flushed_diff_bytes(&old);
                    }
                }
                io.send(from, ProtoMsg::LrcFlushAck);
            }
            ProtoMsg::LrcFlushAck => {
                self.flush_outstanding -= 1;
                if self.flush_outstanding == 0 {
                    events.push(ProtoEvent::FlushDone);
                }
            }
            other => {
                panic!(
                    "lrc got unexpected message {}",
                    dsm_net::Payload::kind(&other)
                )
            }
        }
    }

    fn pre_release(
        &mut self,
        io: &mut dyn ProtoIo,
        mem: &mut FrameTable,
        lock: Option<LockId>,
    ) -> bool {
        self.close_interval(mem);
        if !self.gc || lock.is_some() {
            return true; // lazy: nothing travels at release time
        }
        // Barrier departure with interval GC: push the epoch's
        // remotely-homed diffs straight to their homes, point-to-point.
        // The node arrives at the barrier only once every flush is
        // acked, so by release time each home provably holds the
        // epoch's diffs for its pages — the barrier itself then carries
        // pure metadata. Locally-homed diffs never travel: their bytes
        // are already where they belong.
        let mut by_home: BTreeMap<NodeId, Vec<(IntervalId, usize, Arc<PageDiff>)>> =
            BTreeMap::new();
        for (&(page, seq), d) in &self.my_diffs {
            let home = self.home_of(page);
            if home != self.me {
                by_home.entry(home).or_default().push((
                    IntervalId::new(self.me, seq),
                    page,
                    Arc::clone(d),
                ));
            }
        }
        debug_assert_eq!(self.flush_outstanding, 0);
        for (home, mut diffs) in by_home {
            diffs.sort_by_key(|&(id, page, _)| (id.seq, page));
            io.send(home, ProtoMsg::LrcFlush { diffs });
            self.flush_outstanding += 1;
        }
        self.flush_outstanding == 0
    }

    fn acquire_reqinfo(&mut self, _mem: &mut FrameTable, _lock: LockId) -> Piggy {
        Piggy::LrcClock(self.time.encode_now())
    }

    fn grant_piggy(
        &mut self,
        _io: &mut dyn ProtoIo,
        _mem: &mut FrameTable,
        _lock: LockId,
        _to: NodeId,
        reqinfo: &Piggy,
    ) -> Piggy {
        match reqinfo {
            Piggy::LrcClock(their_vt) => {
                Piggy::LrcIntervals(self.records_missing_for(their_vt.clock()))
            }
            Piggy::None => {
                // No clock available (e.g. a centralized server grant on
                // behalf of an unknown releaser): send everything,
                // dense-encoded (no shared floor can be assumed).
                Piggy::LrcIntervals(self.whole_log_dense())
            }
            other => panic!("lrc grant with unexpected reqinfo {other:?}"),
        }
    }

    fn release_piggy(
        &mut self,
        _io: &mut dyn ProtoIo,
        _mem: &mut FrameTable,
        _lock: LockId,
    ) -> Piggy {
        // Centralized server: the next grantee is unknown, so deposit
        // the full record set — the documented cost of pairing LRC with
        // a central lock.
        Piggy::LrcIntervals(self.whole_log_dense())
    }

    fn on_acquired(
        &mut self,
        _io: &mut dyn ProtoIo,
        mem: &mut FrameTable,
        _lock: LockId,
        piggy: Piggy,
    ) {
        match piggy {
            Piggy::LrcIntervals(records) => {
                self.ingest(mem, &records);
                self.sample_peak();
            }
            Piggy::None => {}
            other => panic!("lrc acquired with unexpected piggy {other:?}"),
        }
    }

    fn sync_depart(&mut self, _io: &mut dyn ProtoIo, _mem: &mut FrameTable) -> Piggy {
        // pre_release already closed the interval. Only records authored
        // since the last barrier travel: the previous barrier proved
        // everyone holds everything older.
        self.sample_peak();
        let floor_me = self.time.floor().get(self.me.index());
        let records = self.compress_floor(self.log.after(self.me, floor_me));
        let vt = self.time.encode_now();
        // Same metadata-only arrival in both modes: with GC, the
        // epoch's diff bytes already went point-to-point to their homes
        // (acked in pre_release) and the root reconstructs their place
        // in the causal order from the records alone.
        Piggy::LrcBarrier { vt, records }
    }

    fn merge_barrier(
        &mut self,
        _io: &mut dyn ProtoIo,
        _mem: &mut FrameTable,
        arrivals: Vec<SyncEnvelope<Piggy>>,
        nnodes: u32,
    ) -> Vec<SyncEnvelope<Piggy>> {
        if !self.gc {
            // Pool every record authored this epoch (plus each node's
            // clock), then hand each node exactly what its clock says
            // it lacks, in id order.
            let mut pool: BTreeMap<IntervalId, IntervalRecord> = BTreeMap::new();
            let mut clocks: BTreeMap<NodeId, Arc<VClock>> = BTreeMap::new();
            for env in arrivals {
                match env.payload {
                    Piggy::LrcBarrier { vt, records } => {
                        clocks.insert(env.node, Arc::clone(vt.clock()));
                        for r in records {
                            pool.insert(r.id, r.expand());
                        }
                    }
                    other => panic!("lrc barrier arrival with {other:?}"),
                }
            }
            return (0..nnodes)
                .map(|i| {
                    let node = NodeId(i);
                    let vt = &clocks[&node];
                    let lacks = |r: &&IntervalRecord| {
                        r.id.node != node && r.id.seq > vt.get(r.id.node.index())
                    };
                    let recs = self.compress_floor(pool.values().filter(lacks));
                    SyncEnvelope::new(node, Piggy::LrcIntervals(recs))
                })
                .collect();
        }

        // GC: compute the new global clock, causally order every page's
        // epoch writes, and build per-node epoch-retirement payloads —
        // ordered interval-id lists for the pages a node homes (the
        // bytes are already there, flushed point-to-point before
        // arrival), compacted per-page invalidation notices for its
        // stale copies. Metadata only: O(records) bytes total.
        let mut new_vt = VClock::new(nnodes as usize);
        let mut records: Vec<IntervalRecord> = Vec::new();
        // Page → positions in `records` of the intervals that wrote it.
        let mut writers: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for env in arrivals {
            match env.payload {
                Piggy::LrcBarrier { vt, records: recs } => {
                    vt.join_into(&mut new_vt);
                    for r in recs {
                        let rec = r.expand();
                        for pg in rec.pages.iter() {
                            writers.entry(pg.0).or_default().push(records.len());
                        }
                        records.push(rec);
                    }
                }
                other => panic!("lrc gc barrier arrival with {other:?}"),
            }
        }
        // Per written page, once: its home, its sole writer if it has
        // one, and its causal write order — which goes to the home
        // alone, so the list is moved there, not copied.
        let mut homed: Vec<Vec<(usize, Vec<IntervalId>)>> = vec![Vec::new(); nnodes as usize];
        let mut written: Vec<(usize, NodeId, Option<NodeId>)> = Vec::with_capacity(writers.len());
        // Per node, how many written pages it homes or alone wrote: its current copies.
        let mut current = vec![0u32; nnodes as usize];
        for (page, recs) in writers {
            let stamped: Vec<(IntervalId, &VClock)> = recs
                .iter()
                .map(|&r| (records[r].id, &*records[r].vc))
                .collect();
            let first = stamped[0].0.node;
            let sole = stamped
                .iter()
                .all(|(id, _)| id.node == first)
                .then_some(first);
            let home = self.home_of(page);
            written.push((page, home, sole));
            current[home.index()] += 1;
            if let Some(writer) = sole.filter(|&w| w != home) {
                current[writer.index()] += 1;
            }
            // Only the home wrote it: its copy is already the epoch
            // image, nothing to do.
            if sole != Some(home) {
                let order = Self::causal_order(&stamped);
                let ids = order.into_iter().map(|i| stamped[i].0).collect();
                homed[home.index()].push((page, ids));
            }
        }
        // One epoch clock and one written set, ascending by page, for every release.
        let vt = self.time.encode(&Arc::new(new_vt));
        let written: Arc<[_]> = written.into();
        homed
            .into_iter()
            .zip(current)
            .enumerate()
            .map(|(i, (homed, current))| {
                let payload = Piggy::LrcEpoch {
                    vt: vt.clone(),
                    homed,
                    written: Arc::clone(&written),
                    stale: written.len() as u32 - current,
                };
                SyncEnvelope::new(NodeId(i as u32), payload)
            })
            .collect()
    }

    fn sync_arrive(&mut self, io: &mut dyn ProtoIo, mem: &mut FrameTable, piggy: Piggy) {
        debug_assert!(self.pending.is_empty(), "faults in flight at a barrier");
        debug_assert!(self.twins.is_empty(), "open interval at a barrier");
        match piggy {
            Piggy::LrcIntervals(records) => {
                debug_assert!(!self.gc, "gc barrier released a non-gc payload");
                self.ingest(mem, &records);
                self.sample_peak();
                // Everyone now holds everything up to the barrier.
                self.time.advance_floor();
            }
            Piggy::LrcEpoch {
                vt, homed, written, ..
            } => {
                debug_assert!(self.gc, "non-gc barrier released a gc payload");
                let new_vt = vt.clock();
                self.sample_peak();
                // Apply the epoch's writes to our home pages, in the
                // causal order the root computed. No bytes rode the
                // release: our own diffs are resident, everyone else's
                // arrived as acked point-to-point flushes before the
                // barrier could complete. Diffs carry absolute bytes,
                // so re-applying our own writes is idempotent.
                for (page, ids) in homed {
                    debug_assert_eq!(self.home_of(page), self.me);
                    if mem.page_bytes(PageId(page)).is_none() {
                        mem.install_zeroed(PageId(page), Access::Read);
                    }
                    let bytes = mem.page_bytes_mut(PageId(page)).expect("home frame exists");
                    for id in ids {
                        if id.node == self.me {
                            self.my_diffs
                                .get(&(page, id.seq))
                                .expect("own epoch diff resident")
                                .apply(bytes);
                        } else {
                            let d = self
                                .flushed
                                .remove(&(id, page))
                                .expect("epoch diff flushed before release");
                            self.resident_flushed -= flushed_diff_bytes(&d);
                            d.apply(bytes);
                        }
                    }
                    mem.set_access(PageId(page), Access::Read);
                }
                // Drop stale copies outright: the next touch refetches from the (now
                // current) home. A node holds few pages, an epoch writes many: look up the held.
                let (w, me) = (&*written, self.me);
                let find = |p: usize| w.binary_search_by_key(&p, |e| e.0).map(|i| w[i]);
                let is_stale = |p: &PageId| find(p.0).is_ok_and(|e| e.1 != me && e.2 != Some(me));
                let stale: Vec<PageId> = mem.held_pages().filter(is_stale).collect();
                for page in stale {
                    mem.evict(page);
                }
                // Retire the epoch: every record anywhere is dominated
                // by the new global clock, so the whole log, own-diff
                // cache, and notice table go. `flushed` is NOT cleared
                // wholesale: a fast neighbor may have crossed the *next*
                // barrier's pre_release before this release reached us,
                // and its next-epoch flushes must survive. Every
                // current-epoch flush was consumed above (a remote
                // flush for a page always puts that page in our `homed`
                // list), so what remains is next-epoch only.
                debug_assert!(
                    self.missing.keys().all(|&page| find(page).is_ok()),
                    "write notice for a page the epoch did not write"
                );
                debug_assert!(self
                    .flushed
                    .keys()
                    .all(|(id, _)| id.seq > new_vt.get(id.node.index())));
                debug_assert!(self.log.values().all(|r| new_vt.dominates(&r.vc)));
                self.log.clear();
                self.my_diffs.clear();
                self.missing.clear();
                self.resident_epoch = 0;
                // The root's one epoch clock becomes ours and our floor.
                self.time.install_epoch(new_vt);
                self.epoch += 1;
                // Serve page requests from nodes that outran this
                // release: our home pages now hold the epoch image.
                for (from, page) in std::mem::take(&mut self.deferred) {
                    self.serve_page(io, mem, from, page);
                }
            }
            Piggy::None => {}
            other => panic!("lrc barrier release with {other:?}"),
        }
    }

    fn gauges(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("lrc_log_records", self.log.len() as u64),
            ("lrc_resident_bytes", self.resident_bytes()),
            ("lrc_peak_resident_bytes", self.peak_resident),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fake_io::FakeIo;
    use dsm_mem::{PageGeometry, Placement};
    use dsm_net::{CostModel, XorShift64};
    use dsm_sync::SyncPiggy;
    use std::cell::Cell;
    use std::cmp::Ordering;
    use std::collections::{BTreeSet, HashMap};
    use std::ops::Bound;

    thread_local! {
        /// Calls of [`happens_before`] on this thread: pins
        /// `causal_order`'s cost without a clock.
        pub(super) static HAPPENS_BEFORE_EVALS: Cell<u64> = const { Cell::new(0) };
    }

    fn vc(counts: &[u32]) -> VClock {
        let mut v = VClock::new(counts.len());
        for (i, &c) in counts.iter().enumerate() {
            v.set(i, c);
        }
        v
    }

    /// `causal_order` over owned `(id, clock)` pairs, as ids.
    fn order(stamped: &[(IntervalId, VClock)]) -> Vec<IntervalId> {
        let refs: Vec<(IntervalId, &VClock)> = stamped.iter().map(|(id, v)| (*id, v)).collect();
        let out = Lrc::causal_order(&refs);
        out.into_iter().map(|i| stamped[i].0).collect()
    }

    /// The selection loop `causal_order` was before it worked on chain
    /// heads: rescan everything left for the first id that no other
    /// remaining id's clock strictly precedes. O(k²)–O(k³) full clock
    /// comparisons; kept as the oracle for the order.
    fn order_by_full_scan(stamped: &[(IntervalId, VClock)]) -> Vec<IntervalId> {
        let vcs: HashMap<IntervalId, &VClock> = stamped.iter().map(|(id, v)| (*id, v)).collect();
        let mut ids: Vec<IntervalId> = stamped.iter().map(|(id, _)| *id).collect();
        ids.sort_unstable();
        let mut out = Vec::with_capacity(ids.len());
        while !ids.is_empty() {
            let pos = ids
                .iter()
                .position(|&c| {
                    ids.iter().all(|&o| {
                        o == c || !matches!(vcs[&o].causal_cmp(vcs[&c]), Some(Ordering::Less))
                    })
                })
                .expect("causal order always has a minimal element");
            out.push(ids.remove(pos));
        }
        out
    }

    /// A random execution of `nodes` nodes: each step one node either
    /// closes an interval (a tick, recorded with its clock) or learns of
    /// a recorded interval (joins its clock, as `ingest` does).
    fn history(rng: &mut XorShift64, nodes: usize, steps: usize) -> Vec<(IntervalId, VClock)> {
        let mut clocks = vec![VClock::new(nodes); nodes];
        let mut recorded: Vec<(IntervalId, VClock)> = Vec::new();
        for _ in 0..steps {
            let n = rng.below(nodes as u64) as usize;
            if recorded.is_empty() || rng.below(2) == 0 {
                let seq = clocks[n].inc(n);
                recorded.push((IntervalId::new(NodeId(n as u32), seq), clocks[n].clone()));
            } else {
                let seen = rng.below(recorded.len() as u64) as usize;
                clocks[n].join(&recorded[seen].1);
            }
        }
        recorded
    }

    fn shuffle<T>(rng: &mut XorShift64, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, rng.below(i as u64 + 1) as usize);
        }
    }

    #[test]
    fn causal_order_respects_domination() {
        let a = IntervalId::new(NodeId(0), 1);
        let b = IntervalId::new(NodeId(1), 1);
        let c = IntervalId::new(NodeId(2), 1);
        let stamped = [
            (b, vc(&[1, 1, 0])), // after a
            (c, vc(&[0, 0, 1])), // concurrent with both
            (a, vc(&[1, 0, 0])),
        ];
        let out = order(&stamped);
        let pa = out.iter().position(|&x| x == a).unwrap();
        let pb = out.iter().position(|&x| x == b).unwrap();
        assert!(pa < pb, "dominated interval must apply first");
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn causal_order_chain_is_sequential() {
        let ids: Vec<IntervalId> = (0..4).map(|s| IntervalId::new(NodeId(0), s + 1)).collect();
        let mut stamped: Vec<_> = ids.iter().map(|&id| (id, vc(&[id.seq]))).collect();
        stamped.reverse();
        assert_eq!(order(&stamped), ids);
    }

    /// On real histories — any subset of the recorded intervals, in any
    /// order — the chain-head selection gives exactly the order of the
    /// full-scan loop it replaced.
    #[test]
    fn causal_order_equals_the_full_scan_on_random_histories() {
        let mut rng = XorShift64::new(0x17);
        let mut compared = 0;
        for case in 0..450 {
            let nodes = 1 + case % 9;
            let steps = 4 + rng.below(90) as usize;
            let mut picked = history(&mut rng, nodes, steps);
            // Everything, or a subset (holes in chains, missing
            // intermediaries), shuffled.
            let keep = [100, 70, 35][case % 3];
            picked.retain(|_| rng.below(100) < keep);
            shuffle(&mut rng, &mut picked);
            assert_eq!(
                order(&picked),
                order_by_full_scan(&picked),
                "case {case}: {nodes} nodes, {steps} steps"
            );
            compared += usize::from(picked.len() > 1);
        }
        assert!(compared >= 400, "only {compared} non-trivial histories");
    }

    #[test]
    fn causal_order_hand_cases() {
        assert!(order(&[]).is_empty());
        // One long chain, handed over backwards.
        let chain: Vec<_> = (1..=600)
            .rev()
            .map(|s| (IntervalId::new(NodeId(2), s), vc(&[0, 0, s])))
            .collect();
        let want: Vec<_> = (1..=600).map(|s| IntervalId::new(NodeId(2), s)).collect();
        assert_eq!(order(&chain), want);
        // A pure antichain, 512 writers with one interval each: id order.
        let unit = |n: usize| {
            let mut v = VClock::new(512);
            v.set(n, 1);
            (IntervalId::new(NodeId(n as u32), 1), v)
        };
        let mut antichain: Vec<_> = (0..512).map(unit).collect();
        shuffle(&mut XorShift64::new(5), &mut antichain);
        let want: Vec<_> = (0..512).map(|n| IntervalId::new(NodeId(n), 1)).collect();
        assert_eq!(order(&antichain), want);
        // Many writers again, but each had seen every higher-numbered
        // one: a single chain across creators, against the id order.
        let relay: Vec<_> = (0..96usize)
            .map(|n| {
                let mut v = VClock::new(96);
                (n..96).for_each(|seen| v.set(seen, 1));
                (IntervalId::new(NodeId(n as u32), 1), v)
            })
            .collect();
        let want: Vec<_> = (0..96)
            .rev()
            .map(|n| IntervalId::new(NodeId(n), 1))
            .collect();
        assert_eq!(order(&relay), want);
    }

    /// k = 4 000 ids from p = 8 writers that keep hearing of each other
    /// — the closing barrier of a long lock-only phase — are ordered in
    /// at most 4·k·p happens-before tests. (The full scan needs ~k²/2 =
    /// 8 000 000 clock comparisons even when nothing blocks.)
    #[test]
    fn causal_order_is_linear_in_ids_times_writers() {
        const WRITERS: usize = 8;
        const PER_WRITER: u32 = 500;
        let mut rng = XorShift64::new(99);
        let mut clocks = vec![VClock::new(WRITERS); WRITERS];
        let mut stamped: Vec<(IntervalId, VClock)> = Vec::new();
        while stamped.len() < WRITERS * PER_WRITER as usize {
            let n = rng.below(WRITERS as u64) as usize;
            if clocks[n].get(n) == PER_WRITER {
                continue;
            }
            if let Some(heard) = stamped.len().checked_sub(1 + rng.below(6) as usize) {
                let heard = stamped[heard].1.clone();
                clocks[n].join(&heard);
            }
            let seq = clocks[n].inc(n);
            stamped.push((IntervalId::new(NodeId(n as u32), seq), clocks[n].clone()));
        }
        shuffle(&mut rng, &mut stamped);
        let before = HAPPENS_BEFORE_EVALS.get();
        let out = order(&stamped);
        let evals = HAPPENS_BEFORE_EVALS.get() - before;
        assert_eq!(out.len(), 4_000);
        assert!(
            evals <= 4 * 4_000 * WRITERS as u64,
            "{evals} happens-before tests for 4 000 ids from 8 writers"
        );
        // And the order is a causal one: no interval before one it had
        // seen.
        let at: HashMap<IntervalId, usize> =
            out.iter().enumerate().map(|(i, id)| (*id, i)).collect();
        for (id, v) in &stamped {
            for w in (0..WRITERS).filter(|&w| w != id.node.index() && v.get(w) > 0) {
                let seen = IntervalId::new(NodeId(w as u32), v.get(w));
                assert!(at[&seen] < at[id], "{seen:?} must precede {id:?}");
            }
        }
    }

    // ---- residency accounting ----

    /// One node of a two-node fleet driven by hand.
    struct Node {
        me: NodeId,
        lrc: Lrc,
        mem: FrameTable,
        io: FakeIo,
    }

    const PAGE: usize = 64;

    impl Node {
        fn new(me: u32) -> Node {
            Node::of_fleet(me, 2, 4)
        }

        /// Node `me` of `nodes`, over `pages` pages homed cyclically.
        fn of_fleet(me: u32, nodes: u32, pages: usize) -> Node {
            let geometry = PageGeometry::new(PAGE);
            let layout = SpaceLayout::new(geometry, pages * PAGE, Placement::Cyclic, nodes);
            let mut node = Node {
                me: NodeId(me),
                lrc: Lrc::new(NodeId(me), layout),
                mem: FrameTable::new(geometry),
                io: FakeIo::new(CostModel::lan_1992()),
            };
            node.lrc.on_start(&mut node.io, &mut node.mem);
            node
        }

        /// The running count against the tables, whatever the build.
        fn resident(&self) -> u64 {
            let counted = self.lrc.resident_epoch + self.lrc.resident_flushed;
            assert_eq!(counted, self.lrc.recount_resident_bytes(), "{}", self.me);
            assert_eq!(counted, self.lrc.resident_bytes());
            counted
        }

        /// Store `byte` at the start of `page`, faulting it writable
        /// first (the peer serves whatever that takes).
        fn write(&mut self, peer: &mut Node, page: usize, byte: u8) {
            if !self
                .lrc
                .write_fault(&mut self.io, &mut self.mem, PageId(page))
            {
                exchange(self, peer);
            }
            assert_eq!(self.mem.access(PageId(page)), Access::Write);
            self.mem.page_bytes_mut(PageId(page)).unwrap()[0] = byte;
        }
    }

    /// Carry messages between the two nodes until none is in flight,
    /// holding the residency count to the tables after every delivery.
    fn exchange(a: &mut Node, b: &mut Node) {
        let mut events = Vec::new();
        loop {
            let (from_a, from_b) = (
                std::mem::take(&mut a.io.sent),
                std::mem::take(&mut b.io.sent),
            );
            if from_a.is_empty() && from_b.is_empty() {
                return;
            }
            for (dst, msg) in from_a {
                assert_eq!(dst, b.me);
                b.lrc
                    .on_message(&mut b.io, &mut b.mem, a.me, msg, &mut events);
                b.resident();
            }
            for (dst, msg) in from_b {
                assert_eq!(dst, a.me);
                a.lrc
                    .on_message(&mut a.io, &mut a.mem, b.me, msg, &mut events);
                a.resident();
            }
        }
    }

    /// Close intervals, ingest a grant, fault a noticed page, flush an
    /// epoch and retire it: after every step the running residency
    /// count equals the sum over the tables — asserted outright, so the
    /// check also runs where `debug_assert!` does not.
    #[test]
    fn resident_counter_equals_the_recount_at_every_step() {
        let (mut a, mut b) = (Node::new(0), Node::new(1));
        assert_eq!(a.resident() + b.resident(), 0);

        // b writes page 0 (homed at a) under lock 1 and releases: one
        // own diff and one log record.
        b.write(&mut a, 0, 7);
        assert!(b.lrc.pre_release(&mut b.io, &mut b.mem, Some(1)));
        let closed = b.resident();
        assert!(closed > 0);

        // a acquires from b: the record is ingested, page 0 noticed.
        let req = a.lrc.acquire_reqinfo(&mut a.mem, 1);
        let grant = b.lrc.grant_piggy(&mut b.io, &mut b.mem, 1, NodeId(0), &req);
        a.lrc.on_acquired(&mut a.io, &mut a.mem, 1, grant);
        let noticed = a.resident();
        assert_eq!(a.lrc.missing[&0].len(), 1);
        assert_eq!(b.resident(), closed, "granting retains everything");

        // A second grant of the same records changes nothing.
        let grant = b
            .lrc
            .grant_piggy(&mut b.io, &mut b.mem, 1, NodeId(0), &Piggy::None);
        a.lrc.on_acquired(&mut a.io, &mut a.mem, 1, grant);
        assert_eq!(a.resident(), noticed);

        // a touches page 0: the notice is consumed, the diff fetched.
        let (ready, _) = a.lrc.read_fault_batch(&mut a.io, &mut a.mem, &[PageId(0)]);
        assert!(!ready);
        assert_eq!(a.resident(), noticed - notice_bytes(1));
        exchange(&mut a, &mut b);
        assert_eq!(a.mem.page_bytes(PageId(0)).unwrap()[0], 7);

        // a writes page 0 and page 1 (homed at b), then both depart for
        // a barrier: each flushes its remotely homed diff to the other.
        a.write(&mut b, 0, 8);
        a.write(&mut b, 1, 9);
        assert!(!a.lrc.pre_release(&mut a.io, &mut a.mem, None));
        assert!(!b.lrc.pre_release(&mut b.io, &mut b.mem, None));
        let before = (a.resident(), b.resident());
        exchange(&mut a, &mut b);
        assert!(a.lrc.resident_flushed > 0 && b.lrc.resident_flushed > 0);
        assert!(a.resident() > before.0 && b.resident() > before.1);

        // The barrier retires the epoch on both.
        let arrivals = vec![
            SyncEnvelope::new(NodeId(0), a.lrc.sync_depart(&mut a.io, &mut a.mem)),
            SyncEnvelope::new(NodeId(1), b.lrc.sync_depart(&mut b.io, &mut b.mem)),
        ];
        let mut releases = a.lrc.merge_barrier(&mut a.io, &mut a.mem, arrivals, 2);
        let for_b = releases.pop().unwrap().payload;
        let for_a = releases.pop().unwrap().payload;
        a.lrc.sync_arrive(&mut a.io, &mut a.mem, for_a);
        b.lrc.sync_arrive(&mut b.io, &mut b.mem, for_b);
        assert_eq!(
            a.resident() + b.resident(),
            0,
            "a GC barrier retires it all"
        );
        assert!(a.lrc.peak_resident >= noticed && b.lrc.peak_resident >= closed);
        // Page 0's epoch image reached its home in causal order.
        assert_eq!(a.mem.page_bytes(PageId(0)).unwrap()[0], 8);
    }

    // ---- the release of a wide barrier ----

    /// Carry messages among any number of nodes until none is in flight.
    fn settle(fleet: &mut [Node]) {
        let mut events = Vec::new();
        loop {
            let sent: Vec<(NodeId, NodeId, ProtoMsg)> = fleet
                .iter_mut()
                .flat_map(|n| {
                    let from = n.me;
                    std::mem::take(&mut n.io.sent)
                        .into_iter()
                        .map(move |(dst, msg)| (from, dst, msg))
                })
                .collect();
            if sent.is_empty() {
                return;
            }
            for (from, dst, msg) in sent {
                let n = &mut fleet[dst.index()];
                n.lrc
                    .on_message(&mut n.io, &mut n.mem, from, msg, &mut events);
            }
        }
    }

    /// Fault `page` in at node `n` as the runtime would, for reading or
    /// — with a byte to store at offset `n`, so that concurrent writers
    /// of a page stay disjoint — for writing.
    fn touch(fleet: &mut [Node], n: usize, page: usize, store: Option<u8>) {
        let need = if store.is_some() {
            Access::Write
        } else {
            Access::Read
        };
        let node = &mut fleet[n];
        if node.mem.access(PageId(page)) < need {
            let ready = match store {
                Some(_) => node
                    .lrc
                    .write_fault(&mut node.io, &mut node.mem, PageId(page)),
                None => {
                    node.lrc
                        .read_fault_batch(&mut node.io, &mut node.mem, &[PageId(page)])
                        .0
                }
            };
            if !ready {
                settle(fleet);
            }
        }
        let node = &mut fleet[n];
        assert!(node.mem.access(PageId(page)) >= need);
        if let Some(byte) = store {
            node.mem.page_bytes_mut(PageId(page)).unwrap()[n] = byte;
        }
    }

    fn held(node: &Node) -> BTreeSet<usize> {
        node.mem.held_pages().map(|p| p.0).collect()
    }

    /// Seeded random epochs on a seven-node fleet: at every GC barrier
    /// the pages a node drops are exactly those it held that someone
    /// else wrote — not homed here, not solely its own; what the private
    /// per-node list said — the episode's releases share one written
    /// set, and their modeled sizes are those of the private lists.
    #[test]
    fn a_release_drops_the_held_pages_others_wrote_and_shares_the_written_set() {
        const NODES: usize = 7;
        const PAGES: usize = 23;
        let mut rng = XorShift64::new(0xBA221E2);
        let mut fleet: Vec<Node> = (0..NODES as u32)
            .map(|me| Node::of_fleet(me, NODES as u32, PAGES))
            .collect();
        // What every byte of every page should read after the barrier.
        let mut image = vec![0u8; PAGES * PAGE];
        // Drops seen, by whether the page had one writer or several.
        let (mut dropped_sole, mut dropped_shared, mut kept_own) = (0, 0, 0);
        for epoch in 0..60u32 {
            for n in 0..NODES {
                for _ in 0..rng.below(4) {
                    touch(&mut fleet, n, rng.below(PAGES as u64) as usize, None);
                }
                // Some epochs write little, so that sole writers occur.
                for _ in 0..rng.below(1 + u64::from(epoch % 3)) {
                    let page = rng.below(PAGES as u64) as usize;
                    let byte = rng.below(255) as u8 + 1;
                    touch(&mut fleet, n, page, Some(byte));
                    image[page * PAGE + n] = byte;
                }
            }
            for node in fleet.iter_mut() {
                node.lrc.pre_release(&mut node.io, &mut node.mem, None);
            }
            settle(&mut fleet);
            let arrivals: Vec<SyncEnvelope<Piggy>> = fleet
                .iter_mut()
                .map(|n| SyncEnvelope::new(n.me, n.lrc.sync_depart(&mut n.io, &mut n.mem)))
                .collect();

            // The epoch's writers per page, straight from the arrivals.
            let mut writers: BTreeMap<usize, BTreeSet<NodeId>> = BTreeMap::new();
            for env in &arrivals {
                let Piggy::LrcBarrier { records, .. } = &env.payload else {
                    panic!("arrival {:?}", env.payload);
                };
                for (rec, page) in records
                    .iter()
                    .flat_map(|r| r.pages.iter().map(move |p| (r, p)))
                {
                    writers.entry(page.0).or_default().insert(rec.id.node);
                }
            }
            // The list the root used to build for `node`.
            let private_list = |node: NodeId| -> BTreeSet<usize> {
                writers
                    .iter()
                    .filter(|&(&page, by)| {
                        fleet[0].lrc.home_of(page) != node && !(by.len() == 1 && by.contains(&node))
                    })
                    .map(|(&page, _)| page)
                    .collect()
            };
            let lists: Vec<BTreeSet<usize>> =
                (0..NODES as u32).map(|n| private_list(NodeId(n))).collect();

            let root = &mut fleet[0];
            let releases =
                root.lrc
                    .merge_barrier(&mut root.io, &mut root.mem, arrivals, NODES as u32);
            assert_eq!(releases.len(), NODES);
            let shared = match &releases[0].payload {
                Piggy::LrcEpoch { written, .. } => Arc::clone(written),
                other => panic!("release {other:?}"),
            };
            assert!(shared.windows(2).all(|w| w[0].0 < w[1].0), "ascending");
            assert_eq!(
                shared.iter().map(|w| w.0).collect::<Vec<_>>(),
                writers.keys().copied().collect::<Vec<_>>()
            );
            for (release, list) in releases.into_iter().zip(&lists) {
                let node = &mut fleet[release.node.index()];
                let Piggy::LrcEpoch {
                    vt,
                    homed,
                    written,
                    stale,
                } = &release.payload
                else {
                    panic!("release {:?}", release.payload);
                };
                assert!(Arc::ptr_eq(written, &shared), "one written set");
                assert_eq!(*stale as usize, list.len(), "{}", node.me);
                let with_private_list = vt.wire_bytes()
                    + homed
                        .iter()
                        .map(|(_, ids)| 8 + 8 * ids.len())
                        .sum::<usize>()
                    + 4 * list.len();
                assert_eq!(release.payload.wire_bytes(), with_private_list);

                let before = held(node);
                node.lrc
                    .sync_arrive(&mut node.io, &mut node.mem, release.payload);
                let after = held(node);
                let want: BTreeSet<usize> = before.intersection(list).copied().collect();
                let got: BTreeSet<usize> = before.difference(&after).copied().collect();
                assert_eq!(got, want, "epoch {epoch} {}", node.me);
                assert!(after.is_subset(&before));
                assert_eq!(node.resident(), 0);
                for &page in &want {
                    if writers[&page].len() == 1 {
                        dropped_sole += 1;
                    } else {
                        dropped_shared += 1;
                    }
                }
                kept_own += before
                    .iter()
                    .filter(|page| writers.get(page).is_some_and(|by| by.contains(&node.me)))
                    .filter(|page| !list.contains(page))
                    .count();
            }
            // Every home holds the epoch image of its pages.
            for (page, want) in image.chunks(PAGE).enumerate() {
                let home = &fleet[page % NODES];
                assert_eq!(home.mem.page_bytes(PageId(page)).unwrap(), want, "p{page}");
            }
        }
        assert!(
            dropped_sole > 50 && dropped_shared > 50 && kept_own > 50,
            "{dropped_sole} / {dropped_shared} / {kept_own}"
        );
    }

    // ---- the interval log ----

    /// One node of a random history: its clock and floor, its log, and
    /// the ordered map the log replaced, fed the same records.
    struct LogModel {
        vt: VClock,
        floor: VClock,
        log: IntervalLog,
        oracle: BTreeMap<IntervalId, IntervalRecord>,
    }

    impl LogModel {
        /// What `Lrc::ingest` does with records: skip those retired or
        /// held, log and join the rest.
        fn ingest(&mut self, recs: &[IntervalRecord]) -> usize {
            let mut logged = 0;
            for r in recs {
                let held = self.oracle.contains_key(&r.id);
                if r.id.seq <= self.floor.get(r.id.node.index()) || held {
                    continue;
                }
                self.vt.join(&r.vc);
                self.log.push(r.clone());
                self.oracle.insert(r.id, r.clone());
                logged += 1;
            }
            logged
        }

        /// `get`, `after` and id-order `values` against the map's `get`,
        /// `range` and `values`, at every id up to one past the last.
        fn check(&self, nodes: usize, top: u32, at: &str) {
            let ids = |recs: &mut dyn Iterator<Item = &IntervalRecord>| {
                recs.map(|r| (r.id, Arc::as_ptr(&r.vc))).collect::<Vec<_>>()
            };
            assert_eq!(
                ids(&mut self.log.values()),
                ids(&mut self.oracle.values()),
                "{at}: values"
            );
            assert_eq!(self.log.len(), self.oracle.len(), "{at}: len");
            for c in (0..nodes as u32).map(NodeId) {
                for seq in 0..=top + 1 {
                    let id = IntervalId::new(c, seq);
                    let (got, want) = (self.log.get(id), self.oracle.get(&id));
                    assert_eq!(got.map(|r| r.id), want.map(|r| r.id), "{at}: get {id:?}");
                    let last = IntervalId::new(c, u32::MAX);
                    let range = (Bound::Excluded(id), Bound::Included(last));
                    let mut want = self.oracle.range(range).map(|(_, r)| r);
                    let got = ids(&mut self.log.after(c, seq).iter());
                    assert_eq!(got, ids(&mut want), "{at}: after {id:?}");
                }
            }
        }
    }

    /// The per-creator log against an ordered map over seeded random
    /// histories: nodes close intervals, grant an acquirer what its clock
    /// lacks, deposit their whole log at a central lock server that hands
    /// it out later (stale, re-granting what the receiver holds), and
    /// meet at GC barriers that clear every log. After every step, at
    /// every node, `get`, `after` and id-order `values` equal the map's.
    #[test]
    fn the_log_equals_an_ordered_map_on_random_histories() {
        let mut rng = XorShift64::new(0x106);
        let (mut granted, mut redeposited, mut skipped, mut cleared) = (0, 0, 0, 0);
        for case in 0..120 {
            let nodes = 2 + case % 5;
            let mut fleet: Vec<LogModel> = (0..nodes)
                .map(|_| LogModel {
                    vt: VClock::new(nodes),
                    floor: VClock::new(nodes),
                    log: IntervalLog::default(),
                    oracle: BTreeMap::new(),
                })
                .collect();
            let mut deposit: Vec<IntervalRecord> = Vec::new();
            for step in 0..80 {
                let n = rng.below(nodes as u64) as usize;
                let other = (n + 1 + rng.below(nodes as u64 - 1) as usize) % nodes;
                match rng.below(100) {
                    0..=34 => {
                        let node = &mut fleet[n];
                        let seq = node.vt.inc(n);
                        let rec = IntervalRecord {
                            id: IntervalId::new(NodeId(n as u32), seq),
                            vc: Arc::new(node.vt.clone()),
                            pages: vec![PageId(seq as usize)].into(),
                        };
                        node.log.push(rec.clone());
                        node.oracle.insert(rec.id, rec);
                    }
                    35..=69 => {
                        // `other` grants `n` what `n`'s clock lacks.
                        let (their, granter) = (fleet[n].vt.clone(), &fleet[other]);
                        let recs: Vec<IntervalRecord> = (0..nodes)
                            .filter(|&c| their.get(c) < granter.vt.get(c))
                            .flat_map(|c| granter.log.after(NodeId(c as u32), their.get(c)))
                            .cloned()
                            .collect();
                        granted += fleet[n].ingest(&recs);
                    }
                    70..=79 => deposit = fleet[other].log.values().cloned().collect(),
                    80..=95 => {
                        let logged = fleet[n].ingest(&deposit);
                        redeposited += logged;
                        skipped += deposit.len() - logged;
                    }
                    _ => {
                        let mut global = VClock::new(nodes);
                        fleet.iter().for_each(|m| global.join(&m.vt));
                        for m in fleet.iter_mut() {
                            (m.vt, m.floor) = (global.clone(), global.clone());
                            m.log.clear();
                            m.oracle.clear();
                        }
                        cleared += 1;
                    }
                }
                let top = fleet
                    .iter()
                    .map(|m| m.vt.as_slice().iter().max().copied().unwrap_or(0));
                let top = top.max().unwrap_or(0);
                for (i, m) in fleet.iter().enumerate() {
                    m.check(nodes, top, &format!("case {case} step {step} node {i}"));
                }
            }
        }
        assert!(
            granted > 2_000 && redeposited > 200 && skipped > 2_000 && cleared > 200,
            "{granted} granted, {redeposited} re-deposited, {skipped} skipped, {cleared} clears"
        );
    }

    /// A record granted to two acquirers is the granter's own log entry:
    /// three logs, one clock and one page list. A diff served to two
    /// requesters, and flushed to its home, is the creator's own copy.
    #[test]
    fn grants_and_diff_replies_share_what_they_carry() {
        let mut fleet: Vec<Node> = (0..3).map(|me| Node::of_fleet(me, 3, 6)).collect();
        // Node 2 holds a copy of page 0 (homed at node 0) before node 1
        // writes it under lock 1, so both acquirers fetch the diff.
        touch(&mut fleet, 2, 0, None);
        touch(&mut fleet, 1, 0, Some(7));
        let writer = &mut fleet[1];
        assert!(writer
            .lrc
            .pre_release(&mut writer.io, &mut writer.mem, Some(1)));
        let id = IntervalId::new(NodeId(1), 1);
        for to in [0, 2] {
            let acquirer = &mut fleet[to];
            let req = acquirer.lrc.acquire_reqinfo(&mut acquirer.mem, 1);
            let writer = &mut fleet[1];
            let grant =
                writer
                    .lrc
                    .grant_piggy(&mut writer.io, &mut writer.mem, 1, NodeId(to as u32), &req);
            let acquirer = &mut fleet[to];
            acquirer
                .lrc
                .on_acquired(&mut acquirer.io, &mut acquirer.mem, 1, grant);
        }
        let own = fleet[1].lrc.log.get(id).expect("own record").clone();
        for to in [0, 2] {
            let got = fleet[to].lrc.log.get(id).expect("granted record");
            assert!(Arc::ptr_eq(&got.vc, &own.vc), "node {to}'s clock");
            assert!(Arc::ptr_eq(&got.pages, &own.pages), "node {to}'s pages");
        }

        let mut replies = Vec::new();
        for to in [0, 2] {
            let node = &mut fleet[to];
            let (ready, _) = node
                .lrc
                .read_fault_batch(&mut node.io, &mut node.mem, &[PageId(0)]);
            assert!(!ready);
            let (dst, req) = node.io.sent.pop().expect("a diff request");
            assert_eq!(dst, NodeId(1));
            let writer = &mut fleet[1];
            let mut events = Vec::new();
            writer.lrc.on_message(
                &mut writer.io,
                &mut writer.mem,
                NodeId(to as u32),
                req,
                &mut events,
            );
            let (dst, rep) = writer.io.sent.pop().expect("a diff reply");
            assert_eq!(dst, NodeId(to as u32));
            replies.push((to, rep));
        }
        let mine = Arc::clone(&fleet[1].lrc.my_diffs[&(0, 1)]);
        for (to, msg) in replies {
            let ProtoMsg::LrcDiffRep { diffs, .. } = &msg else {
                panic!("{msg:?}");
            };
            assert!(Arc::ptr_eq(&diffs[0].1, &mine), "reply to {to}");
            let node = &mut fleet[to];
            let mut events = Vec::new();
            node.lrc
                .on_message(&mut node.io, &mut node.mem, NodeId(1), msg, &mut events);
            assert_eq!(node.mem.page_bytes(PageId(0)).unwrap()[1], 7);
        }

        // Departing for a barrier flushes the same diff to its home.
        let writer = &mut fleet[1];
        assert!(!writer
            .lrc
            .pre_release(&mut writer.io, &mut writer.mem, None));
        let (home, flush) = writer.io.sent.pop().expect("a flush");
        let ProtoMsg::LrcFlush { diffs } = flush else {
            panic!("{flush:?}");
        };
        assert_eq!(home, NodeId(0));
        assert!(Arc::ptr_eq(&diffs[0].2, &mine));
    }
}
