//! Per-node page frames and access rights: the simulated MMU.
//!
//! Each simulated node holds local copies of the pages it has faulted
//! in, each tagged with the access it is allowed ([`Access`]). The
//! protocol layer manipulates rights; reads and writes that exceed the
//! current right are the *faults* that drive the coherence protocol.
//!
//! A cluster node's table is *backed* ([`FrameTable::back`]): its page
//! bytes live in a [`PageStore`], the one memory the program also maps,
//! and every access change sets the program's protection at once.

use std::sync::Arc;
use std::{ptr, slice};

use crate::addr::{GlobalAddr, PageGeometry, PageId};
use crate::PageMap;

/// Access right a node holds on a local page copy. Mirrors MMU
/// protection bits: `Write` implies `Read`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Access {
    None,
    Read,
    Write,
}

impl Access {
    #[inline]
    pub fn allows_read(self) -> bool {
        self >= Access::Read
    }
    #[inline]
    pub fn allows_write(self) -> bool {
        self == Access::Write
    }
}

/// One memory for a node's pages, seen twice: by the program through a
/// view under per-page protection, and by the frame table through an
/// alias it may always read and write (cluster mode's
/// `dsm_vm::ClusterView`).
///
/// # Safety
///
/// `page_ptr(p)` points at one page of bytes, readable and writable for
/// the store's life and disjoint from every other page's. Besides the
/// table, only the program writes them, and only while `level(p)` is
/// `Write`.
pub unsafe trait PageStore: Send + Sync {
    /// Start of `page` in the alias.
    fn page_ptr(&self, page: PageId) -> *mut u8;
    /// The program's right on `page`.
    fn level(&self, page: PageId) -> Access;
    /// Give the program `access` to `page`.
    fn protect(&self, page: PageId, access: Access);
}

/// One local page copy; a backed table keeps its bytes in the store.
struct Frame {
    data: Box<[u8]>,
    access: Access,
}

/// A node's local memory: page frames indexed by global page id, plus
/// the geometry used to translate addresses.
pub struct FrameTable {
    geometry: PageGeometry,
    frames: PageMap<usize, Frame>,
    /// Where the page bytes live instead of the frames; `None` unless
    /// [`FrameTable::back`] attached one.
    store: Option<Arc<dyn PageStore>>,
}

impl FrameTable {
    pub fn new(geometry: PageGeometry) -> Self {
        FrameTable {
            geometry,
            frames: PageMap::default(),
            store: None,
        }
    }

    /// Keep every page's bytes in `store` from now on, and give its view
    /// each frame's access as it changes. The one rule: before the table
    /// hands out, overwrites or evicts a page the view can write, it
    /// write-protects the view, so no store lands behind the copy.
    pub fn back(&mut self, store: Arc<dyn PageStore>) {
        assert!(self.frames.is_empty(), "backed after installs");
        self.store = Some(store);
    }

    /// Stop the program's stores to `page` before the table copies it:
    /// a view it can write drops to `to`.
    fn stop_stores(&self, page: PageId, to: Access) {
        if let Some(store) = &self.store {
            if store.level(page) == Access::Write {
                store.protect(page, to);
            }
        }
    }

    fn protect(&self, page: PageId, access: Access) {
        if let Some(store) = &self.store {
            store.protect(page, access);
        }
    }

    /// Where `page`'s bytes live, if the table is backed.
    fn stored(&self, page: PageId) -> Option<*mut u8> {
        self.store.as_ref().map(|store| store.page_ptr(page))
    }

    pub fn geometry(&self) -> PageGeometry {
        self.geometry
    }

    /// Whether a frame of `page` exists, whatever its right: a presence
    /// test, which copies nothing and lowers no view.
    pub fn holds(&self, page: PageId) -> bool {
        self.frames.contains_key(&page.0)
    }

    /// Current right on `page` (`None` access if no frame exists).
    pub fn access(&self, page: PageId) -> Access {
        self.frames.get(&page.0).map_or(Access::None, |f| f.access)
    }

    /// Install `data` as the local copy of `page` with `access`.
    /// Replaces any existing frame.
    pub fn install(&mut self, page: PageId, data: Box<[u8]>, access: Access) {
        assert_eq!(data.len(), self.geometry.page_size(), "wrong page size");
        self.stop_stores(page, Access::Read);
        let data = match self.stored(page) {
            None => data,
            Some(at) => {
                // SAFETY: the store's contract; the view cannot write now.
                unsafe { ptr::copy_nonoverlapping(data.as_ptr(), at, data.len()) };
                Box::default()
            }
        };
        self.frames.insert(page.0, Frame { data, access });
        self.protect(page, access);
    }

    /// Install a zero-filled copy (initial page creation at its owner).
    pub fn install_zeroed(&mut self, page: PageId, access: Access) {
        let data = vec![0u8; self.geometry.page_size()].into_boxed_slice();
        self.install(page, data, access);
    }

    /// Change the right on an existing frame. Panics if absent.
    pub fn set_access(&mut self, page: PageId, access: Access) {
        self.frames
            .get_mut(&page.0)
            .unwrap_or_else(|| panic!("set_access on missing frame {page}"))
            .access = access;
        self.protect(page, access);
    }

    /// Downgrade to `None` but keep the (now stale) data, mirroring an
    /// MMU invalidation that leaves the frame mapped unreadable. A view
    /// a hand-out already revoked is left as it is.
    pub fn invalidate(&mut self, page: PageId) {
        if let Some(f) = self.frames.get_mut(&page.0) {
            f.access = Access::None;
            if self
                .store
                .as_ref()
                .is_some_and(|s| s.level(page) != Access::None)
            {
                self.protect(page, Access::None);
            }
        }
    }

    /// Drop the frame entirely (migration protocols).
    pub fn evict(&mut self, page: PageId) -> Option<Box<[u8]>> {
        let frame = self.frames.remove(&page.0)?;
        let Some(at) = self.stored(page) else {
            return Some(frame.data);
        };
        self.protect(page, Access::None);
        // SAFETY: the store's contract; the view cannot write now.
        Some(unsafe { slice::from_raw_parts(at, self.geometry.page_size()) }.into())
    }

    /// Raw bytes of the local copy, regardless of rights (protocol use:
    /// sending page contents, diffing). `None` if no frame.
    pub fn page_bytes(&self, page: PageId) -> Option<&[u8]> {
        self.stop_stores(page, Access::Read);
        self.bytes(page)
    }

    /// A copy of `page`'s bytes for a hand-out that ends this node's
    /// copy ([`FrameTable::invalidate`] follows). A view the program can
    /// write drops straight to `None`, where the invalidation leaves it:
    /// one protection change stops its stores. A readable view stays
    /// readable until the invalidation, which may follow the answer:
    /// meanwhile the program can only read. Panics if absent.
    pub fn hand_out(&self, page: PageId) -> Box<[u8]> {
        self.stop_stores(page, Access::None);
        self.bytes(page)
            .expect("only a held page is handed out")
            .into()
    }

    /// Mutable raw bytes (protocol use: applying diffs/updates even to
    /// read-protected copies). `None` if no frame.
    pub fn page_bytes_mut(&mut self, page: PageId) -> Option<&mut [u8]> {
        self.stop_stores(page, Access::Read);
        self.bytes_mut(page)
    }

    /// `page`'s bytes, wherever they live.
    fn bytes(&self, page: PageId) -> Option<&[u8]> {
        Some(self.frame_bytes(page, self.frames.get(&page.0)?))
    }

    /// The bytes of `frame`, the frame of `page`.
    fn frame_bytes<'t>(&'t self, page: PageId, frame: &'t Frame) -> &'t [u8] {
        match self.stored(page) {
            None => &frame.data,
            // SAFETY: the store's contract; nothing writes while this
            // borrow lives: `page_bytes` and `hand_out` stopped the
            // program's stores, and `read_slices` runs for the op its
            // program is parked in.
            Some(at) => unsafe { slice::from_raw_parts(at, self.geometry.page_size()) },
        }
    }

    fn bytes_mut(&mut self, page: PageId) -> Option<&mut [u8]> {
        let (at, ps) = (self.stored(page), self.geometry.page_size());
        let frame = self.frames.get_mut(&page.0)?;
        Some(match at {
            None => &mut frame.data,
            // SAFETY: as for `bytes`, with `page_bytes_mut` and
            // `try_write`; the table's exclusive borrow is its only way
            // to these bytes.
            Some(at) => unsafe { slice::from_raw_parts_mut(at, ps) },
        })
    }

    /// The bytes of `[addr, addr + len)` as the application reads
    /// them: one slice per touched page, in order, each `None` (a read
    /// fault) if its page lacks read rights. One map lookup per page.
    pub fn read_slices(
        &self,
        addr: GlobalAddr,
        len: usize,
    ) -> impl Iterator<Item = Option<&[u8]>> + '_ {
        let g = self.geometry;
        let mut pos = 0;
        std::iter::from_fn(move || {
            if pos >= len {
                return None;
            }
            let a = addr.offset(pos);
            let (page, off) = (g.page_of(a), g.offset_in_page(a));
            let n = (g.page_size() - off).min(len - pos);
            pos += n;
            let frame = self.frames.get(&page.0).filter(|f| f.access.allows_read());
            Some(frame.map(|f| &self.frame_bytes(page, f)[off..off + n]))
        })
    }

    /// Application read of `buf.len()` bytes at `addr`. Returns false
    /// (a read fault) if any touched page lacks read rights; `buf` may
    /// then hold the pages before it.
    pub fn try_read(&self, addr: GlobalAddr, buf: &mut [u8]) -> bool {
        let mut pos = 0;
        for bytes in self.read_slices(addr, buf.len()) {
            let Some(bytes) = bytes else {
                return false;
            };
            buf[pos..pos + bytes.len()].copy_from_slice(bytes);
            pos += bytes.len();
        }
        true
    }

    /// Application write of `data` at `addr`. Returns false (a write
    /// fault) if any touched page lacks write rights.
    pub fn try_write(&mut self, addr: GlobalAddr, data: &[u8]) -> bool {
        if !self.range_allows(addr, data.len(), Access::Write) {
            return false;
        }
        let g = self.geometry;
        let mut pos = 0;
        while pos < data.len() {
            let a = addr.offset(pos);
            let page = g.page_of(a);
            let off = g.offset_in_page(a);
            let n = (g.page_size() - off).min(data.len() - pos);
            let bytes = self.bytes_mut(page).expect("checked above");
            bytes[off..off + n].copy_from_slice(&data[pos..pos + n]);
            pos += n;
        }
        true
    }

    /// First page in `[addr, addr+len)` whose right is below `need`,
    /// i.e. the page to fault on next. `None` when the whole range is
    /// accessible.
    pub fn first_insufficient(&self, addr: GlobalAddr, len: usize, need: Access) -> Option<PageId> {
        self.geometry
            .pages_for_range(addr, len)
            .find(|p| self.access(*p) < need)
    }

    fn range_allows(&self, addr: GlobalAddr, len: usize, need: Access) -> bool {
        self.first_insufficient(addr, len, need).is_none()
    }

    /// Pages currently held (any right), unordered.
    pub fn held_pages(&self) -> impl Iterator<Item = PageId> + '_ {
        self.frames.keys().copied().map(PageId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU8, Ordering};
    use std::sync::Mutex;

    fn table() -> FrameTable {
        FrameTable::new(PageGeometry::new(256))
    }

    #[test]
    fn faults_until_installed() {
        let mut t = table();
        let mut buf = [0u8; 4];
        assert!(!t.try_read(GlobalAddr(0), &mut buf));
        t.install_zeroed(PageId(0), Access::Read);
        assert!(t.try_read(GlobalAddr(0), &mut buf));
        assert!(!t.try_write(GlobalAddr(0), &buf));
        t.set_access(PageId(0), Access::Write);
        assert!(t.try_write(GlobalAddr(0), &[1, 2, 3, 4]));
        let mut out = [0u8; 4];
        assert!(t.try_read(GlobalAddr(0), &mut out));
        assert_eq!(out, [1, 2, 3, 4]);
    }

    #[test]
    fn cross_page_read_write() {
        let mut t = table();
        t.install_zeroed(PageId(0), Access::Write);
        t.install_zeroed(PageId(1), Access::Write);
        let data: Vec<u8> = (0..16).collect();
        assert!(t.try_write(GlobalAddr(248), &data));
        let mut out = [0u8; 16];
        assert!(t.try_read(GlobalAddr(248), &mut out));
        assert_eq!(&out[..], &data[..]);
        // Bytes landed on both pages.
        assert_eq!(t.page_bytes(PageId(0)).unwrap()[248], 0);
        assert_eq!(t.page_bytes(PageId(1)).unwrap()[0], 8);
    }

    #[test]
    fn first_insufficient_reports_faulting_page() {
        let mut t = table();
        t.install_zeroed(PageId(0), Access::Write);
        assert_eq!(
            t.first_insufficient(GlobalAddr(200), 100, Access::Read),
            Some(PageId(1))
        );
        t.install_zeroed(PageId(1), Access::Read);
        assert_eq!(
            t.first_insufficient(GlobalAddr(200), 100, Access::Read),
            None
        );
        assert_eq!(
            t.first_insufficient(GlobalAddr(200), 100, Access::Write),
            Some(PageId(1))
        );
    }

    #[test]
    fn invalidate_keeps_stale_data() {
        let mut t = table();
        t.install_zeroed(PageId(2), Access::Write);
        assert!(t.try_write(GlobalAddr(512), &[9]));
        t.invalidate(PageId(2));
        let mut buf = [0u8; 1];
        assert!(!t.try_read(GlobalAddr(512), &mut buf));
        assert_eq!(t.page_bytes(PageId(2)).unwrap()[0], 9);
    }

    #[test]
    fn evict_removes_frame() {
        let mut t = table();
        t.install_zeroed(PageId(1), Access::Read);
        let data = t.evict(PageId(1)).unwrap();
        assert_eq!(data.len(), 256);
        assert!(t.evict(PageId(1)).is_none());
        assert_eq!(t.access(PageId(1)), Access::None);
    }

    /// A store over four pages of its own that logs every `protect` with
    /// the page's first byte as it was at the call.
    #[derive(Default)]
    struct Recorder {
        bytes: Vec<AtomicU8>,
        levels: Mutex<PageMap<usize, Access>>,
        log: Mutex<Vec<(usize, Access, u8)>>,
    }

    impl Recorder {
        fn new() -> Arc<Self> {
            let bytes = (0..4 * 256).map(|_| AtomicU8::new(0)).collect();
            Arc::new(Recorder {
                bytes,
                ..Recorder::default()
            })
        }

        fn take(&self) -> Vec<(usize, Access, u8)> {
            std::mem::take(&mut *self.log.lock().unwrap())
        }
    }

    // SAFETY: `bytes` holds four disjoint pages of 256 bytes, as
    // interior-mutable atomics, for the recorder's life.
    unsafe impl PageStore for Recorder {
        fn page_ptr(&self, page: PageId) -> *mut u8 {
            (self.bytes.as_ptr() as *mut u8).wrapping_add(page.0 * 256)
        }

        fn level(&self, page: PageId) -> Access {
            let levels = self.levels.lock().unwrap();
            levels.get(&page.0).copied().unwrap_or(Access::None)
        }

        fn protect(&self, page: PageId, access: Access) {
            self.levels.lock().unwrap().insert(page.0, access);
            let first = self.bytes[page.0 * 256].load(Ordering::Relaxed);
            self.log.lock().unwrap().push((page.0, access, first));
        }
    }

    fn backed() -> (FrameTable, Arc<Recorder>) {
        let (mut t, store) = (table(), Recorder::new());
        t.back(store.clone());
        (t, store)
    }

    /// A page the view can write is write-protected before its bytes
    /// are handed out, and once only; its frame keeps the right.
    #[test]
    fn a_hand_out_of_a_writable_page_stops_its_stores_first() {
        let (mut t, store) = backed();
        t.install_zeroed(PageId(0), Access::Write);
        t.install_zeroed(PageId(1), Access::Read);
        store.take();
        assert!(t.try_write(GlobalAddr(0), &[5]));
        assert_eq!(t.page_bytes(PageId(1)).unwrap()[0], 0);
        assert_eq!(store.take(), [], "a readable page is handed out as it is");
        for _ in 0..2 {
            assert_eq!(t.page_bytes(PageId(0)).unwrap()[0], 5);
        }
        assert_eq!(store.take(), [(0, Access::Read, 5)]);
        assert_eq!(t.access(PageId(0)), Access::Write);
        t.set_access(PageId(0), Access::Write);
        t.page_bytes_mut(PageId(0)).unwrap()[0] = 6;
        assert_eq!(store.take(), [(0, Access::Write, 5), (0, Access::Read, 5)]);
        assert_eq!(
            store.bytes[0].load(Ordering::Relaxed),
            6,
            "the bytes are the store's"
        );
    }

    /// A presence test lowers nothing. A hand-out of a writable page
    /// lowers its view once, straight to `None`, and the invalidation
    /// after it has nothing left to lower; a readable page's hand-out
    /// leaves the view to the invalidation.
    #[test]
    fn a_hand_out_lowers_the_view_once_and_a_presence_test_never() {
        let (mut t, store) = backed();
        t.install(PageId(0), vec![5; 256].into(), Access::Write);
        t.install(PageId(1), vec![6; 256].into(), Access::Read);
        store.take();
        assert!(t.holds(PageId(0)) && t.holds(PageId(1)) && !t.holds(PageId(2)));
        assert_eq!(store.take(), [], "a presence test");
        assert_eq!(t.hand_out(PageId(0))[0], 5);
        t.invalidate(PageId(0));
        assert_eq!(store.take(), [(0, Access::None, 5)], "a writable hand-out");
        assert_eq!(t.hand_out(PageId(1))[0], 6);
        assert_eq!(store.take(), []);
        t.invalidate(PageId(1));
        assert_eq!(store.take(), [(1, Access::None, 6)], "a readable hand-out");
        assert_eq!(t.access(PageId(0)), Access::None);
    }

    /// An install writes the bytes first and gives the view its right
    /// after; an install over a writable page stops its stores first.
    #[test]
    fn install_and_set_access_raise_the_view_after_the_bytes_land() {
        let (mut t, store) = backed();
        t.install(PageId(1), vec![7; 256].into(), Access::Read);
        t.set_access(PageId(1), Access::Write);
        t.install(PageId(1), vec![8; 256].into(), Access::Read);
        assert_eq!(
            store.take(),
            [
                (1, Access::Read, 7),
                (1, Access::Write, 7),
                (1, Access::Read, 7),
                (1, Access::Read, 8),
            ]
        );
    }

    /// Invalidation and eviction revoke the view; eviction then copies
    /// the bytes out.
    #[test]
    fn invalidate_and_evict_lower_the_view() {
        let (mut t, store) = backed();
        t.install(PageId(2), vec![3; 256].into(), Access::Write);
        t.install(PageId(3), vec![4; 256].into(), Access::Write);
        store.take();
        t.invalidate(PageId(2));
        assert_eq!(t.page_bytes(PageId(2)).unwrap()[0], 3);
        let data = t.evict(PageId(3)).unwrap();
        assert_eq!(&data[..], &[4; 256][..]);
        assert_eq!(store.take(), [(2, Access::None, 3), (3, Access::None, 4),]);
    }

    /// A table with no store keeps its bytes in its frames: the same
    /// mutations read the same bytes and rights as on a backed table,
    /// whose store alone is called.
    #[test]
    fn an_unbacked_table_reads_as_a_backed_one() {
        let mutate = |t: &mut FrameTable| {
            t.install_zeroed(PageId(0), Access::Read);
            t.install_zeroed(PageId(1), Access::Write);
            assert!(t.try_write(GlobalAddr(256), &[1, 2]));
            t.set_access(PageId(0), Access::Write);
            t.page_bytes_mut(PageId(0)).unwrap()[9] = 9;
            t.invalidate(PageId(1));
            let rights: Vec<_> = (0..2).map(|p| t.access(PageId(p))).collect();
            let bytes: Vec<_> = (0..2)
                .map(|p| t.page_bytes(PageId(p)).unwrap().to_vec())
                .collect();
            (rights, bytes)
        };
        let (mut t, store) = backed();
        assert_eq!(mutate(&mut table()), mutate(&mut t));
        assert_ne!(store.take(), []);
    }

    /// The lend, `read_slices`, yields exactly the bytes `try_read`
    /// copies and declines exactly where it faults: seeded ranges, many
    /// straddling pages, over a page of each right and one never
    /// installed, on an unbacked and a backed table.
    #[test]
    fn read_slices_lend_what_try_read_copies() {
        let mut seed = 0x9e37_79b9_7f4a_7c15_u64;
        let mut below = move |n: usize| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % n as u64) as usize
        };
        for mut t in [table(), backed().0] {
            for (p, access) in [(0, Access::Read), (1, Access::Write), (2, Access::None)] {
                let data = (0..256).map(|i| (p * 256 + i) as u8 ^ 0x5a).collect();
                t.install(PageId(p), data, access);
            }
            let (mut hits, mut faults, mut straddles) = (0, 0, 0);
            for _ in 0..2_000 {
                let addr = below(4 * 256);
                let len = below(4 * 256 - addr + 1);
                let mut copy = vec![0u8; len];
                let copied = t.try_read(GlobalAddr(addr), &mut copy);
                let lent: Vec<_> = t.read_slices(GlobalAddr(addr), len).collect();
                let pages = t.geometry.pages_for_range(GlobalAddr(addr), len).count();
                assert_eq!(lent.len(), pages, "one slice per page of [{addr}, +{len})");
                let lent: Option<Vec<&[u8]>> = lent.into_iter().collect();
                assert_eq!(lent.is_some(), copied, "[{addr}, +{len})");
                if let Some(lent) = lent {
                    assert_eq!(lent.concat(), copy, "[{addr}, +{len})");
                    hits += 1;
                    straddles += usize::from(pages > 1);
                } else {
                    faults += 1;
                }
            }
            assert!(hits > 100 && faults > 100 && straddles > 50);
        }
    }

    #[test]
    fn access_ordering() {
        assert!(Access::Write.allows_read());
        assert!(Access::Write.allows_write());
        assert!(Access::Read.allows_read());
        assert!(!Access::Read.allows_write());
        assert!(!Access::None.allows_read());
        assert!(Access::None < Access::Read && Access::Read < Access::Write);
    }
}
