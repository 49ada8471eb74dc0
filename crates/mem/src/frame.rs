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

    /// Stop the program's stores to `page` before the table copies it.
    fn stop_stores(&self, page: PageId) {
        if let Some(store) = &self.store {
            if store.level(page) == Access::Write {
                store.protect(page, Access::Read);
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

    /// Current right on `page` (`None` access if no frame exists).
    pub fn access(&self, page: PageId) -> Access {
        self.frames.get(&page.0).map_or(Access::None, |f| f.access)
    }

    /// Install `data` as the local copy of `page` with `access`.
    /// Replaces any existing frame.
    pub fn install(&mut self, page: PageId, data: Box<[u8]>, access: Access) {
        assert_eq!(data.len(), self.geometry.page_size(), "wrong page size");
        self.stop_stores(page);
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
    /// MMU invalidation that leaves the frame mapped unreadable.
    pub fn invalidate(&mut self, page: PageId) {
        if let Some(f) = self.frames.get_mut(&page.0) {
            f.access = Access::None;
            self.protect(page, Access::None);
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
        self.stop_stores(page);
        self.bytes(page)
    }

    /// Mutable raw bytes (protocol use: applying diffs/updates even to
    /// read-protected copies). `None` if no frame.
    pub fn page_bytes_mut(&mut self, page: PageId) -> Option<&mut [u8]> {
        self.stop_stores(page);
        self.bytes_mut(page)
    }

    /// `page`'s bytes, wherever they live.
    fn bytes(&self, page: PageId) -> Option<&[u8]> {
        let frame = self.frames.get(&page.0)?;
        Some(match self.stored(page) {
            None => &frame.data,
            // SAFETY: the store's contract; nothing writes while this
            // borrow lives: `page_bytes` stopped the program's stores,
            // and `try_read` runs the op its program is parked in.
            Some(at) => unsafe { slice::from_raw_parts(at, self.geometry.page_size()) },
        })
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

    /// Application read of `buf.len()` bytes at `addr`. Returns false
    /// (a read fault) if any touched page lacks read rights.
    pub fn try_read(&self, addr: GlobalAddr, buf: &mut [u8]) -> bool {
        if !self.range_allows(addr, buf.len(), Access::Read) {
            return false;
        }
        self.copy_range(addr, buf);
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

    fn copy_range(&self, addr: GlobalAddr, buf: &mut [u8]) {
        let g = self.geometry;
        let mut pos = 0;
        while pos < buf.len() {
            let a = addr.offset(pos);
            let page = g.page_of(a);
            let off = g.offset_in_page(a);
            let n = (g.page_size() - off).min(buf.len() - pos);
            let bytes = self.bytes(page).expect("checked by caller");
            buf[pos..pos + n].copy_from_slice(&bytes[off..off + n]);
            pos += n;
        }
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
