//! Per-node page frames and access rights: the simulated MMU.
//!
//! Each simulated node holds local copies of the pages it has faulted
//! in, each tagged with the access it is allowed ([`Access`]). The
//! protocol layer manipulates rights; reads and writes that exceed the
//! current right are the *faults* that drive the coherence protocol.

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

/// One local page copy.
#[derive(Debug, Clone)]
pub struct Frame {
    pub data: Box<[u8]>,
    pub access: Access,
}

/// A node's local memory: page frames indexed by global page id, plus
/// the geometry used to translate addresses.
#[derive(Debug)]
pub struct FrameTable {
    geometry: PageGeometry,
    frames: PageMap<usize, Frame>,
    /// Pages installed, re-righted, invalidated or evicted since the
    /// last `take_changes`; `None` until `track_changes`.
    changes: Option<Vec<PageId>>,
}

impl FrameTable {
    pub fn new(geometry: PageGeometry) -> Self {
        FrameTable {
            geometry,
            frames: PageMap::default(),
            changes: None,
        }
    }

    /// Log every page whose access may change from now on.
    pub fn track_changes(&mut self) {
        self.changes.get_or_insert_with(Vec::new);
    }

    /// The pages logged since the last call, oldest first, repeats kept.
    pub fn take_changes(&mut self) -> impl Iterator<Item = PageId> + '_ {
        self.changes.iter_mut().flat_map(|log| log.drain(..))
    }

    fn changed(&mut self, page: PageId) {
        if let Some(log) = &mut self.changes {
            log.push(page);
        }
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
        self.frames.insert(page.0, Frame { data, access });
        self.changed(page);
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
        self.changed(page);
    }

    /// Downgrade to `None` but keep the (now stale) data, mirroring an
    /// MMU invalidation that leaves the frame mapped unreadable.
    pub fn invalidate(&mut self, page: PageId) {
        if let Some(f) = self.frames.get_mut(&page.0) {
            f.access = Access::None;
            self.changed(page);
        }
    }

    /// Drop the frame entirely (migration protocols).
    pub fn evict(&mut self, page: PageId) -> Option<Box<[u8]>> {
        let frame = self.frames.remove(&page.0)?;
        self.changed(page);
        Some(frame.data)
    }

    /// Raw bytes of the local copy, regardless of rights (protocol use:
    /// sending page contents, diffing). `None` if no frame.
    pub fn page_bytes(&self, page: PageId) -> Option<&[u8]> {
        self.frames.get(&page.0).map(|f| &*f.data)
    }

    /// Mutable raw bytes (protocol use: applying diffs/updates even to
    /// read-protected copies). `None` if no frame.
    pub fn page_bytes_mut(&mut self, page: PageId) -> Option<&mut [u8]> {
        self.frames.get_mut(&page.0).map(|f| &mut *f.data)
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
            let frame = self.frames.get_mut(&page.0).expect("checked above");
            frame.data[off..off + n].copy_from_slice(&data[pos..pos + n]);
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
            let frame = self.frames.get(&page.0).expect("checked by caller");
            buf[pos..pos + n].copy_from_slice(&frame.data[off..off + n]);
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

    /// The log holds every page whose access a mutator touched, and a
    /// table that never asked for it logs nothing.
    #[test]
    fn take_changes_returns_each_mutated_page() {
        let mutate = |t: &mut FrameTable| {
            t.install_zeroed(PageId(0), Access::Read);
            t.install_zeroed(PageId(1), Access::Write);
            t.install_zeroed(PageId(2), Access::Read);
            t.install_zeroed(PageId(3), Access::Read);
            let _ = t.take_changes().count();
            assert!(t.try_write(GlobalAddr(256), &[1]));
            t.set_access(PageId(0), Access::Write);
            t.invalidate(PageId(2));
            t.evict(PageId(3));
            t.invalidate(PageId(7));
            t.take_changes().collect::<Vec<_>>()
        };
        let mut tracked = table();
        tracked.track_changes();
        assert_eq!(mutate(&mut tracked), [PageId(0), PageId(2), PageId(3)]);
        assert_eq!(tracked.take_changes().count(), 0);
        assert_eq!(mutate(&mut table()), []);
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
