//! Global addressing: the shared space is a flat array of bytes,
//! chopped into power-of-two pages by a [`PageGeometry`].

use dsm_net::{Wire, WireReader};
use std::fmt;

/// A byte offset into the global shared address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GlobalAddr(pub usize);

impl Wire for GlobalAddr {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        Some(GlobalAddr(usize::decode(r)?))
    }
}

impl GlobalAddr {
    #[inline]
    pub fn offset(self, bytes: usize) -> GlobalAddr {
        GlobalAddr(self.0 + bytes)
    }
}

impl fmt::Display for GlobalAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g:{:#x}", self.0)
    }
}

/// A page index in the global space (addr >> page_shift).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageId(pub usize);

impl Wire for PageId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        Some(PageId(usize::decode(r)?))
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Power-of-two page size parameters. Page size is a first-class
/// experiment variable (false-sharing sensitivity), so everything that
/// maps addresses to pages goes through this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageGeometry {
    shift: u32,
}

impl PageGeometry {
    /// Geometry for `page_size` bytes; must be a power of two ≥ 8.
    pub fn new(page_size: usize) -> Self {
        assert!(
            page_size.is_power_of_two() && page_size >= 8,
            "page size must be a power of two >= 8, got {page_size}"
        );
        PageGeometry {
            shift: page_size.trailing_zeros(),
        }
    }

    /// Bytes per page.
    #[inline]
    pub fn page_size(self) -> usize {
        1usize << self.shift
    }

    /// Page containing `addr`.
    #[inline]
    pub fn page_of(self, addr: GlobalAddr) -> PageId {
        PageId(addr.0 >> self.shift)
    }

    /// Byte offset of `addr` within its page.
    #[inline]
    pub fn offset_in_page(self, addr: GlobalAddr) -> usize {
        addr.0 & (self.page_size() - 1)
    }

    /// All pages overlapping the byte range `[addr, addr + len)`.
    /// Empty ranges touch no pages.
    pub fn pages_for_range(self, addr: GlobalAddr, len: usize) -> impl Iterator<Item = PageId> {
        let first = if len == 0 { 1 } else { addr.0 >> self.shift };
        let last = if len == 0 {
            0
        } else {
            (addr.0 + len - 1) >> self.shift
        };
        (first..=last).map(PageId)
    }

    /// Number of pages needed to hold `bytes` bytes.
    #[inline]
    pub fn pages_for_bytes(self, bytes: usize) -> usize {
        bytes.div_ceil(self.page_size())
    }
}

impl Default for PageGeometry {
    /// The classic 4 KiB page.
    fn default() -> Self {
        PageGeometry::new(4096)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_mapping_roundtrip() {
        let g = PageGeometry::new(1024);
        assert_eq!(g.page_size(), 1024);
        assert_eq!(g.page_of(GlobalAddr(0)), PageId(0));
        assert_eq!(g.page_of(GlobalAddr(1023)), PageId(0));
        assert_eq!(g.page_of(GlobalAddr(1024)), PageId(1));
        assert_eq!(g.offset_in_page(GlobalAddr(1030)), 6);
    }

    #[test]
    fn range_spanning_pages() {
        let g = PageGeometry::new(256);
        let pages: Vec<_> = g.pages_for_range(GlobalAddr(250), 20).collect();
        assert_eq!(pages, vec![PageId(0), PageId(1)]);
        let pages: Vec<_> = g.pages_for_range(GlobalAddr(256), 256).collect();
        assert_eq!(pages, vec![PageId(1)]);
        let pages: Vec<_> = g.pages_for_range(GlobalAddr(10), 0).collect();
        assert!(pages.is_empty());
    }

    #[test]
    fn pages_for_bytes_rounds_up() {
        let g = PageGeometry::new(4096);
        assert_eq!(g.pages_for_bytes(0), 0);
        assert_eq!(g.pages_for_bytes(1), 1);
        assert_eq!(g.pages_for_bytes(4096), 1);
        assert_eq!(g.pages_for_bytes(4097), 2);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        PageGeometry::new(1000);
    }
}
