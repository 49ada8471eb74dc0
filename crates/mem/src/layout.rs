//! Shared-space layout: how many pages exist and which node is each
//! page's *home* (initial owner / manager / master-copy holder).

use crate::addr::{GlobalAddr, PageGeometry, PageId};
use dsm_net::NodeId;

/// Home-assignment policy for pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Page p lives on node p mod N (spreads management load).
    Cyclic,
    /// Contiguous blocks of pages per node (matches block-partitioned
    /// array workloads).
    Block,
    /// Everything on node 0 (the centralized baseline).
    Zero,
}

/// Geometry + extent + placement of the global shared space. Identical
/// on every node; fixed for the lifetime of a run.
#[derive(Debug, Clone, Copy)]
pub struct SpaceLayout {
    pub geometry: PageGeometry,
    pub total_pages: usize,
    pub placement: Placement,
    nnodes: u32,
}

impl SpaceLayout {
    pub fn new(
        geometry: PageGeometry,
        total_bytes: usize,
        placement: Placement,
        nnodes: u32,
    ) -> Self {
        assert!(nnodes > 0);
        SpaceLayout {
            geometry,
            total_pages: geometry.pages_for_bytes(total_bytes),
            placement,
            nnodes,
        }
    }

    pub fn nnodes(&self) -> u32 {
        self.nnodes
    }

    /// Total bytes addressable (page-granular).
    pub fn total_bytes(&self) -> usize {
        self.total_pages * self.geometry.page_size()
    }

    /// Is the byte range within the space? A range whose end does not
    /// fit a `usize` is not.
    pub fn in_bounds(&self, addr: GlobalAddr, len: usize) -> bool {
        addr.0
            .checked_add(len)
            .is_some_and(|end| end <= self.total_bytes())
    }

    /// The home node of `page`.
    pub fn home_of(&self, page: PageId) -> NodeId {
        assert!(page.0 < self.total_pages, "page {page} out of bounds");
        let n = self.nnodes as usize;
        match self.placement {
            Placement::Zero => NodeId(0),
            Placement::Cyclic => NodeId((page.0 % n) as u32),
            Placement::Block => {
                let per = self.total_pages.div_ceil(n);
                NodeId((page.0 / per).min(n - 1) as u32)
            }
        }
    }

    /// Pages homed at `node`.
    pub fn pages_of(&self, node: NodeId) -> impl Iterator<Item = PageId> + '_ {
        (0..self.total_pages)
            .map(PageId)
            .filter(move |p| self.home_of(*p) == node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cyclic_placement() {
        let l = SpaceLayout::new(PageGeometry::new(256), 256 * 8, Placement::Cyclic, 3);
        assert_eq!(l.total_pages, 8);
        assert_eq!(l.home_of(PageId(0)), NodeId(0));
        assert_eq!(l.home_of(PageId(4)), NodeId(1));
        assert_eq!(l.pages_of(NodeId(2)).count(), 2); // pages 2, 5
    }

    #[test]
    fn block_placement_covers_all() {
        let l = SpaceLayout::new(PageGeometry::new(256), 256 * 10, Placement::Block, 4);
        // ceil(10/4)=3 pages per node: 0-2 → n0, 3-5 → n1, 6-8 → n2, 9 → n3.
        assert_eq!(l.home_of(PageId(0)), NodeId(0));
        assert_eq!(l.home_of(PageId(3)), NodeId(1));
        assert_eq!(l.home_of(PageId(9)), NodeId(3));
        let total: usize = (0..4).map(|i| l.pages_of(NodeId(i)).count()).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn zero_placement() {
        let l = SpaceLayout::new(PageGeometry::new(256), 1024, Placement::Zero, 4);
        assert!((0..l.total_pages).all(|p| l.home_of(PageId(p)) == NodeId(0)));
    }

    #[test]
    fn bounds() {
        let l = SpaceLayout::new(PageGeometry::new(256), 1000, Placement::Cyclic, 2);
        assert_eq!(l.total_pages, 4);
        assert!(l.in_bounds(GlobalAddr(0), 1024));
        assert!(!l.in_bounds(GlobalAddr(1), 1024));
        assert!(!l.in_bounds(GlobalAddr(usize::MAX - 3), 8));
        assert!(!l.in_bounds(GlobalAddr(usize::MAX), 1));
    }
}
