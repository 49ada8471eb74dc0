//! Memory-mapped per-node views of the shared space.

use std::io;
use std::ptr;

/// Protection level of a page range (maps directly onto `mprotect`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Prot {
    None,
    Read,
    ReadWrite,
}

impl Prot {
    fn flags(self) -> libc::c_int {
        match self {
            Prot::None => libc::PROT_NONE,
            Prot::Read => libc::PROT_READ,
            Prot::ReadWrite => libc::PROT_READ | libc::PROT_WRITE,
        }
    }
}

/// One node's anonymous private mapping. Pages start `PROT_NONE` (and
/// zero-filled by the kernel on first legitimate access).
#[derive(Debug)]
pub struct Region {
    base: *mut u8,
    len: usize,
}

// SAFETY: the mapping is owned and fixed; its memory is reached only
// through `unsafe` accessors whose callers take on the aliasing rules.
unsafe impl Send for Region {}
// SAFETY: as for `Send`; `&self` methods are system calls on the range.
unsafe impl Sync for Region {}

impl Region {
    /// Map `len` bytes with no access.
    pub fn new(len: usize) -> io::Result<Region> {
        // SAFETY: a new mapping where the kernel chooses aliases nothing.
        let base = unsafe {
            libc::mmap(
                ptr::null_mut(),
                len,
                libc::PROT_NONE,
                libc::MAP_PRIVATE | libc::MAP_ANONYMOUS,
                -1,
                0,
            )
        };
        if base == libc::MAP_FAILED {
            return Err(io::Error::last_os_error());
        }
        Ok(Region {
            base: base as *mut u8,
            len,
        })
    }

    pub fn base(&self) -> *mut u8 {
        self.base
    }

    /// Does `addr` fall inside this mapping?
    pub fn contains(&self, addr: usize) -> bool {
        let b = self.base as usize;
        addr >= b && addr < b + self.len
    }

    /// Start of `[off, off + len)`, which must not reach other mappings.
    fn range(&self, off: usize, len: usize) -> *mut libc::c_void {
        let inside = off.checked_add(len).is_some_and(|end| end <= self.len);
        assert!(inside, "[{off:#x}, +{len:#x}) is outside the region");
        self.base.wrapping_add(off).cast()
    }

    /// Change protection of `[off, off+len)` (must be page-aligned).
    pub fn protect(&self, off: usize, len: usize, prot: Prot) {
        let at = self.range(off, len);
        // SAFETY: a range of this mapping; revoked rights make a later
        // access trap, never reach freed memory.
        let rc = unsafe { libc::mprotect(at, len, prot.flags()) };
        assert_eq!(rc, 0, "mprotect failed: {}", io::Error::last_os_error());
    }

    /// Free `[off, off+len)` (page-aligned): it next reads as zeros.
    pub(crate) fn discard(&self, off: usize, len: usize) {
        let at = self.range(off, len);
        // SAFETY: a range of this private anonymous mapping, whose pages
        // the kernel drops; no borrow of them is live (the one kind,
        // `ClusterView::page_bytes`, forbids any change while it lives).
        let rc = unsafe { libc::madvise(at, len, libc::MADV_DONTNEED) };
        assert_eq!(rc, 0, "madvise failed: {}", io::Error::last_os_error());
    }

    /// Raw pointer to offset `off`.
    ///
    /// # Safety
    /// The caller must respect the current protection and avoid
    /// conflicting concurrent access.
    pub unsafe fn at(&self, off: usize) -> *mut u8 {
        debug_assert!(off < self.len);
        // SAFETY: the caller keeps `off` inside the mapping.
        unsafe { self.base.add(off) }
    }
}

impl Drop for Region {
    fn drop(&mut self) {
        // SAFETY: the mapping `new` made; every access borrowed `self`.
        unsafe {
            libc::munmap(self.base as *mut libc::c_void, self.len);
        }
    }
}

/// The operating system's page size.
pub fn os_page_size() -> usize {
    // SAFETY: sysconf reads a constant of the system.
    unsafe { libc::sysconf(libc::_SC_PAGESIZE) as usize }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_protect_access_roundtrip() {
        let ps = os_page_size();
        let r = Region::new(ps * 4).unwrap();
        r.protect(ps, ps, Prot::ReadWrite);
        // SAFETY: page 1 of the mapping, writable, this thread's only.
        unsafe {
            let p = r.at(ps);
            std::ptr::write_volatile(p, 0xAB);
            assert_eq!(std::ptr::read_volatile(p), 0xAB);
        }
        r.protect(ps, ps, Prot::Read);
        // SAFETY: the same page, still readable.
        unsafe {
            assert_eq!(std::ptr::read_volatile(r.at(ps)), 0xAB);
        }
    }

    #[test]
    fn contains_checks_bounds() {
        let ps = os_page_size();
        let r = Region::new(ps).unwrap();
        let b = r.base() as usize;
        assert!(r.contains(b));
        assert!(r.contains(b + ps - 1));
        assert!(!r.contains(b + ps));
        assert!(!r.contains(b.wrapping_sub(1)));
    }

    #[test]
    fn fresh_pages_are_zero() {
        let ps = os_page_size();
        let r = Region::new(ps).unwrap();
        r.protect(0, ps, Prot::Read);
        // SAFETY: both offsets lie in the one page, readable.
        unsafe {
            assert_eq!(std::ptr::read_volatile(r.at(0)), 0);
            assert_eq!(std::ptr::read_volatile(r.at(ps - 1)), 0);
        }
    }

    /// A range past the end is refused in every build, not handed to
    /// `mprotect`: the page after `lo` may be another mapping's.
    #[test]
    #[should_panic(expected = "outside the region")]
    fn protect_past_the_end_is_refused() {
        let ps = os_page_size();
        let (lo, _hi) = (Region::new(ps).unwrap(), Region::new(ps).unwrap());
        lo.protect(ps, ps, Prot::ReadWrite);
    }

    /// `off + len` must not wrap its way past the check.
    #[test]
    #[should_panic(expected = "outside the region")]
    fn protect_wrapping_range_is_refused() {
        let ps = os_page_size();
        let r = Region::new(ps).unwrap();
        r.protect(ps, usize::MAX - ps + 1, Prot::None);
    }

    #[test]
    fn discarded_pages_read_as_zeros() {
        let ps = os_page_size();
        let r = Region::new(2 * ps).unwrap();
        r.protect(0, 2 * ps, Prot::ReadWrite);
        // SAFETY: both pages writable, this thread's only.
        unsafe {
            r.at(0).write_volatile(7);
            r.at(ps).write_volatile(9);
        }
        r.discard(0, ps);
        // SAFETY: as above.
        unsafe {
            assert_eq!(r.at(0).read_volatile(), 0);
            assert_eq!(r.at(ps).read_volatile(), 9);
        }
    }
}
