//! Memory-mapped per-node views of the shared space.

use std::fs::File;
use std::io;
use std::os::fd::{AsRawFd, FromRawFd};
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

/// A shared mapping of fresh memory (a `memfd`), which
/// [`Region::twice`] maps a second time. Pages read as zeros until
/// written.
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
    /// Map `len` bytes of fresh memory with no access.
    pub fn new(len: usize) -> io::Result<Region> {
        Region::map(&memfd(len)?, len, Prot::None)
    }

    /// Map `len` bytes of fresh memory twice: with no access, and as an
    /// alias with read-write access. What is stored through one mapping
    /// is what the other loads.
    pub fn twice(len: usize) -> io::Result<(Region, Region)> {
        let file = memfd(len)?;
        Ok((
            Region::map(&file, len, Prot::None)?,
            Region::map(&file, len, Prot::ReadWrite)?,
        ))
    }

    fn map(file: &File, len: usize, prot: Prot) -> io::Result<Region> {
        // SAFETY: a new shared mapping of `file`, where the kernel
        // chooses, aliases no Rust object.
        let base = unsafe {
            libc::mmap(
                ptr::null_mut(),
                len,
                prot.flags(),
                libc::MAP_SHARED,
                file.as_raw_fd(),
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

/// `len` bytes of fresh memory, as a file to map; its mappings keep the
/// memory once the file is closed.
fn memfd(len: usize) -> io::Result<File> {
    // SAFETY: a NUL-terminated name and a flag memfd_create knows.
    let fd = unsafe { libc::memfd_create(c"dsm-region".as_ptr(), libc::MFD_CLOEXEC) };
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: a fresh descriptor nothing else owns.
    let file = unsafe { File::from_raw_fd(fd) };
    file.set_len(len as u64)?;
    Ok(file)
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

    /// A store through the alias is what the region loads, under
    /// whatever protection the region has.
    #[test]
    fn an_alias_maps_the_same_memory() {
        let ps = os_page_size();
        let (r, alias) = Region::twice(2 * ps).unwrap();
        r.protect(ps, ps, Prot::Read);
        // SAFETY: the alias is read-write, page 1 of the region readable,
        // and both are this thread's only.
        unsafe {
            alias.at(ps + 3).write_volatile(5);
            assert_eq!(r.at(ps + 3).read_volatile(), 5);
        }
    }
}
