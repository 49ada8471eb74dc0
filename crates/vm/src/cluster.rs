//! The page view — the one trap path of this crate: a node's `mmap`-ed
//! window onto the shared space, with `mprotect`-enforced rights and a
//! `SIGSEGV` handler that turns violations into *surfaced* faults.
//!
//! A [`ClusterView`] owns everything the mechanism needs: one memory
//! mapped twice — the view, under the program's per-page protection,
//! and an alias its host reads and writes at any time — the per-page
//! access level, the fault slot the handler files into and the pipe that
//! wakes the host. The faulting thread parks in the
//! handler; whatever runtime embeds the view drains its faults
//! ([`ClusterView::next_fault`] blocks, [`ClusterView::pending_fault`]
//! polls), resolves each by installing data and rights, and resumes the
//! thread with [`ClusterView::finish_fault`]. In cluster mode that host
//! is a network protocol stack, which polls the pipe ([`ClusterView::doorbell`])
//! with its socket, and keeps its frame table in the view's memory
//! ([`ClusterView::store`]); the application rings the pipe too
//! ([`ClusterView::ring`]). A program may also check its rights first
//! ([`ClusterView::grants`], one load per page) and resolve a miss
//! itself, without a trap; the trap stays for what a check cannot
//! exclude, a right revoked between the check and the access.
//! Any number of views may live in one process: the handler finds the
//! faulting one by scanning a static table.
//!
//! Safety model: the handler is async-signal-safe (atomics, `write(2)`
//! to a pipe, raw `futex` — no allocation, no locks). A page is written
//! by its application thread while the view grants write, or by its host
//! through the alias — while the view does not, or while that thread is
//! parked or provably elsewhere.

use std::io::{self, Read};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::ptr;
use std::sync::atomic::{
    compiler_fence, AtomicPtr, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering,
};
use std::sync::{Arc, OnceLock};

use dsm_mem::{Access, GlobalAddr, PageId, PageStore};

use crate::region::{os_page_size, Prot, Region};

/// Per-page access level of a view: no mapping rights.
pub const ACC_NONE: u8 = 0;
/// Read-only mapping.
pub const ACC_READ: u8 = 1;
/// Read-write mapping.
pub const ACC_WRITE: u8 = 2;

const SLOT_IDLE: u32 = 0;
const SLOT_REQUESTED: u32 = 1;
const SLOT_DONE: u32 = 2;
/// The host is gone ([`ClusterView::fail`]): no fault parks any more.
const SLOT_FAILED: u32 = 3;

/// Pipe bytes: a fault, a `ring`, and `stop` (the end of the stream).
const FAULT_BYTE: u8 = 1;
const RING_BYTE: u8 = 2;
const STOP_BYTE: u8 = 0xFF;

/// A fault surfaced by the view: the page, the byte offset in the view
/// the access trapped at, and whether the page was already readable (so
/// the access must have been a store needing an upgrade). A store to an
/// unmapped page surfaces as a *read* fault first; once the host
/// installs the page read-only the retried store faults again as a
/// write — the classic two-fault cold-write upgrade.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ViewFault {
    pub page: usize,
    pub off: usize,
    pub write: bool,
}

/// Handler → host fault mailbox (one app thread per view means at most
/// one outstanding fault).
struct FaultSlot {
    off: AtomicUsize,
    status: AtomicU32,
}

struct ViewShared {
    page_size: usize,
    pages: usize,
    /// The program's mapping, under `access`.
    region: Region,
    /// The same memory, read-write: the host's.
    alias: Region,
    access: Vec<AtomicU8>,
    slot: FaultSlot,
    pipe_w: OwnedFd,
    /// Faults the handler has taken in this view.
    traps: AtomicU64,
}

impl ViewShared {
    /// Byte offset of `page`; the raw copies and `mprotect` calls rely
    /// on this range check.
    fn page_off(&self, page: usize) -> usize {
        assert!(page < self.pages, "page {page} outside the view");
        page * self.page_size
    }

    /// `page`'s bytes in the alias.
    fn alias_at(&self, page: usize) -> *mut u8 {
        // SAFETY: in bounds; the alias is read-write for its life.
        unsafe { self.alias.at(self.page_off(page)) }
    }

    fn set_access(&self, page: usize, acc: u8) {
        let prot = match acc {
            ACC_NONE => Prot::None,
            ACC_READ => Prot::Read,
            ACC_WRITE => Prot::ReadWrite,
            _ => panic!("bad access level {acc}"),
        };
        let off = self.page_off(page);
        if self.access[page].load(Ordering::Acquire) != acc {
            self.region.protect(off, self.page_size, prot);
            self.access[page].store(acc, Ordering::Release);
        }
    }
}

// `Access` counts up as the view's levels do.
const _: () = assert!(Access::Read as u8 == ACC_READ && Access::Write as u8 == ACC_WRITE);

// SAFETY: each page's alias bytes are `page_size` bytes of one mapping
// that lives as long as `self`, disjoint per page; the program writes
// them only through the view, and only while its level is `ACC_WRITE`,
// which `protect` sets and `level` reports.
unsafe impl PageStore for ViewShared {
    fn page_ptr(&self, page: PageId) -> *mut u8 {
        self.alias_at(page.0)
    }

    fn level(&self, page: PageId) -> Access {
        match self.access[page.0].load(Ordering::Acquire) {
            ACC_NONE => Access::None,
            ACC_READ => Access::Read,
            _ => Access::Write,
        }
    }

    fn protect(&self, page: PageId, access: Access) {
        self.set_access(page.0, access as u8);
    }
}

// ---------------- the signal handler ----------------

/// Views one process can hold at once (a cluster node takes one).
const MAX_VIEWS: usize = 256;

/// Every live view, for the handler to scan. A slot is claimed by
/// [`ClusterView::new`] and released by the view's `Drop`.
static VIEWS: [AtomicPtr<ViewShared>; MAX_VIEWS] =
    [const { AtomicPtr::new(ptr::null_mut()) }; MAX_VIEWS];

/// Handlers currently scanning `VIEWS`. A scan may hold a pointer to a
/// view other than the one its thread faulted in, so a dropped view
/// clears its slot and then waits for this to reach zero before its
/// memory goes (both sides `SeqCst`: either the scan sees the cleared
/// slot or the drop sees the scan).
static SCANNING: AtomicUsize = AtomicUsize::new(0);

/// Turn the first slot of `VIEWS` that holds `from` into `to` (claim:
/// null → view; release: view → null). False if no slot holds `from`.
fn swap_slot(from: *mut ViewShared, to: *mut ViewShared) -> bool {
    let ord = Ordering::SeqCst;
    VIEWS
        .iter()
        .any(|entry| entry.compare_exchange(from, to, ord, ord).is_ok())
}

fn futex_wait(word: &AtomicU32, expected: u32) {
    // SAFETY: `word` is a live, aligned u32; FUTEX_WAIT with no timeout
    // reads nothing else.
    unsafe {
        libc::syscall(
            libc::SYS_futex,
            word.as_ptr(),
            libc::FUTEX_WAIT,
            expected,
            ptr::null::<libc::timespec>(),
        );
    }
}

fn futex_wake_all(word: &AtomicU32) {
    // SAFETY: as for `futex_wait`.
    unsafe {
        libc::syscall(libc::SYS_futex, word.as_ptr(), libc::FUTEX_WAKE, i32::MAX);
    }
}

/// Wake the view's host with one pipe byte (`write(2)` only, so the
/// handler may call it).
fn send_byte(view: &ViewShared, byte: u8) {
    let (fd, buf) = (view.pipe_w.as_raw_fd(), &byte as *const u8);
    // SAFETY: one byte from a live local into a pipe the view owns.
    unsafe { libc::write(fd, buf as *const libc::c_void, 1) };
}

extern "C" fn segv_handler(_sig: libc::c_int, info: *mut libc::siginfo_t, _ctx: *mut libc::c_void) {
    // Async-signal-safe only: atomics, write(2), futex.
    // SAFETY: the kernel passes a valid siginfo under SA_SIGINFO.
    let addr = unsafe { (*info).si_addr() } as usize;
    SCANNING.fetch_add(1, Ordering::SeqCst);
    let hit = VIEWS.iter().find_map(|entry| {
        let view = entry.load(Ordering::SeqCst);
        // SAFETY: a view's memory outlives every scan that could have
        // loaded its pointer (see `SCANNING`).
        (!view.is_null() && unsafe { (*view).region.contains(addr) }).then_some(view)
    });
    SCANNING.fetch_sub(1, Ordering::SeqCst);
    let Some(view) = hit else {
        // Not a DSM fault: restore the default action, so the retried
        // instruction crashes with a real segfault.
        // SAFETY: signal(2) is async-signal-safe.
        unsafe { libc::signal(libc::SIGSEGV, libc::SIG_DFL) };
        return;
    };
    // SAFETY: the faulting thread is inside an access to this view's
    // mapping, so the view is borrowed (alive) until that access retires.
    let view = unsafe { &*view };
    view.traps.fetch_add(1, Ordering::Relaxed);
    let slot = &view.slot;
    let off = addr - view.region.base() as usize;
    slot.off.store(off, Ordering::Release);
    let status = &slot.status;
    let cas = |from, to| status.compare_exchange(from, to, Ordering::AcqRel, Ordering::Acquire);
    if cas(SLOT_IDLE, SLOT_REQUESTED).is_ok() {
        send_byte(view, FAULT_BYTE);
        while status.load(Ordering::Acquire) == SLOT_REQUESTED {
            futex_wait(status, SLOT_REQUESTED);
        }
    }
    // A failed host resolves nothing: go through on the page as it is.
    if cas(SLOT_DONE, SLOT_IDLE).is_err() {
        let (page, rw) = (off - off % view.page_size, Prot::ReadWrite.flags());
        // SAFETY: one page of the view; mprotect(2) is async-signal-safe.
        unsafe { libc::mprotect(view.region.at(page).cast(), view.page_size, rw) };
    }
    // Returning retries the faulting instruction.
}

fn install_handler() {
    static ONCE: OnceLock<()> = OnceLock::new();
    // SAFETY: a zeroed sigaction is valid; the handler above has the
    // SA_SIGINFO signature.
    ONCE.get_or_init(|| unsafe {
        let mut sa: libc::sigaction = std::mem::zeroed();
        sa.sa_sigaction = segv_handler
            as extern "C" fn(libc::c_int, *mut libc::siginfo_t, *mut libc::c_void)
            as usize;
        sa.sa_flags = libc::SA_SIGINFO;
        libc::sigemptyset(&mut sa.sa_mask);
        let rc = libc::sigaction(libc::SIGSEGV, &sa, ptr::null_mut());
        assert_eq!(rc, 0, "sigaction failed");
    });
}

// ---------------- the view ----------------

/// One node's transparent window onto the distributed shared space:
/// the *application* side reads and writes it, the *host* side drains
/// its faults and sets contents and rights (see the module docs).
pub struct ClusterView {
    shared: Arc<ViewShared>,
    pipe_r: std::fs::File,
}

impl ClusterView {
    /// Map `pages` pages of `page_size` bytes, all initially
    /// inaccessible, and their alias. `page_size` must be a multiple of
    /// the OS page size. Fails if the mappings or the pipe cannot be
    /// made, or if the process already holds as many views as the
    /// handler's table has slots.
    pub fn new(pages: usize, page_size: usize) -> io::Result<ClusterView> {
        assert!(pages >= 1, "need at least one page");
        assert!(
            page_size % os_page_size() == 0,
            "page size {page_size} must be a multiple of the OS page size {}",
            os_page_size()
        );
        let len = pages
            .checked_mul(page_size)
            .ok_or_else(|| io::Error::other("view size overflows usize"))?;
        let (region, alias) = Region::twice(len)?;
        let mut fds = [0 as libc::c_int; 2];
        // SAFETY: `fds` has room for the two descriptors pipe(2) writes.
        if unsafe { libc::pipe(fds.as_mut_ptr()) } != 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: both ends are fresh descriptors nothing else owns.
        let (pipe_r, pipe_w) = unsafe {
            (
                std::fs::File::from_raw_fd(fds[0]),
                OwnedFd::from_raw_fd(fds[1]),
            )
        };
        let shared = Arc::new(ViewShared {
            page_size,
            pages,
            region,
            alias,
            access: (0..pages).map(|_| AtomicU8::new(ACC_NONE)).collect(),
            slot: FaultSlot {
                off: AtomicUsize::new(0),
                status: AtomicU32::new(SLOT_IDLE),
            },
            pipe_w,
            traps: AtomicU64::new(0),
        });
        install_handler();
        let raw = &*shared as *const ViewShared as *mut ViewShared;
        if !swap_slot(ptr::null_mut(), raw) {
            return Err(io::Error::other(format!(
                "view table full: {MAX_VIEWS} views already live in this process"
            )));
        }
        Ok(ClusterView { shared, pipe_r })
    }

    /// The view's memory as a frame table's store: the table keeps its
    /// page bytes in the alias and sets the view's protection itself.
    pub fn store(&self) -> Arc<dyn PageStore> {
        self.shared.clone()
    }

    // ---------------- application side ----------------

    /// Refuse `what` (a read or a write) of the `n` bytes at offset `off`
    /// if they do not lie in the view, as the simulator refuses an
    /// access out of the global space; checked without wrapping.
    #[inline]
    fn bounds(&self, what: &str, off: usize, n: usize) {
        assert!(
            off.checked_add(n)
                .is_some_and(|end| end <= self.shared.pages * self.shared.page_size),
            "{what} [{}, +{n}) out of bounds",
            GlobalAddr(off)
        );
    }

    /// Pointer to the `n` bytes at offset `off`, bounds-checked.
    #[inline]
    fn span(&self, what: &str, off: usize, n: usize) -> *mut u8 {
        self.bounds(what, off, n);
        // SAFETY: in bounds; the callers below respect protection by
        // trapping into the handler.
        unsafe { self.shared.region.at(off) }
    }

    /// Whether every page of the `n` bytes at offset `off` grants at
    /// least `acc` now: one load per page, bounds-checked as the access
    /// it precedes is (`acc` [`ACC_WRITE`] checks as a write). A right
    /// revoked after the check still traps.
    #[inline]
    pub fn grants(&self, off: usize, n: usize, acc: u8) -> bool {
        self.bounds(if acc == ACC_WRITE { "write" } else { "read" }, off, n);
        if n == 0 {
            return true;
        }
        let ps = self.shared.page_size;
        (off / ps..=(off + n - 1) / ps).all(|page| self.access(page) >= acc)
    }

    /// Volatile typed load at byte offset `off` (may fault and park
    /// until the host installs the page): one access when `off` is
    /// aligned for `T`, byte-wise otherwise, so unaligned and
    /// page-straddling accesses work (each byte traps independently).
    #[inline]
    pub fn read<T: Copy>(&self, off: usize) -> T {
        let p = self.span("read", off, size_of::<T>());
        // SAFETY: bounds asserted by `span`; volatile so the compiler
        // cannot elide or merge the access the handler must observe.
        unsafe {
            if p as usize % align_of::<T>() == 0 {
                return ptr::read_volatile(p as *const T);
            }
            let mut out = std::mem::MaybeUninit::<T>::uninit();
            let dst = out.as_mut_ptr() as *mut u8;
            for i in 0..size_of::<T>() {
                dst.add(i).write(ptr::read_volatile(p.add(i)));
            }
            out.assume_init()
        }
    }

    /// Volatile typed store at byte offset `off` (may fault twice on a
    /// cold write: once for the page, once for the upgrade). Aligned
    /// and unaligned offsets as for [`ClusterView::read`].
    #[inline]
    pub fn write<T: Copy>(&self, off: usize, v: T) {
        let p = self.span("write", off, size_of::<T>());
        // SAFETY: as for `read`.
        unsafe {
            if p as usize % align_of::<T>() == 0 {
                return ptr::write_volatile(p as *mut T, v);
            }
            let src = &v as *const T as *const u8;
            for i in 0..size_of::<T>() {
                ptr::write_volatile(p.add(i), src.add(i).read());
            }
        }
    }

    /// Copy the `buf.len()` bytes at offset `off` into `buf`, each page
    /// trapping as for [`ClusterView::read`].
    pub fn read_bytes(&self, off: usize, buf: &mut [u8]) {
        let p = self.span("read", off, buf.len());
        // The fence keeps the copy from being merged with an earlier access.
        compiler_fence(Ordering::SeqCst);
        // SAFETY: bounds asserted by `span`.
        unsafe { ptr::copy_nonoverlapping(p, buf.as_mut_ptr(), buf.len()) };
    }

    /// Copy `data` to offset `off`, each page trapping as for
    /// [`ClusterView::write`].
    pub fn write_bytes(&self, off: usize, data: &[u8]) {
        let p = self.span("write", off, data.len());
        compiler_fence(Ordering::SeqCst);
        // SAFETY: bounds asserted by `span`.
        unsafe { ptr::copy_nonoverlapping(data.as_ptr(), p, data.len()) };
    }

    // ---------------- host side ----------------

    /// Block until the application thread faults; `None` once
    /// [`ClusterView::stop`] has been called.
    pub fn next_fault(&self) -> Option<ViewFault> {
        let mut byte = [0u8; 1];
        // `read_exact` retries EINTR; EOF (write end closed) ends the
        // fault stream like an explicit stop.
        if (&self.pipe_r).read_exact(&mut byte).is_err() || byte[0] == STOP_BYTE {
            return None;
        }
        let off = self.shared.slot.off.load(Ordering::Acquire);
        let page = off / self.shared.page_size;
        let write = self.access(page) != ACC_NONE;
        Some(ViewFault { page, off, write })
    }

    /// The fault the application thread is parked in, if any, without
    /// blocking — for a host that has other sources to poll. Resolve it
    /// and call [`ClusterView::finish_fault`] before polling again.
    pub fn pending_fault(&self) -> Option<ViewFault> {
        // The handler stores SLOT_REQUESTED just before it writes the
        // pipe byte, so the read in `next_fault` returns at once.
        if self.shared.slot.status.load(Ordering::Acquire) != SLOT_REQUESTED {
            return None;
        }
        self.next_fault()
    }

    /// Resume the thread parked in the fault the host just resolved.
    pub fn finish_fault(&self) {
        self.shared.slot.status.store(SLOT_DONE, Ordering::Release);
        futex_wake_all(&self.shared.slot.status);
    }

    /// The host resolves no more faults: the one parked now and every
    /// later one go through on the memory as it stands.
    pub fn fail(&self) {
        let status = &self.shared.slot.status;
        status.store(SLOT_FAILED, Ordering::Release);
        futex_wake_all(status);
    }

    /// Whether [`ClusterView::fail`] was called.
    pub fn failed(&self) -> bool {
        self.shared.slot.status.load(Ordering::Acquire) == SLOT_FAILED
    }

    /// Unblock [`ClusterView::next_fault`] with `None` (host teardown).
    pub fn stop(&self) {
        send_byte(&self.shared, STOP_BYTE);
    }

    /// The pipe's read end: readable until each fault, ring and stop is taken.
    pub fn doorbell(&self) -> RawFd {
        self.pipe_r.as_raw_fd()
    }

    /// Wake the host for a request handed to it by other means.
    pub fn ring(&self) {
        send_byte(&self.shared, RING_BYTE);
    }

    /// Take one [`ClusterView::ring`]'s byte, once its request is held.
    pub fn answer(&self) {
        let mut byte = [0u8; 1];
        (&self.pipe_r).read_exact(&mut byte).expect("doorbell");
        debug_assert_eq!(byte[0], RING_BYTE, "a ring answered out of turn");
    }

    /// How many faults the signal handler has taken in this view.
    pub fn traps(&self) -> u64 {
        self.shared.traps.load(Ordering::Relaxed)
    }

    /// Current access level of `page` (one of [`ACC_NONE`],
    /// [`ACC_READ`], [`ACC_WRITE`]).
    pub fn access(&self, page: usize) -> u8 {
        self.shared.access[page].load(Ordering::Acquire)
    }

    /// Set `page`'s protection and recorded access level, keeping its
    /// current contents.
    pub fn set_access(&self, page: usize, acc: u8) {
        self.shared.set_access(page, acc);
    }

    /// Install `data` as `page`'s contents and set its access level.
    pub fn install_page(&self, page: usize, data: &[u8], acc: u8) {
        assert_eq!(data.len(), self.shared.page_size, "wrong page size");
        let at = self.shared.alias_at(page);
        // SAFETY: one page of the alias; host-side discipline rules out
        // a concurrent application store.
        unsafe { ptr::copy_nonoverlapping(data.as_ptr(), at, data.len()) };
        self.set_access(page, acc);
    }

    /// Copy `page`'s current contents out.
    pub fn snapshot_page(&self, page: usize, buf: &mut [u8]) {
        assert_eq!(buf.len(), self.shared.page_size, "wrong page size");
        let at = self.shared.alias_at(page);
        // SAFETY: one page of the alias, readable at any time.
        unsafe { ptr::copy_nonoverlapping(at, buf.as_mut_ptr(), buf.len()) };
    }

    /// Borrow `page`'s current contents in place (no copy).
    ///
    /// # Safety
    /// Nothing — application or host — may write `page` for as long as
    /// the borrow lives.
    pub(crate) unsafe fn page_bytes(&self, page: usize) -> &[u8] {
        let at = self.shared.alias_at(page);
        // SAFETY: one page of the alias; stability is the caller's
        // contract.
        unsafe { std::slice::from_raw_parts(at, self.shared.page_size) }
    }
}

impl Drop for ClusterView {
    fn drop(&mut self) {
        let raw = &*self.shared as *const ViewShared as *mut ViewShared;
        swap_slot(raw, ptr::null_mut());
        // See `SCANNING`: scans are a few hundred loads and never block.
        while SCANNING.load(Ordering::SeqCst) != 0 {
            std::thread::yield_now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    /// The view surfaces faults to a host thread, which resolves them
    /// exactly as a network runtime would: install the page read-only
    /// on a read fault, upgrade it on a write fault.
    #[test]
    fn faults_surface_and_resolve_through_the_host() {
        let ps = os_page_size();
        let view = ClusterView::new(4, ps).unwrap();
        let saw_write_fault = AtomicBool::new(false);
        std::thread::scope(|s| {
            let host = s.spawn(|| {
                while let Some(f) = view.next_fault() {
                    if f.write {
                        saw_write_fault.store(true, Ordering::Relaxed);
                        view.set_access(f.page, ACC_WRITE);
                    } else {
                        view.install_page(f.page, &vec![7u8; ps], ACC_READ);
                    }
                    view.finish_fault();
                }
            });

            // Cold read: one fault, page filled with 7s.
            assert_eq!(view.read::<u8>(1), 7);
            assert_eq!(view.access(0), ACC_READ);
            // Store to the now-readable page: one write fault.
            view.write::<u64>(8, 0xDEADBEEF);
            assert_eq!(view.read::<u64>(8), 0xDEADBEEF);
            assert_eq!(view.access(0), ACC_WRITE);
            assert!(saw_write_fault.load(Ordering::Relaxed));
            // Cold write to another page: two-fault upgrade.
            view.write::<u8>(2 * ps, 9);
            assert_eq!(view.access(2), ACC_WRITE);
            assert_eq!(view.read::<u8>(2 * ps), 9);
            assert_eq!(view.read::<u8>(2 * ps + 1), 7);

            // Host-side snapshot sees the application's bytes.
            let mut buf = vec![0u8; ps];
            view.snapshot_page(2, &mut buf);
            assert_eq!(buf[0], 9);
            assert_eq!(buf[1], 7);

            view.stop();
            host.join().unwrap();
        });
    }

    /// Unaligned and page-straddling typed accesses go byte-wise and
    /// trap per page.
    #[test]
    fn unaligned_access_straddles_pages() {
        let ps = os_page_size();
        let view = ClusterView::new(2, ps).unwrap();
        view.set_access(0, ACC_WRITE);
        view.set_access(1, ACC_WRITE);
        view.write::<u64>(ps - 3, 0x0102_0304_0506_0708);
        assert_eq!(view.read::<u64>(ps - 3), 0x0102_0304_0506_0708);
        assert_eq!(view.read::<u8>(ps - 3), 0x08);
        assert_eq!(view.read::<u8>(ps + 4), 0x01);
    }

    /// A check asks every page of the range for the right, and only a
    /// trap counts: a checked access that hits takes none, and a store
    /// to a read-only page takes one.
    #[test]
    fn grants_checks_every_page_and_only_traps_count() {
        let ps = os_page_size();
        let view = ClusterView::new(3, ps).unwrap();
        view.set_access(0, ACC_WRITE);
        view.set_access(1, ACC_READ);
        assert!(view.grants(ps - 4, 8, ACC_READ));
        assert!(!view.grants(ps - 4, 8, ACC_WRITE));
        assert!(view.grants(0, ps, ACC_WRITE));
        assert!(!view.grants(2 * ps - 1, 2, ACC_READ));
        assert!(view.grants(3 * ps, 0, ACC_WRITE));
        view.write::<u64>(8, 5);
        assert_eq!(view.read::<u64>(ps - 4), 0);
        assert_eq!(view.traps(), 0);
        std::thread::scope(|s| {
            let app = s.spawn(|| view.write::<u8>(ps, 1));
            let fault = loop {
                match view.pending_fault() {
                    Some(f) => break f,
                    None => std::thread::yield_now(),
                }
            };
            assert!(fault.write);
            view.set_access(1, ACC_WRITE);
            view.finish_fault();
            app.join().unwrap();
        });
        assert_eq!(view.traps(), 1);
    }

    #[test]
    #[should_panic(expected = "write [g:0xfffffffffffffffc, +8) out of bounds")]
    fn a_check_is_bounds_checked_as_its_access() {
        let view = ClusterView::new(1, os_page_size()).unwrap();
        view.grants(usize::MAX - 3, 8, ACC_WRITE);
    }

    /// `off + size` must not wrap its way past the bounds check.
    #[test]
    #[should_panic(expected = "read [g:0xfffffffffffffffc, +8) out of bounds")]
    fn read_near_usize_max_is_refused() {
        let view = ClusterView::new(1, os_page_size()).unwrap();
        view.read::<u64>(usize::MAX - 3);
    }

    #[test]
    #[should_panic(expected = "outside the view")]
    fn host_mutators_check_the_page_index() {
        let ps = os_page_size();
        let view = ClusterView::new(1, ps).unwrap();
        view.install_page(1, &vec![0u8; ps], ACC_READ);
    }

    /// A failed host leaves no access parked: the one parked now and
    /// every later one go through on the memory as it stands.
    #[test]
    fn a_failed_host_parks_no_access() {
        let ps = os_page_size();
        let view = ClusterView::new(2, ps).unwrap();
        std::thread::scope(|s| {
            let app = s.spawn(|| {
                view.write::<u64>(8, 5);
                view.read::<u64>(8) + view.read::<u64>(ps)
            });
            while view.pending_fault().is_none() {
                std::thread::yield_now();
            }
            assert!(!view.failed());
            view.fail();
            assert_eq!(app.join().unwrap(), 5);
        });
        assert!(view.failed());
    }

    /// A host that polls sees nothing until the application traps, then
    /// exactly that fault.
    #[test]
    fn pending_fault_polls_without_blocking() {
        let ps = os_page_size();
        let view = ClusterView::new(2, ps).unwrap();
        assert_eq!(view.pending_fault(), None);
        std::thread::scope(|s| {
            let app = s.spawn(|| view.read::<u8>(ps + 5));
            let fault = loop {
                match view.pending_fault() {
                    Some(f) => break f,
                    None => std::thread::yield_now(),
                }
            };
            assert_eq!(
                fault,
                ViewFault {
                    page: 1,
                    off: ps + 5,
                    write: false
                }
            );
            view.install_page(1, &vec![3u8; ps], ACC_READ);
            view.finish_fault();
            assert_eq!(app.join().unwrap(), 3);
        });
        assert_eq!(view.pending_fault(), None);
    }
}
