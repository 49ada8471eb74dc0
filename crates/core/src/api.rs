//! The application-facing DSM handle: typed reads/writes on the global
//! shared space, synchronization, and local computation — written once
//! over an [`Engine`], the machine under the program.
//!
//! Two engines implement it. [`Sim`] runs the program in the simulator:
//! every access first tries the node's [`Lease`] — the zero-rendezvous
//! hit fast path that reads and writes resident pages directly on the
//! application thread, charging the modeled cost against the kernel's
//! run-ahead budget — and faults, sync ops and budget exhaustion fall
//! back to the rendezvous op path, so timing and outputs are unchanged;
//! only the real-time cost of a hit shrinks. [`crate::cluster::Cluster`]
//! runs it on real pages: an access is a load or store on the node's
//! view, and a sync op runs on the node's runtime.

use crate::lease::Lease;
use crate::node::{DsmOp, OpBuf, OpData};
use dsm_mem::GlobalAddr;
use dsm_net::{AppHandle, Dur, NodeId, SimTime};
use dsm_sync::{BarrierId, LockId};
use std::cell::Cell;
use std::marker::PhantomData;

/// A declared read-ahead window: `(start, len)`.
pub type Window = Option<(GlobalAddr, usize)>;

/// The machine a [`Dsm`] program runs on: the primitives the handle's
/// whole vocabulary is written over.
pub trait Engine {
    /// This node's id.
    fn id(&self) -> NodeId;

    /// Number of nodes in the run.
    fn nodes(&self) -> u32;

    /// Copy `buf.len()` bytes at `addr` into `buf`, faulting as needed;
    /// `window` is the read-ahead window in effect.
    fn read(&self, addr: GlobalAddr, buf: &mut [u8], window: Window);

    /// Lend the `len` bytes at `addr` to `f`, faulting as needed. The
    /// default reads them into a buffer; an engine may lend its own
    /// memory instead.
    fn read_with<R>(
        &self,
        addr: GlobalAddr,
        len: usize,
        window: Window,
        f: impl FnOnce(&[u8]) -> R,
    ) -> R {
        let mut buf = vec![0u8; len];
        self.read(addr, &mut buf, window);
        f(&buf)
    }

    /// Copy `data` to `addr`, faulting as needed.
    fn write(&self, addr: GlobalAddr, data: &[u8]);

    /// Load the little-endian u64 at `addr`.
    fn read_u64(&self, addr: GlobalAddr, window: Window) -> u64 {
        let mut b = [0u8; 8];
        self.read(addr, &mut b, window);
        u64::from_le_bytes(b)
    }

    /// Store `v` little-endian at `addr`.
    fn write_u64(&self, addr: GlobalAddr, v: u64) {
        self.write(addr, &v.to_le_bytes());
    }

    /// Run an acquire, release or barrier to its end.
    fn sync(&self, op: DsmOp);

    /// Account for `d` of pure local computation.
    fn compute(&self, d: Dur);
}

/// The simulator engine: one node's program in [`dsm_net::Sim`], its
/// hits served by its [`Lease`] when the fast path is on.
pub struct Sim<'a> {
    h: &'a AppHandle<DsmOp, ()>,
    lease: Option<Lease>,
    /// A read hit is lent to a closure (see [`Sim::not_lent`]).
    lent: Cell<bool>,
}

impl<'a> Sim<'a> {
    pub(crate) fn new(h: &'a AppHandle<DsmOp, ()>, lease: Option<Lease>) -> Self {
        Sim {
            h,
            lease,
            lent: Cell::new(false),
        }
    }

    /// Refuse `call` while a read hit is lent: the call could yield the
    /// floor, and the event loop evict the frame under the borrow.
    #[inline]
    fn not_lent(&self, call: &str) {
        assert!(
            !self.lent.get(),
            "{call} inside a lent read: a read_*_with closure must not call its handle"
        );
    }
}

impl Engine for Sim<'_> {
    fn id(&self) -> NodeId {
        self.h.id()
    }

    fn nodes(&self) -> u32 {
        self.h.nodes()
    }

    fn read(&self, addr: GlobalAddr, buf: &mut [u8], window: Window) {
        self.not_lent("read");
        if let Some(lease) = &self.lease {
            if lease.try_read(self.h, addr, buf) {
                return;
            }
        }
        self.h.op(DsmOp::Read {
            addr,
            buf: OpBuf::new(buf),
            hint: window,
        });
    }

    /// A hit inside one page lends the frame's bytes; anything else
    /// reads into a buffer through [`Engine::read`]. A declined lend
    /// changed nothing a second try sees (its budget renewal is done),
    /// so every virtual time is what a copying read gives.
    fn read_with<R>(
        &self,
        addr: GlobalAddr,
        len: usize,
        window: Window,
        f: impl FnOnce(&[u8]) -> R,
    ) -> R {
        self.not_lent("read");
        let (mut f, mut out) = (Some(f), None);
        if let Some(lease) = self.lease.as_ref().filter(|l| l.one_page(addr, len)) {
            let hit = lease.lend(self.h, addr, len, |row| {
                self.lent.set(true);
                out = f.take().map(|f| f(row));
                self.lent.set(false);
            });
            if hit {
                return out.expect("a hit in one page lends it once");
            }
        }
        let mut buf = vec![0u8; len];
        self.read(addr, &mut buf, window);
        f.take().expect("a declined lend lends nothing")(&buf)
    }

    /// The payload is borrowed for the duration of the op, never copied
    /// into it.
    fn write(&self, addr: GlobalAddr, data: &[u8]) {
        self.not_lent("write");
        if let Some(lease) = &self.lease {
            if lease.try_write(self.h, addr, data) {
                return;
            }
        }
        self.h.op(DsmOp::Write {
            addr,
            data: OpData::new(data),
        });
    }

    fn sync(&self, op: DsmOp) {
        self.not_lent(match op {
            DsmOp::Acquire(_) => "acquire",
            DsmOp::Release(_) => "release",
            _ => "barrier",
        });
        self.h.op(op);
    }

    /// Advance this node's virtual time by `d`.
    fn compute(&self, d: Dur) {
        self.not_lent("compute");
        self.h.advance(d);
    }
}

/// A node program's view of the distributed shared memory, on engine
/// `E`: the simulator's by default, [`crate::ClusterDsm`] on real pages.
///
/// On the simulator every method advances virtual time according to
/// the protocol and cost model in effect, and heavy local computation
/// must be modeled explicitly with [`Dsm::compute`].
pub struct Dsm<'a, E = Sim<'a>> {
    pub(crate) engine: E,
    /// Declared read-ahead window, attached to every read while a
    /// [`Dsm::prefetch_window`] guard lives.
    hint: Cell<Window>,
    /// `'a` is the default engine's lifetime.
    _engine: PhantomData<&'a ()>,
}

impl Dsm<'_> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.engine.not_lent("now");
        self.engine.h.now()
    }

    // ---------- object-granularity access ----------
    //
    // Only valid on protocols with object support (`ProtocolKind::Obj`);
    // the object table is supplied via `DsmConfig::objects`. These
    // bypass the page lease entirely — object images live protocol-side,
    // not in page frames.

    /// Fetch the current image of object `obj` into `buf`
    /// (`buf.len()` must equal the object's registered length). With
    /// `write = true` this also acquires ownership and pins the object
    /// locally; it must then be released with [`Dsm::obj_put_bytes`].
    pub fn obj_get_bytes(&self, obj: u32, write: bool, buf: &mut [u8]) {
        self.engine.not_lent("obj_get_bytes");
        self.engine.h.op(DsmOp::ObjGet {
            obj,
            write,
            buf: OpBuf::new(buf),
        });
    }

    /// Publish the mutated image of an object previously fetched with
    /// `obj_get_bytes(obj, true, ..)`, releasing the local pin.
    pub fn obj_put_bytes(&self, obj: u32, data: &[u8]) {
        self.engine.not_lent("obj_put_bytes");
        self.engine.h.op(DsmOp::ObjPut {
            obj,
            data: OpData::new(data),
        });
    }
}

impl<E: Engine> Dsm<'_, E> {
    /// The handle over `engine` — one that may wrap a program's own
    /// handle, as a recorder does.
    pub fn new(engine: E) -> Self {
        Dsm {
            engine,
            hint: Cell::new(None),
            _engine: PhantomData,
        }
    }

    /// Declare `[addr, addr + len)` as a sequential read-ahead window
    /// for the returned guard's lifetime: while it lives, a read miss
    /// inside the window lets the runtime offer the window's following
    /// pages to the protocol as prefetch candidates, batching up to
    /// `DsmConfig::batch_depth` page faults into one rendezvous.
    /// Purely advisory — results are identical with or without windows,
    /// and at batch depth 1 (and on real pages) they are ignored.
    ///
    /// Dropping the guard restores the window that was active when it
    /// was opened, so windows nest naturally:
    ///
    /// ```ignore
    /// let _w = dsm.prefetch_window(row_addr, row_bytes);
    /// for j in 0..n { sum += dsm.read_f64(row_addr.offset(j * 8)); }
    /// // window closes here
    /// ```
    #[must_use = "the window closes when the guard drops"]
    pub fn prefetch_window(&self, addr: GlobalAddr, len: usize) -> PrefetchWindow<'_> {
        let prev = self.hint.replace(Some((addr, len)));
        PrefetchWindow {
            hint: &self.hint,
            prev,
        }
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.engine.id()
    }

    /// Number of nodes in the run.
    pub fn nodes(&self) -> u32 {
        self.engine.nodes()
    }

    /// Model `d` of pure local computation (nothing on real pages,
    /// where computing takes its own time).
    pub fn compute(&self, d: Dur) {
        self.engine.compute(d);
    }

    // ---------- raw byte access ----------

    /// Read `len` bytes at `addr` into a fresh vector (faults as
    /// needed). Prefer [`Dsm::read_bytes_into`] in hot loops.
    pub fn read_bytes(&self, addr: GlobalAddr, len: usize) -> Vec<u8> {
        let mut buf = vec![0u8; len];
        self.read_bytes_into(addr, &mut buf);
        buf
    }

    /// Read `buf.len()` bytes at `addr` into `buf` without allocating.
    pub fn read_bytes_into(&self, addr: GlobalAddr, buf: &mut [u8]) {
        self.engine.read(addr, buf, self.hint.get());
    }

    /// Write `data` at `addr` (faults as needed).
    pub fn write_bytes(&self, addr: GlobalAddr, data: &[u8]) {
        self.engine.write(addr, data);
    }

    // ---------- typed scalar access ----------

    pub fn read_u64(&self, addr: GlobalAddr) -> u64 {
        self.engine.read_u64(addr, self.hint.get())
    }

    pub fn write_u64(&self, addr: GlobalAddr, v: u64) {
        self.engine.write_u64(addr, v);
    }

    pub fn read_f64(&self, addr: GlobalAddr) -> f64 {
        f64::from_bits(self.read_u64(addr))
    }

    pub fn write_f64(&self, addr: GlobalAddr, v: f64) {
        self.write_u64(addr, v.to_bits());
    }

    // ---------- typed slice access ----------
    //
    // The shared space stores scalars little-endian, the host's own
    // order (the runtime builds only for x86-64 Linux), so these copy
    // straight between the typed slice and frame memory.

    /// Read `out.len()` consecutive u64 values at `addr` into `out`.
    pub fn read_u64s_into(&self, addr: GlobalAddr, out: &mut [u64]) {
        // SAFETY: u64 has no invalid bit patterns and the byte length
        // matches exactly.
        let bytes =
            unsafe { std::slice::from_raw_parts_mut(out.as_mut_ptr() as *mut u8, out.len() * 8) };
        self.read_bytes_into(addr, bytes);
    }

    /// Write consecutive u64 values starting at `addr`.
    pub fn write_u64s(&self, addr: GlobalAddr, vals: &[u64]) {
        // SAFETY: reading a u64 slice as bytes is always valid.
        let bytes =
            unsafe { std::slice::from_raw_parts(vals.as_ptr() as *const u8, vals.len() * 8) };
        self.write_bytes(addr, bytes);
    }

    /// Read `n` consecutive u64 values starting at `addr`.
    pub fn read_u64s(&self, addr: GlobalAddr, n: usize) -> Vec<u64> {
        let mut out = vec![0u64; n];
        self.read_u64s_into(addr, &mut out);
        out
    }

    /// Read `out.len()` consecutive f64 values at `addr` into `out`.
    pub fn read_f64s_into(&self, addr: GlobalAddr, out: &mut [f64]) {
        // SAFETY: f64 has no invalid bit patterns and the byte length
        // matches exactly.
        let bytes =
            unsafe { std::slice::from_raw_parts_mut(out.as_mut_ptr() as *mut u8, out.len() * 8) };
        self.read_bytes_into(addr, bytes);
    }

    /// Write consecutive f64 values starting at `addr`.
    pub fn write_f64s(&self, addr: GlobalAddr, vals: &[f64]) {
        // SAFETY: reading an f64 slice as bytes is always valid.
        let bytes =
            unsafe { std::slice::from_raw_parts(vals.as_ptr() as *const u8, vals.len() * 8) };
        self.write_bytes(addr, bytes);
    }

    /// Read `n` consecutive f64 values starting at `addr`.
    pub fn read_f64s(&self, addr: GlobalAddr, n: usize) -> Vec<f64> {
        let mut out = vec![0.0f64; n];
        self.read_f64s_into(addr, &mut out);
        out
    }

    /// Hand `f` the `n` consecutive f64 values at `addr` and return what
    /// it returns. On the simulator a hit inside one page lends `f` the
    /// frame's own bytes, at the cost of a copy; any other read copies
    /// them into a buffer first. `f` must not call this handle: it
    /// panics, naming the call.
    pub fn read_f64s_with<R>(&self, addr: GlobalAddr, n: usize, f: impl FnOnce(&[f64]) -> R) -> R {
        self.engine
            .read_with(addr, n * 8, self.hint.get(), |bytes| {
                // SAFETY: f64 has no invalid bit patterns.
                match unsafe { bytes.align_to::<f64>() } {
                    ([], row, []) => f(row),
                    _ => f(&bytes
                        .chunks_exact(8)
                        .map(|b| f64::from_le_bytes(b.try_into().expect("chunks of eight")))
                        .collect::<Vec<_>>()),
                }
            })
    }

    // ---------- synchronization ----------

    /// Acquire a mutual-exclusion lock (a consistency acquire point).
    pub fn acquire(&self, lock: LockId) {
        self.engine.sync(DsmOp::Acquire(lock));
    }

    /// Release a lock (a consistency release point).
    pub fn release(&self, lock: LockId) {
        self.engine.sync(DsmOp::Release(lock));
    }

    /// Run `f` under `lock`.
    pub fn with_lock<T>(&self, lock: LockId, f: impl FnOnce(&Self) -> T) -> T {
        self.acquire(lock);
        let out = f(self);
        self.release(lock);
        out
    }

    /// Wait until all nodes reach barrier `id` (a global consistency
    /// point for most protocols).
    pub fn barrier(&self, id: BarrierId) {
        self.engine.sync(DsmOp::Barrier(id));
    }
}

/// RAII guard for a declared read-ahead window (see
/// [`Dsm::prefetch_window`]). Dropping it restores the previously
/// active window, so nested guards unwind like a stack.
#[must_use = "the window closes when the guard drops"]
pub struct PrefetchWindow<'d> {
    hint: &'d Cell<Window>,
    prev: Window,
}

impl Drop for PrefetchWindow<'_> {
    fn drop(&mut self) {
        self.hint.set(self.prev);
    }
}
