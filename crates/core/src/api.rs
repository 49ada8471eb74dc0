//! The application-facing DSM handle: typed reads/writes on the global
//! shared space, synchronization, and modeled local computation.
//!
//! Every access first tries the node's [`Lease`] — the zero-rendezvous
//! hit fast path that reads and writes resident pages directly on the
//! application thread, charging the modeled cost against the kernel's
//! run-ahead budget. Faults, sync ops, and budget exhaustion fall back
//! to the rendezvous op path, so timing and outputs are unchanged;
//! only the real-time cost of a hit shrinks.

use crate::lease::Lease;
use crate::node::{DsmOp, OpBuf, OpData};
use dsm_mem::GlobalAddr;
use dsm_net::{AppHandle, Dur, NodeId, SimTime};
use dsm_sync::{BarrierId, LockId};
use std::cell::Cell;

/// A node program's view of the distributed shared memory.
///
/// All methods advance virtual time according to the protocol and cost
/// model in effect; heavy local computation must be modeled explicitly
/// with [`Dsm::compute`].
pub struct Dsm<'a> {
    h: &'a AppHandle<DsmOp, ()>,
    lease: Option<Lease>,
    /// Declared read-ahead window, attached to every read op while a
    /// [`Dsm::prefetch_window`] guard lives.
    hint: Cell<Option<(GlobalAddr, usize)>>,
}

impl<'a> Dsm<'a> {
    pub(crate) fn with_lease(h: &'a AppHandle<DsmOp, ()>, lease: Option<Lease>) -> Self {
        Dsm {
            h,
            lease,
            hint: Cell::new(None),
        }
    }

    /// Declare `[addr, addr + len)` as a sequential read-ahead window
    /// for the returned guard's lifetime: while it lives, a read miss
    /// inside the window lets the runtime offer the window's following
    /// pages to the protocol as prefetch candidates, batching up to
    /// `DsmConfig::batch_depth` page faults into one rendezvous.
    /// Purely advisory — results are identical with or without windows,
    /// and at batch depth 1 they are ignored.
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
    pub fn prefetch_window(&self, addr: GlobalAddr, len: usize) -> PrefetchWindow<'_, 'a> {
        let prev = self.hint.replace(Some((addr, len)));
        PrefetchWindow { dsm: self, prev }
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.h.id()
    }

    /// Number of nodes in the run.
    pub fn nodes(&self) -> u32 {
        self.h.nodes()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.h.now()
    }

    /// Model `d` of pure local computation.
    pub fn compute(&self, d: Dur) {
        self.h.advance(d);
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
        if let Some(lease) = &self.lease {
            if lease.try_read(self.h, addr, buf) {
                return;
            }
        }
        self.h.op(DsmOp::Read {
            addr,
            buf: OpBuf::new(buf),
            hint: self.hint.get(),
        });
    }

    /// Write `data` at `addr` (faults as needed). The payload is
    /// borrowed for the duration of the op, never copied into it.
    pub fn write_bytes(&self, addr: GlobalAddr, data: &[u8]) {
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

    // ---------- typed scalar access ----------

    pub fn read_u64(&self, addr: GlobalAddr) -> u64 {
        let mut b = [0u8; 8];
        self.read_bytes_into(addr, &mut b);
        u64::from_le_bytes(b)
    }

    pub fn write_u64(&self, addr: GlobalAddr, v: u64) {
        self.write_bytes(addr, &v.to_le_bytes());
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
        self.h.op(DsmOp::ObjGet {
            obj,
            write,
            buf: OpBuf::new(buf),
        });
    }

    /// Publish the mutated image of an object previously fetched with
    /// `obj_get_bytes(obj, true, ..)`, releasing the local pin.
    pub fn obj_put_bytes(&self, obj: u32, data: &[u8]) {
        self.h.op(DsmOp::ObjPut {
            obj,
            data: OpData::new(data),
        });
    }

    // ---------- synchronization ----------

    /// Acquire a mutual-exclusion lock (a consistency acquire point).
    pub fn acquire(&self, lock: LockId) {
        self.h.op(DsmOp::Acquire(lock));
    }

    /// Release a lock (a consistency release point).
    pub fn release(&self, lock: LockId) {
        self.h.op(DsmOp::Release(lock));
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
        self.h.op(DsmOp::Barrier(id));
    }

    /// Poll `addr` until the stored u64 satisfies `pred`, spinning with
    /// `poll` of modeled delay between probes (the classic DSM flag
    /// spin: local once the copy is cached, refreshed by the coherence
    /// protocol). Under the fast path the spin consumes run-ahead
    /// budget and yields to the kernel on exhaustion, so invalidations
    /// still land.
    pub fn spin_u64_until(&self, addr: GlobalAddr, poll: Dur, pred: impl Fn(u64) -> bool) -> u64 {
        loop {
            let v = self.read_u64(addr);
            if pred(v) {
                return v;
            }
            self.compute(poll);
        }
    }
}

/// RAII guard for a declared read-ahead window (see
/// [`Dsm::prefetch_window`]). Dropping it restores the previously
/// active window, so nested guards unwind like a stack.
#[must_use = "the window closes when the guard drops"]
pub struct PrefetchWindow<'d, 'a> {
    dsm: &'d Dsm<'a>,
    prev: Option<(GlobalAddr, usize)>,
}

impl Drop for PrefetchWindow<'_, '_> {
    fn drop(&mut self) {
        self.dsm.hint.set(self.prev);
    }
}
