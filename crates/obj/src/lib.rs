//! # dsm-obj — typed objects over the DSM global address space
//!
//! The page substrate shares a flat byte array; this crate layers a
//! *typed allocation* view on top of it for the object-granularity
//! protocol (`ProtocolKind::Obj`):
//!
//! * [`DsmHeap`] carves per-node object arenas out of the global space
//!   (a bump allocator with alignment), registering each allocation's
//!   `(address, length, home)` in an [`ObjTable`];
//! * [`DsmBox<T>`] names one allocated object — a `Copy` handle, not
//!   the data;
//! * [`DsmBox::get`] yields a [`DsmRef<T>`] (a read-only snapshot,
//!   replicated from the current owner), and [`DsmBox::get_mut`] a
//!   [`DsmMut<T>`] (exclusive ownership of exactly that object,
//!   transferred in one message); dropping the `DsmMut` publishes the
//!   mutated image.
//!
//! `T` must be [`Pod`]: plain old data that can cross the (simulated)
//! wire as raw bytes. The build runs fully offline, so the bound is a
//! local `unsafe` trait rather than an external derive crate.
//!
//! Allocation happens *before* the run (the table is immutable and
//! shared by every node), mirroring how the experiments lay out page
//! data statically.

#![deny(clippy::undocumented_unsafe_blocks)]
use dsm_core::Dsm;
use dsm_mem::{GlobalAddr, ObjRecord, ObjTable};
use dsm_net::NodeId;
use std::marker::PhantomData;
use std::sync::Arc;

/// Plain-old-data marker for objects in the shared space.
///
/// # Safety
///
/// Implementors must guarantee that `T`:
/// * contains no padding bytes (every byte of the representation is
///   initialized), and
/// * is valid for **any** bit pattern (so a zeroed or wire-received
///   image is a valid value).
///
/// This rules out `bool`, `char`, enums, and references; integers,
/// floats, and arrays/`#[repr(C)]` structs thereof (without padding)
/// are fine.
pub unsafe trait Pod: Copy + 'static {}

macro_rules! impl_pod {
    ($($t:ty),*) => { $(
        // SAFETY: a primitive integer or float has no padding, and every
        // bit pattern of its size is a valid value.
        unsafe impl Pod for $t {}
    )* };
}
impl_pod!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize, f32, f64);
// SAFETY: an array has no padding between its elements, and its bit
// patterns are the elements' ones, each valid because `T` is `Pod`.
unsafe impl<T: Pod, const N: usize> Pod for [T; N] {}

/// View a Pod value as its raw bytes.
fn bytes_of<T: Pod>(v: &T) -> &[u8] {
    // SAFETY: Pod guarantees no padding, so every byte is initialized.
    unsafe { std::slice::from_raw_parts(v as *const T as *const u8, std::mem::size_of::<T>()) }
}

/// A zeroed Pod value (valid per the Pod contract) and a mutable byte
/// view of it, for filling from the shared space.
fn read_into<T: Pod>(dsm: &Dsm<'_>, obj: u32, write: bool) -> T {
    // SAFETY: Pod guarantees all-zeroes is a valid T.
    let mut val: T = unsafe { std::mem::zeroed() };
    // SAFETY: plain byte view of a live stack value; Pod means any
    // pattern the fetch writes is valid.
    let buf = unsafe {
        std::slice::from_raw_parts_mut(&mut val as *mut T as *mut u8, std::mem::size_of::<T>())
    };
    dsm.obj_get_bytes(obj, write, buf);
    val
}

/// Bump-allocator over the global space: one arena per node, objects
/// homed where they are allocated.
#[derive(Debug)]
pub struct DsmHeap {
    table: ObjTable,
    arenas: Vec<Arena>,
}

#[derive(Debug)]
struct Arena {
    cursor: usize,
    end: usize,
}

impl DsmHeap {
    /// Carve `total_bytes` of global space (starting at address 0) into
    /// equal per-node arenas. The heap's extent must fit inside the
    /// run's `heap_bytes`; page workloads sharing a run must stay
    /// outside it.
    pub fn new(total_bytes: usize, nnodes: u32) -> Self {
        assert!(nnodes > 0);
        let share = total_bytes / nnodes as usize;
        assert!(share > 0, "heap too small for {nnodes} arenas");
        let arenas = (0..nnodes as usize)
            .map(|i| Arena {
                cursor: i * share,
                end: (i + 1) * share,
            })
            .collect();
        DsmHeap {
            table: ObjTable::new(),
            arenas,
        }
    }

    /// Allocate `len` bytes aligned to `align` in `home`'s arena;
    /// returns the object id. Panics if the arena is exhausted.
    pub fn alloc_raw(&mut self, len: usize, align: usize, home: NodeId) -> u32 {
        assert!(len > 0, "zero-sized objects are not shareable");
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let arena = &mut self.arenas[home.index()];
        let addr = arena.cursor.next_multiple_of(align);
        assert!(
            addr + len <= arena.end,
            "arena of {home} exhausted: need {len} bytes at {addr}, arena ends at {}",
            arena.end
        );
        arena.cursor = addr + len;
        self.table.push(ObjRecord {
            addr: GlobalAddr(addr),
            len,
            home,
        })
    }

    /// Allocate one `T` homed at `home`.
    pub fn alloc<T: Pod>(&mut self, home: NodeId) -> DsmBox<T> {
        let id = self.alloc_raw(std::mem::size_of::<T>(), std::mem::align_of::<T>(), home);
        DsmBox {
            id,
            _t: PhantomData,
        }
    }

    /// Number of objects allocated so far.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// The layout record of object `id`.
    pub fn record(&self, id: u32) -> &ObjRecord {
        self.table.get(id)
    }

    /// Snapshot the layout table for `DsmConfig::objects`.
    pub fn table(&self) -> Arc<ObjTable> {
        Arc::new(self.table.clone())
    }
}

/// A typed handle to one shared object: 4 bytes, `Copy`, freely
/// passable between node programs (the data stays in the DSM).
pub struct DsmBox<T> {
    id: u32,
    _t: PhantomData<fn() -> T>,
}

impl<T> Clone for DsmBox<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for DsmBox<T> {}

impl<T> std::fmt::Debug for DsmBox<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DsmBox#{}", self.id)
    }
}

impl<T: Pod> DsmBox<T> {
    /// Rebuild a handle from a raw object id (e.g. one read out of
    /// another shared object — this is how linked structures work).
    pub fn from_raw(id: u32) -> Self {
        DsmBox {
            id,
            _t: PhantomData,
        }
    }

    /// The raw object id (storable inside other Pod objects).
    pub fn id(self) -> u32 {
        self.id
    }

    /// Read-only snapshot of the object's current value, replicated
    /// from the owner (a local hit once replicated, until the next
    /// synchronization entry drops replicas).
    pub fn get(self, dsm: &Dsm<'_>) -> DsmRef<T> {
        DsmRef {
            val: read_into(dsm, self.id, false),
        }
    }

    /// Acquire the object for mutation: ownership of exactly this
    /// object transfers here (one message — no page invalidation
    /// anywhere). The mutated value publishes when the guard drops.
    pub fn get_mut<'d, 'a>(self, dsm: &'d Dsm<'a>) -> DsmMut<'d, 'a, T> {
        DsmMut {
            dsm,
            id: self.id,
            val: read_into(dsm, self.id, true),
        }
    }
}

/// A by-value snapshot of a shared object (see [`DsmBox::get`]).
#[derive(Debug, Clone, Copy)]
pub struct DsmRef<T> {
    val: T,
}

impl<T> std::ops::Deref for DsmRef<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.val
    }
}

impl<T: Pod> DsmRef<T> {
    /// Unwrap the snapshot.
    pub fn into_inner(self) -> T {
        self.val
    }
}

/// Exclusive write access to a shared object (see [`DsmBox::get_mut`]).
/// The object is owned and pinned locally while this guard lives;
/// dropping it publishes the (possibly mutated) image and lets queued
/// remote requests drain.
pub struct DsmMut<'d, 'a, T: Pod> {
    dsm: &'d Dsm<'a>,
    id: u32,
    val: T,
}

impl<T: Pod> std::ops::Deref for DsmMut<'_, '_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.val
    }
}

impl<T: Pod> std::ops::DerefMut for DsmMut<'_, '_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.val
    }
}

impl<T: Pod> Drop for DsmMut<'_, '_, T> {
    fn drop(&mut self) {
        self.dsm.obj_put_bytes(self.id, bytes_of(&self.val));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_core::{DsmConfig, ProtocolKind};

    #[test]
    fn heap_allocates_aligned_disjoint_objects_per_home_arena() {
        let mut h = DsmHeap::new(1 << 12, 4);
        let a = h.alloc_raw(24, 8, NodeId(0));
        let b = h.alloc_raw(100, 64, NodeId(0));
        let c = h.alloc_raw(8, 8, NodeId(3));
        assert_eq!(h.record(a).addr, GlobalAddr(0));
        assert_eq!(h.record(b).addr, GlobalAddr(64)); // aligned past 24
        assert_eq!(h.record(c).addr, GlobalAddr(3 * (1 << 10)));
        assert_eq!(h.record(c).home, NodeId(3));
        assert_eq!(h.len(), 3);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn heap_panics_when_an_arena_overflows() {
        let mut h = DsmHeap::new(256, 2); // 128 bytes per arena
        h.alloc_raw(100, 8, NodeId(0));
        h.alloc_raw(100, 8, NodeId(0));
    }

    /// Seeded xorshift64*; no external RNG crates offline.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545F4914F6CDD1D)
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    #[test]
    fn property_random_allocations_never_overlap_or_escape_their_arena() {
        // Satellite acceptance: at random sizes/alignments, DsmHeap
        // never hands out overlapping objects and never crosses arena
        // bounds. Seeded, so failures reproduce.
        for seed in [1u64, 42, 0xDEADBEEF] {
            let mut rng = Rng(seed);
            let nnodes = 4u32;
            let total = 1usize << 16;
            let share = total / nnodes as usize;
            let mut h = DsmHeap::new(total, nnodes);
            let mut placed: Vec<(usize, usize, u32)> = Vec::new(); // (addr, len, home)
            loop {
                let len = 1 + rng.below(512) as usize;
                let align = 1usize << rng.below(8); // 1..=128
                let home = NodeId(rng.below(nnodes as u64) as u32);
                // Stop when this arena can no longer fit a worst-case
                // allocation; keep going elsewhere a bit.
                if h.arenas[home.index()].cursor + len + align > h.arenas[home.index()].end {
                    if placed.len() > 200 {
                        break;
                    }
                    continue;
                }
                let id = h.alloc_raw(len, align, home);
                let rec = *h.record(id);
                assert_eq!(rec.len, len);
                assert_eq!(rec.home, home);
                assert_eq!(rec.addr.0 % align, 0, "misaligned allocation");
                // Inside the home's arena...
                let lo = home.index() * share;
                let hi = lo + share;
                assert!(
                    rec.addr.0 >= lo && rec.addr.0 + rec.len <= hi,
                    "object [{}, +{}) escaped arena [{lo}, {hi}) of {home}",
                    rec.addr.0,
                    rec.len
                );
                // ...and disjoint from everything allocated so far.
                for &(a, l, _) in &placed {
                    assert!(
                        rec.addr.0 + rec.len <= a || a + l <= rec.addr.0,
                        "object [{}, +{}) overlaps [{a}, +{l})",
                        rec.addr.0,
                        rec.len
                    );
                }
                placed.push((rec.addr.0, rec.len, home.0));
            }
            assert!(placed.len() > 200, "seed {seed}: too few allocations");
        }
    }

    #[test]
    fn boxes_round_trip_through_a_live_dsm() {
        let mut heap = DsmHeap::new(1 << 12, 2);
        let a: DsmBox<u64> = heap.alloc(NodeId(0));
        let b: DsmBox<[u64; 4]> = heap.alloc(NodeId(1));
        let cfg = DsmConfig::new(2, ProtocolKind::Obj)
            .heap_bytes(1 << 14)
            .page_size(256)
            .objects(heap.table());
        let res = dsm_core::run_dsm(&cfg, move |dsm| {
            if dsm.id().0 == 0 {
                *a.get_mut(dsm) = 41;
                let mut arr = b.get_mut(dsm);
                arr[2] = 7;
            }
            dsm.barrier(0);
            if dsm.id().0 == 1 {
                let mut v = a.get_mut(dsm);
                *v += 1;
            }
            dsm.barrier(1);
            (*a.get(dsm), b.get(dsm)[2])
        });
        assert_eq!(res.results, vec![(42, 7), (42, 7)]);
    }
}
