//! Hash maps keyed by page numbers (`dsm-mem` re-exports them) and by
//! the lock and barrier ids of `dsm-sync`, which sits below `dsm-mem`.
//!
//! Frame tables, directories and every per-page protocol table are
//! looked up on the hot path of each access, fault and barrier — and a
//! barrier release names hundreds of pages the receiver never held.
//! The standard library's default hasher (SipHash) is built to resist
//! keys crafted to collide, which page numbers — produced by this
//! program, never by an adversary — do not need, and it costs tens of
//! nanoseconds per lookup. [`PageMap`] is the same `HashMap` behind a
//! multiply-and-fold hasher: one multiplication per key word, and the
//! high half of the product folded onto the low half so that the
//! table's bucket index (its low bits) depends on every bit of the
//! key. Without the fold, page numbers with a stride of 2^k — the
//! pages one node of a block or cyclic placement holds — would share
//! their low bits and collapse into a few buckets.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` for keys made of page numbers (and other small
/// integers the program itself produces: interval sequence numbers,
/// node ids, lock and barrier ids). Build with `PageMap::default()`.
pub type PageMap<K, V> = HashMap<K, V, BuildHasherDefault<PageHasher>>;

/// The set counterpart of [`PageMap`].
pub type PageSet<K> = HashSet<K, BuildHasherDefault<PageHasher>>;

/// The hasher behind [`PageMap`]: multiply per word, fold at the end.
#[derive(Debug, Default, Clone, Copy)]
pub struct PageHasher(u64);

/// 2^64 / φ, odd: the usual Fibonacci-hashing multiplier.
const MUL: u64 = 0x9e37_79b9_7f4a_7c15;

impl PageHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(MUL);
    }
}

impl Hasher for PageHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<K: Hash>(k: K) -> u64 {
        BuildHasherDefault::<PageHasher>::default().hash_one(k)
    }

    /// Page numbers `i << s` — what a node holding every 2^s-th page
    /// looks up — must spread over the table's bucket index bits for
    /// every stride: no stride may collapse into a few buckets.
    #[test]
    fn power_of_two_strides_spread_over_the_low_hash_bits() {
        const KEYS: usize = 4096;
        for s in 0..=20 {
            let mut hit = vec![false; 1 << 12];
            for i in 0..KEYS {
                hit[(hash_of(i << s) & 0xfff) as usize] = true;
            }
            let buckets = hit.iter().filter(|&&h| h).count();
            // 4096 keys thrown at random into 4096 buckets fill about
            // 63 % of them (the folded product: 46 % at worst); without
            // the fold, stride 2^4 fills 6 % and 2^12 a single bucket.
            assert!(
                buckets >= KEYS / 3,
                "stride 2^{s}: {KEYS} keys fell into {buckets} of 4096 buckets"
            );
        }
    }

    /// hashbrown tags each slot with the hash's top seven bits; they
    /// must vary too, or every probe compares full keys.
    #[test]
    fn strides_also_vary_the_top_bits() {
        for s in 0..=20 {
            let mut tags = [false; 128];
            for i in 0..4096usize {
                tags[(hash_of(i << s) >> 57) as usize] = true;
            }
            assert!(tags.iter().filter(|&&t| t).count() >= 64, "stride 2^{s}");
        }
    }

    #[test]
    fn composite_keys_depend_on_every_field() {
        let a = hash_of((3usize, 7u32));
        assert_ne!(a, hash_of((3usize, 8u32)));
        assert_ne!(a, hash_of((4usize, 7u32)));
        assert_ne!(a, hash_of((7usize, 3u32)));
        assert_eq!(a, hash_of((3usize, 7u32)));
    }
}
