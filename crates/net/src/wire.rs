//! Hand-rolled wire (de)serialization for the socket transport.
//!
//! The simulator never serializes anything — messages move between
//! nodes as Rust values. Real sockets need bytes, so every payload that
//! can cross a UDP datagram implements [`Wire`]: a compact
//! little-endian, length-prefixed encoding with no external
//! dependencies (the build is fully offline). Each composite type's
//! impl lives next to its definition, so private fields stay private.
//! Message enums are declared through [`wire_enum!`](crate::wire_enum),
//! which derives the whole impl from one table.
//!
//! The format is not self-describing and carries no versioning — both
//! ends of a cluster run the same binary (the launcher spawns them from
//! one executable), which is the same compatibility contract the
//! in-process engine has.

use crate::msg::NodeId;
use crate::time::{Dur, SimTime};

/// How deep message enums may nest inside one datagram. The deepest
/// legitimate chain is 5 (`RelMsg → CoreMsg → SyncMsg → Piggy::Obj →
/// Piggy`); without a bound, a datagram of nested `Batch` tags recurses
/// `decode` until the stack overflows.
const MAX_ENUM_DEPTH: u8 = 8;

/// Cursor over a received datagram.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// [`wire_enum!`](crate::wire_enum) decodes currently on the stack.
    depth: u8,
}

impl<'a> WireReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader {
            buf,
            pos: 0,
            depth: 0,
        }
    }

    /// Enter one level of enum nesting; `None` once the datagram nests
    /// deeper than any real message does. Every generated `decode`
    /// brackets its body with `enter` / [`WireReader::leave`].
    pub fn enter(&mut self) -> Option<()> {
        if self.depth == MAX_ENUM_DEPTH {
            return None;
        }
        self.depth += 1;
        Some(())
    }

    /// Leave the level [`WireReader::enter`] opened. A failed decode
    /// never gets here: it abandons the whole datagram.
    pub fn leave(&mut self) {
        self.depth -= 1;
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.remaining() < n {
            return None;
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Some(s)
    }

    pub fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    pub fn u16(&mut self) -> Option<u16> {
        self.take(2)
            .map(|b| u16::from_le_bytes(b.try_into().unwrap()))
    }

    pub fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
    }

    /// A `u32` length prefix, bounds-checked against the remaining
    /// buffer so a corrupt datagram cannot trigger a huge allocation.
    pub fn len_prefix(&mut self) -> Option<usize> {
        let n = self.u32()? as usize;
        if n > self.remaining() {
            return None;
        }
        Some(n)
    }
}

/// A value that can cross a real wire. `encode` must be infallible;
/// `decode` returns `None` on any truncation or malformed input (the
/// socket layer drops such datagrams, and the reliable transport's
/// retransmission recovers).
pub trait Wire: Sized {
    fn encode(&self, out: &mut Vec<u8>);
    fn decode(r: &mut WireReader<'_>) -> Option<Self>;
}

/// Encode `v` into a fresh buffer.
pub fn to_wire_bytes<T: Wire>(v: &T) -> Vec<u8> {
    let mut out = Vec::new();
    v.encode(&mut out);
    out
}

/// Decode a `T` from `buf`, requiring every byte to be consumed (a
/// datagram carries exactly one value).
pub fn from_wire_bytes<T: Wire>(buf: &[u8]) -> Option<T> {
    let mut r = WireReader::new(buf);
    let v = T::decode(&mut r)?;
    if r.remaining() != 0 {
        return None;
    }
    Some(v)
}

// ---------------- primitive impls ----------------

impl Wire for u8 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        r.u8()
    }
}

impl Wire for u16 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        r.u16()
    }
}

impl Wire for u32 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        r.u32()
    }
}

impl Wire for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        r.u64()
    }
}

/// `usize` travels as `u64` (both ends are the same binary, but the
/// width is pinned anyway).
impl Wire for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        usize::try_from(r.u64()?).ok()
    }
}

impl Wire for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        match r.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

impl Wire for NodeId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        Some(NodeId(r.u32()?))
    }
}

impl Wire for SimTime {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        Some(SimTime(r.u64()?))
    }
}

impl Wire for Dur {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_nanos().encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        Some(Dur::nanos(r.u64()?))
    }
}

// ---------------- composite impls ----------------

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        for v in self {
            v.encode(out);
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        let n = r.u32()? as usize;
        // Elements are at least one byte each, so a malicious length
        // cannot exceed the buffer by more than that factor.
        if n > r.remaining() {
            return None;
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Some(out)
    }
}

impl Wire for Box<[u8]> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        out.extend_from_slice(self);
    }
    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        let n = r.len_prefix()?;
        Some(r.take(n)?.to_vec().into_boxed_slice())
    }
}

/// A list several in-memory messages share: a `Vec` on the wire.
impl<T: Wire> Wire for std::sync::Arc<[T]> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        self.iter().for_each(|v| v.encode(out));
    }
    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        Vec::<T>::decode(r).map(Into::into)
    }
}

/// Indirection in a recursive message (`Piggy::Obj`'s inner piggy):
/// nothing extra on the wire.
impl<T: Wire> Wire for Box<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (**self).encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        T::decode(r).map(Box::new)
    }
}

/// A value several in-memory messages share (a diff served to two
/// requesters): nothing extra on the wire.
impl<T: Wire> Wire for std::sync::Arc<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (**self).encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        T::decode(r).map(std::sync::Arc::new)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        match r.u8()? {
            0 => Some(None),
            1 => Some(Some(T::decode(r)?)),
            _ => None,
        }
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        Some((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
        self.2.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        Some((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

// ---------------- message tables ----------------

/// Declare a message enum once and derive everything that must agree
/// with the declaration from it.
///
/// Each variant is written as in plain Rust — its docs, then a unit,
/// newtype `V(T)` or struct `V { f: T, .. }` shape — followed by
/// `= <number>`. The enum may take one type parameter. Generated:
///
/// * the enum itself, with the attributes and docs given;
/// * its [`Wire`] impl: the number as the tag byte, then the fields in
///   declaration order through their own `Wire` impls; `decode` rejects
///   unknown tags and charges one level of the reader's nesting budget;
/// * `tag()` (the number), `variant()` (the variant's name) and `TAGS`
///   (every number, in declaration order).
///
/// Message types that are also [`Payload`](crate::Payload)s use
/// `variant()` as their statistics name and `tag()` as their
/// [`KindId`](crate::KindId), so a message has one number.
#[macro_export]
macro_rules! wire_enum {
    // The name a newtype variant's payload is bound to in `encode`.
    // The `$( (..) )?` group that writes the pattern must mention
    // `$nty` to repeat with it, and a pattern has no place for a type:
    // this takes the type and drops it.
    (@bind $b:ident $t:ty) => {
        $b
    };
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident $(<$p:ident>)? {
            $(
                $(#[$vmeta:meta])*
                $v:ident
                $( { $($f:ident : $fty:ty),* $(,)? } )?
                $( ( $nty:ty ) )?
                = $tag:literal
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $name $(<$p>)? {
            $(
                $(#[$vmeta])*
                $v $( { $($f: $fty),* } )? $( ($nty) )?,
            )*
        }

        impl $(<$p>)? $name $(<$p>)? {
            /// Every variant's number, in declaration order.
            pub const TAGS: &'static [u8] = &[$($tag),*];

            /// This variant's number: its wire tag byte.
            pub fn tag(&self) -> u8 {
                match self {
                    $(Self::$v { .. } => $tag,)*
                }
            }

            /// This variant's name.
            pub fn variant(&self) -> &'static str {
                match self {
                    $(Self::$v { .. } => stringify!($v),)*
                }
            }
        }

        impl $(<$p: $crate::Wire>)? $crate::Wire for $name $(<$p>)? {
            fn encode(&self, out: &mut Vec<u8>) {
                out.push(self.tag());
                match self {
                    $(
                        Self::$v
                            $( { $($f),* } )?
                            $( ($crate::wire_enum!(@bind inner $nty)) )?
                        => {
                            $( $( <$fty as $crate::Wire>::encode($f, out); )* )?
                            $( <$nty as $crate::Wire>::encode(inner, out); )?
                        }
                    )*
                }
            }

            fn decode(r: &mut $crate::WireReader<'_>) -> Option<Self> {
                r.enter()?;
                let v = match r.u8()? {
                    $(
                        $tag => Self::$v
                            $( { $($f: <$fty as $crate::Wire>::decode(r)?),* } )?
                            $( (<$nty as $crate::Wire>::decode(r)?) )?,
                    )*
                    _ => return None,
                };
                r.leave();
                Some(v)
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = to_wire_bytes(&v);
        assert_eq!(from_wire_bytes::<T>(&bytes).as_ref(), Some(&v));
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u8);
        round_trip(255u8);
        round_trip(0xBEEFu16);
        round_trip(0xDEAD_BEEFu32);
        round_trip(u64::MAX);
        round_trip(usize::MAX);
        round_trip(true);
        round_trip(false);
        round_trip(NodeId(7));
        round_trip(SimTime(123_456_789));
        round_trip(Dur::micros(250));
    }

    #[test]
    fn composites_round_trip() {
        round_trip(vec![1u32, 2, 3]);
        round_trip(Vec::<u64>::new());
        round_trip(Some(42u64));
        round_trip(Option::<u64>::None);
        round_trip(vec![5u8; 4096].into_boxed_slice());
        round_trip((NodeId(1), 9u64));
        round_trip((1u32, 2u64, vec![3u8]));
        round_trip(vec![(0usize, Some(vec![9u8].into_boxed_slice()))]);
        round_trip(std::sync::Arc::<[(u32, u64)]>::from(vec![(1, 2), (3, 4)]));
        // Shared or boxed, a value is its own bytes.
        let shared = std::sync::Arc::new((7u32, vec![1u8, 2]));
        assert_eq!(to_wire_bytes(&shared), to_wire_bytes(&*shared));
        round_trip(shared);
    }

    #[test]
    fn truncated_input_is_rejected() {
        let bytes = to_wire_bytes(&vec![1u64, 2, 3]);
        for cut in 0..bytes.len() {
            assert!(from_wire_bytes::<Vec<u64>>(&bytes[..cut]).is_none());
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = to_wire_bytes(&7u32);
        bytes.push(0);
        assert!(from_wire_bytes::<u32>(&bytes).is_none());
    }

    #[test]
    fn absurd_length_prefixes_are_rejected() {
        // A Vec claiming 2^31 elements in a 12-byte datagram.
        let mut bytes = Vec::new();
        (1u32 << 31).encode(&mut bytes);
        bytes.extend_from_slice(&[0u8; 8]);
        assert!(from_wire_bytes::<Vec<u64>>(&bytes).is_none());
        assert!(from_wire_bytes::<Box<[u8]>>(&bytes).is_none());
    }

    #[test]
    fn invalid_enum_tags_are_rejected() {
        assert!(from_wire_bytes::<bool>(&[2]).is_none());
        assert!(from_wire_bytes::<Option<u8>>(&[9, 0]).is_none());
    }

    wire_enum! {
        /// One variant of each shape, generic, recursive.
        #[derive(Debug, Clone, PartialEq)]
        enum Shapes<T> {
            Unit = 7,
            Newtype(T) = 3,
            Struct { a: u16, rest: Vec<Shapes<T>> } = 200,
        }
    }

    #[test]
    fn wire_enum_derives_tag_name_and_encoding_from_the_table() {
        let v = Shapes::Struct {
            a: 0x0102,
            rest: vec![Shapes::Unit, Shapes::Newtype(9u8)],
        };
        assert_eq!(Shapes::<u8>::TAGS, [7, 3, 200]);
        assert_eq!((v.tag(), v.variant()), (200, "Struct"));
        assert_eq!(
            (Shapes::Unit::<u8>.tag(), Shapes::Unit::<u8>.variant()),
            (7, "Unit")
        );
        // Tag byte, then the fields in declaration order.
        assert_eq!(to_wire_bytes(&v), [200, 2, 1, 2, 0, 0, 0, 7, 3, 9]);
        round_trip(v);
        assert!(from_wire_bytes::<Shapes<u8>>(&[8]).is_none());
    }

    #[test]
    fn wire_enum_nesting_is_bounded() {
        let nest = |depth: u8| {
            (1..depth).fold(Shapes::<u8>::Unit, |inner, _| Shapes::Struct {
                a: 0,
                rest: vec![inner],
            })
        };
        round_trip(nest(MAX_ENUM_DEPTH));
        let too_deep = to_wire_bytes(&nest(MAX_ENUM_DEPTH + 1));
        assert!(from_wire_bytes::<Shapes<u8>>(&too_deep).is_none());
        // The budget is per datagram, not per sibling: it is handed
        // back on the way out.
        round_trip(vec![nest(MAX_ENUM_DEPTH), nest(MAX_ENUM_DEPTH)]);
    }
}
