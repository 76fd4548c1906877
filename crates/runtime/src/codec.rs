//! Wire format for the shuffle boundary, and the integrity layer above it.
//!
//! Every key and value that crosses the map→reduce boundary is encoded with
//! [`Wire`] into the shuffle buffers and decoded on the reduce side. This
//! keeps the engine's shuffle-byte accounting honest (the paper's
//! I/O-efficiency arguments — histogram vs. list emission, locality vs.
//! path-scatter — are measured in these bytes) and mirrors Hadoop's
//! `Writable` serialization.
//!
//! The format is little-endian and length-prefixed for variable-size types.
//! Integers use fixed width: the algorithms shuffle mostly `f64`/`i64`/`u32`
//! and the paper's cost model counts `sizeOf(int)`-style fixed sizes, so
//! varint encoding would only obscure the comparison.
//!
//! Two 64-bit functions over bytes live here. [`FnvHasher`] *hashes*: the
//! default partitioner, `structural_digest` and the test digests encode
//! values into it, and goldens pin its output. [`checksum64`] *checks
//! integrity*: it is the footer of every [`frame`] (spill runs on disk,
//! query frames on the wire) and nothing else depends on its value.

pub mod frame;

use std::fmt;

/// Decoding failure: truncated or malformed shuffle bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// Human-readable description of what failed to decode.
    pub context: &'static str,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "codec error: {}", self.context)
    }
}

impl std::error::Error for CodecError {}

/// Splits the first `n` bytes off `buf`. Every fixed-width decode goes
/// through it; inlined, so that a reduce function monomorphised in another
/// crate does not call it out of line per field.
#[inline]
fn take<'a>(buf: &mut &'a [u8], n: usize, context: &'static str) -> Result<&'a [u8], CodecError> {
    if buf.len() < n {
        return Err(CodecError { context });
    }
    let (head, tail) = buf.split_at(n);
    *buf = tail;
    Ok(head)
}

/// A byte sink that [`Wire::encode`] writes encoded fragments into.
///
/// Implemented by `Vec<u8>` (appends), by [`CountingSink`] (counts) and by
/// [`FnvHasher`] (folds the bytes into an FNV-1a state without storing
/// them). The default partitioner hashes keys through this trait so that
/// per-record hashing allocates nothing.
pub trait WireSink {
    /// Consumes the next fragment of wire bytes.
    fn write(&mut self, bytes: &[u8]);
}

impl WireSink for Vec<u8> {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// A sink that counts wire bytes without storing them.
///
/// Encoding a value into a `CountingSink` yields exactly
/// `codec::encoded_len(&value)` with no allocation — the map-side spill
/// budget is tracked this way, one add per emitted record.
#[derive(Debug, Clone, Default)]
pub struct CountingSink {
    /// Total bytes written so far.
    pub bytes: usize,
}

impl CountingSink {
    /// A sink with zero bytes counted.
    pub fn new() -> Self {
        CountingSink::default()
    }
}

impl WireSink for CountingSink {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.bytes += bytes.len();
    }
}

/// Streaming FNV-1a hasher over wire bytes.
///
/// Encoding a value into it yields exactly FNV-1a over
/// `codec::encoded(&value)` — the default partitioner relies on this to
/// keep partition assignment stable while skipping the per-record encode
/// allocation.
#[derive(Debug, Clone)]
pub struct FnvHasher {
    state: u64,
}

impl FnvHasher {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        FnvHasher {
            state: Self::OFFSET,
        }
    }

    /// The hash of everything written so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for FnvHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl WireSink for FnvHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.state;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(Self::PRIME);
        }
        self.state = h;
    }
}

const XXH_PRIME_1: u64 = 0x9E37_79B1_85EB_CA87;
const XXH_PRIME_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const XXH_PRIME_3: u64 = 0x1656_67B1_9E37_79F9;
const XXH_PRIME_4: u64 = 0x85EB_CA77_C2B2_AE63;
const XXH_PRIME_5: u64 = 0x27D4_EB2F_1656_67C5;

#[inline]
fn xxh_round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(XXH_PRIME_2))
        .rotate_left(31)
        .wrapping_mul(XXH_PRIME_1)
}

#[inline]
fn le_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8-byte chunk"))
}

/// The integrity checksum of every [`frame`] footer and of the spill
/// store's run ledger: XXH64 with seed 0.
///
/// Four independent 64-bit lanes each fold one word of a 32-byte stripe, so
/// the multiplies of a stripe overlap in the pipeline instead of chaining
/// byte by byte as FNV-1a's do — memory speed rather than ~0.7 GB/s. Every
/// step is a bijection of the state for a fixed input word and of the word
/// for a fixed state, so a flipped bit always changes the state it enters.
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut stripes = bytes.chunks_exact(32);
    let mut h = if bytes.len() >= 32 {
        let mut lanes = [
            XXH_PRIME_1.wrapping_add(XXH_PRIME_2),
            XXH_PRIME_2,
            0,
            0u64.wrapping_sub(XXH_PRIME_1),
        ];
        for stripe in &mut stripes {
            for (lane, word) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
                *lane = xxh_round(*lane, le_u64(word));
            }
        }
        let mixed = lanes[0]
            .rotate_left(1)
            .wrapping_add(lanes[1].rotate_left(7))
            .wrapping_add(lanes[2].rotate_left(12))
            .wrapping_add(lanes[3].rotate_left(18));
        lanes.iter().fold(mixed, |h, &lane| {
            (h ^ xxh_round(0, lane))
                .wrapping_mul(XXH_PRIME_1)
                .wrapping_add(XXH_PRIME_4)
        })
    } else {
        XXH_PRIME_5
    };
    h = h.wrapping_add(bytes.len() as u64);
    let mut words = stripes.remainder().chunks_exact(8);
    for word in &mut words {
        h = (h ^ xxh_round(0, le_u64(word)))
            .rotate_left(27)
            .wrapping_mul(XXH_PRIME_1)
            .wrapping_add(XXH_PRIME_4);
    }
    let mut tail = words.remainder();
    if let Some((half, rest)) = tail.split_first_chunk::<4>() {
        h = (h ^ u64::from(u32::from_le_bytes(*half)).wrapping_mul(XXH_PRIME_1))
            .rotate_left(23)
            .wrapping_mul(XXH_PRIME_2)
            .wrapping_add(XXH_PRIME_3);
        tail = rest;
    }
    for &byte in tail {
        h = (h ^ u64::from(byte).wrapping_mul(XXH_PRIME_5))
            .rotate_left(11)
            .wrapping_mul(XXH_PRIME_1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(XXH_PRIME_2);
    h ^= h >> 29;
    h = h.wrapping_mul(XXH_PRIME_3);
    h ^ (h >> 32)
}

/// Types that can be serialized to and from the shuffle wire format.
pub trait Wire: Sized {
    /// Writes the encoding of `self` into `sink`, fragment by fragment.
    fn encode<S: WireSink>(&self, sink: &mut S);
    /// Decodes a value from the front of `buf`, advancing it.
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError>;

    /// `Some(n)` when every value encodes to exactly `n` bytes.
    ///
    /// The reduce-side merge uses it to find records by arithmetic: a run
    /// of `(K, V)` records whose widths are both known is an array of
    /// `K::WIDTH + V::WIDTH`-byte records, searched by bisection. The merge
    /// checks every record it decodes against the width, so an impl that
    /// claims a width it does not keep fails the job with a codec error
    /// (or, when the runs' lengths already rule the width out, is decoded
    /// record by record) rather than having its bytes reordered. The
    /// default, `None`, is always correct.
    const WIDTH: Option<usize> = None;
}

/// The width of two fields in sequence: known only when both are.
pub(crate) const fn sum_widths(a: Option<usize>, b: Option<usize>) -> Option<usize> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a + b),
        _ => None,
    }
}

macro_rules! wire_fixed {
    ($($t:ty => $ctx:literal),* $(,)?) => {$(
        impl Wire for $t {
            #[inline]
            fn encode<S: WireSink>(&self, sink: &mut S) {
                sink.write(&self.to_le_bytes());
            }
            #[inline]
            fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
                let bytes = take(buf, std::mem::size_of::<$t>(), $ctx)?;
                Ok(<$t>::from_le_bytes(bytes.try_into().expect("exact length")))
            }
            const WIDTH: Option<usize> = Some(std::mem::size_of::<$t>());
        }
    )*};
}

wire_fixed! {
    u8 => "u8", u16 => "u16", u32 => "u32", u64 => "u64",
    i8 => "i8", i16 => "i16", i32 => "i32", i64 => "i64",
    f32 => "f32", f64 => "f64",
}

impl Wire for bool {
    #[inline]
    fn encode<S: WireSink>(&self, sink: &mut S) {
        sink.write(&[u8::from(*self)]);
    }
    #[inline]
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(take(buf, 1, "bool")?[0] != 0)
    }
    const WIDTH: Option<usize> = Some(1);
}

impl Wire for usize {
    #[inline]
    fn encode<S: WireSink>(&self, sink: &mut S) {
        (*self as u64).encode(sink);
    }
    #[inline]
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(u64::decode(buf)? as usize)
    }
    const WIDTH: Option<usize> = u64::WIDTH;
}

impl Wire for String {
    fn encode<S: WireSink>(&self, sink: &mut S) {
        (self.len() as u32).encode(sink);
        sink.write(self.as_bytes());
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let len = u32::decode(buf)? as usize;
        let bytes = take(buf, len, "string body")?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError {
            context: "string utf8",
        })
    }
}

impl Wire for () {
    #[inline]
    fn encode<S: WireSink>(&self, _sink: &mut S) {}
    #[inline]
    fn decode(_buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(())
    }
}

/// Writes the encoding of `items` into `sink` — byte for byte what
/// `Vec<T>::encode` writes for an owned copy, without making one.
pub fn encode_slice<T: Wire, S: WireSink>(items: &[T], sink: &mut S) {
    (items.len() as u32).encode(sink);
    for item in items {
        item.encode(sink);
    }
}

/// Elements to reserve for a decoded `Vec` announcing `len` with `present`
/// bytes left: every element encodes to at least one byte, so a length the
/// bytes cannot back reserves nothing for the lie — a 12-byte request
/// announcing 2^20 queries would otherwise reserve 24 MiB. (A zero-width
/// element is zero-sized and reserves nothing either way.)
fn reservation(len: usize, present: usize) -> usize {
    len.min(present).min(1 << 20)
}

impl<T: Wire> Wire for Vec<T> {
    fn encode<S: WireSink>(&self, sink: &mut S) {
        encode_slice(self, sink);
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let len = u32::decode(buf)? as usize;
        let mut out = Vec::with_capacity(reservation(len, buf.len()));
        for _ in 0..len {
            out.push(T::decode(buf)?);
        }
        Ok(out)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode<S: WireSink>(&self, sink: &mut S) {
        match self {
            None => sink.write(&[0]),
            Some(v) => {
                sink.write(&[1]);
                v.encode(sink);
            }
        }
    }
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        match take(buf, 1, "option tag")?[0] {
            0 => Ok(None),
            1 => Ok(Some(T::decode(buf)?)),
            _ => Err(CodecError {
                context: "option tag value",
            }),
        }
    }
}

macro_rules! wire_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Wire),+> Wire for ($($name,)+) {
            fn encode<S: WireSink>(&self, sink: &mut S) {
                $(self.$idx.encode(sink);)+
            }
            fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
                Ok(($($name::decode(buf)?,)+))
            }
            const WIDTH: Option<usize> = {
                let width = Some(0);
                $(let width = sum_widths(width, $name::WIDTH);)+
                width
            };
        }
    };
}

wire_tuple!(A: 0);
wire_tuple!(A: 0, B: 1);
wire_tuple!(A: 0, B: 1, C: 2);
wire_tuple!(A: 0, B: 1, C: 2, D: 3);
wire_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);

/// Encodes a value into a fresh buffer (convenience for size measurement).
pub fn encoded<T: Wire>(value: &T) -> Vec<u8> {
    let mut buf = Vec::new();
    value.encode(&mut buf);
    buf
}

/// The encoded size of a value in bytes, counted without allocating.
pub fn encoded_len<T: Wire>(value: &T) -> usize {
    let mut sink = CountingSink::new();
    value.encode(&mut sink);
    sink.bytes
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let buf = encoded(&v);
        let mut slice = buf.as_slice();
        let back = T::decode(&mut slice).unwrap();
        assert_eq!(back, v);
        assert!(slice.is_empty(), "trailing bytes after decode");
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(u8::MAX);
        roundtrip(u32::MAX);
        roundtrip(u64::MAX);
        roundtrip(i64::MIN);
        roundtrip(-1i32);
        roundtrip(true);
        roundtrip(false);
        roundtrip(3.5f32);
        roundtrip(f64::NEG_INFINITY);
        roundtrip(usize::MAX);
        roundtrip(());
    }

    #[test]
    fn checksum64_matches_published_xxh64_vectors() {
        for (input, want) in [
            ("", 0xEF46_DB37_51D8_E999u64),
            ("a", 0xD24E_C4F1_A98C_6E5B),
            ("abc", 0x44BC_2CF5_AD77_0999),
            (
                "Nobody inspects the spammish repetition",
                0xFBCE_A83C_8A37_8BF1,
            ),
        ] {
            assert_eq!(checksum64(input.as_bytes()), want, "{input:?}");
        }
    }

    #[test]
    fn encode_slice_writes_what_vec_encode_writes() {
        let items = [(1u32, -2.5f64), (7, f64::NAN), (u32::MAX, 0.0)];
        for n in 0..=items.len() {
            let mut from_slice = vec![0xEE];
            encode_slice(&items[..n], &mut from_slice);
            let mut from_vec = vec![0xEE];
            items[..n].to_vec().encode(&mut from_vec);
            assert_eq!(from_slice, from_vec);
        }
    }

    #[test]
    fn f64_nan_payload_survives() {
        let buf = encoded(&f64::NAN);
        let mut s = buf.as_slice();
        assert!(f64::decode(&mut s).unwrap().is_nan());
    }

    #[test]
    fn strings_and_containers_roundtrip() {
        roundtrip(String::from("hello κόσμος"));
        roundtrip(String::new());
        roundtrip(vec![1u32, 2, 3]);
        roundtrip(Vec::<f64>::new());
        roundtrip(Some(42i64));
        roundtrip(Option::<i64>::None);
        roundtrip(vec![vec![1u8], vec![], vec![2, 3]]);
    }

    #[test]
    fn tuples_roundtrip() {
        roundtrip((1u32,));
        roundtrip((1u32, -2i64));
        roundtrip((1u32, -2i64, 3.0f64));
        roundtrip((1u32, -2i64, 3.0f64, String::from("x")));
        roundtrip((1u8, 2u8, 3u8, 4u8, 5u8));
    }

    #[test]
    fn truncated_input_errors() {
        let buf = encoded(&12345u64);
        let mut s = &buf[..4];
        assert!(u64::decode(&mut s).is_err());

        let buf = encoded(&String::from("hello"));
        let mut s = &buf[..buf.len() - 1];
        assert!(String::decode(&mut s).is_err());
    }

    #[test]
    fn a_vec_reserves_no_more_than_its_bytes_can_hold() {
        assert_eq!(reservation(1 << 20, 0), 0);
        assert_eq!(reservation(u32::MAX as usize, 9), 9);
        assert_eq!(reservation(3, 100), 3);
        assert_eq!(reservation(usize::MAX, usize::MAX), 1 << 20);

        // A length that lies: an error, not a reservation of what it claims.
        let mut lie = encoded(&(1u32 << 20));
        lie.extend_from_slice(&[0; 9]);
        assert!(Vec::<u64>::decode(&mut lie.as_slice()).is_err());
        // One byte per element is all a decoder may assume.
        let bytes = encoded(&vec![7u8; 5]);
        let back = Vec::<u8>::decode(&mut bytes.as_slice()).unwrap();
        assert_eq!((back.len(), back.capacity()), (5, 5));
    }

    #[test]
    fn bad_option_tag_errors() {
        let buf = vec![7u8];
        let mut s = buf.as_slice();
        assert!(Option::<u8>::decode(&mut s).is_err());
    }

    #[test]
    fn encoded_len_counts_fixed_sizes() {
        assert_eq!(encoded_len(&0u32), 4);
        assert_eq!(encoded_len(&0f64), 8);
        assert_eq!(encoded_len(&(0u32, 0f64)), 12);
        // Vec: 4-byte length prefix + elements.
        assert_eq!(encoded_len(&vec![0u32; 10]), 4 + 40);
    }

    fn hash_agrees<T: Wire>(v: T) {
        // Encoding into the hasher equals the buffer-level FNV-1a fold over
        // the encoded bytes.
        let mut hasher = FnvHasher::new();
        v.encode(&mut hasher);
        let mut reference = FnvHasher::new();
        reference.write(&encoded(&v));
        assert_eq!(hasher.finish(), reference.finish());
    }

    #[test]
    fn hashing_agrees_with_encode() {
        hash_agrees(0u8);
        hash_agrees(u64::MAX);
        hash_agrees(-7i32);
        hash_agrees(f64::NAN);
        hash_agrees(true);
        hash_agrees(usize::MAX);
        hash_agrees(());
        hash_agrees(String::from("hello κόσμος"));
        hash_agrees(String::new());
        hash_agrees(vec![1u32, 2, 3]);
        hash_agrees(Vec::<f64>::new());
        hash_agrees(vec![vec![1u8], vec![], vec![2, 3]]);
        hash_agrees(Some(42i64));
        hash_agrees(Option::<i64>::None);
        hash_agrees((1u32, -2i64, 3.0f64, String::from("x")));
        hash_agrees((1u8, 2u8, 3u8, 4u8, 5u8));
    }

    fn width_is_the_encoded_len<T: Wire>(v: T) {
        assert_eq!(T::WIDTH, Some(encoded_len(&v)));
    }

    #[test]
    fn fixed_widths_are_what_encode_writes() {
        width_is_the_encoded_len(7u8);
        width_is_the_encoded_len(-7i16);
        width_is_the_encoded_len(u32::MAX);
        width_is_the_encoded_len(f32::NAN);
        width_is_the_encoded_len(f64::MIN);
        width_is_the_encoded_len(usize::MAX);
        width_is_the_encoded_len(true);
        width_is_the_encoded_len((1u64, -2.5f64));
        width_is_the_encoded_len((1u8, 2u16, 3u32, 4u64, 5i64));
        // Anything with a length, a tag or no bytes at all has none.
        assert_eq!(String::WIDTH, None);
        assert_eq!(Vec::<u64>::WIDTH, None);
        assert_eq!(Option::<u64>::WIDTH, None);
        assert_eq!(<()>::WIDTH, None);
        assert_eq!(<(u64, String)>::WIDTH, None);
        assert_eq!(<(u64, (u32, Vec<u8>))>::WIDTH, None);
    }

    #[test]
    fn sequential_values_decode_in_order() {
        let mut buf = Vec::new();
        1u32.encode(&mut buf);
        2.5f64.encode(&mut buf);
        String::from("k").encode(&mut buf);
        let mut s = buf.as_slice();
        assert_eq!(u32::decode(&mut s).unwrap(), 1);
        assert_eq!(f64::decode(&mut s).unwrap(), 2.5);
        assert_eq!(String::decode(&mut s).unwrap(), "k");
        assert!(s.is_empty());
    }
}
