//! The snapshot wire codec: a deterministic, versioned, hand-rolled
//! binary format.
//!
//! This extends the field-packing style of the sidechain codec
//! (`ammboost-sidechain::codec`) into a reusable [`Encode`]/[`Decode`]
//! trait pair over a [`ByteWriter`]/[`ByteReader`]. Design rules:
//!
//! - **big-endian fixed-width integers**, no varints, no padding;
//! - **`u32` length prefixes** for collections and byte strings;
//! - **explicit one-byte tags** for enums and `Option`s;
//! - **no reliance on host iteration order** — map-backed structures are
//!   encoded from sorted exports, so the same state always produces the
//!   same bytes (a prerequisite for the Merkle state commitment);
//! - **exhaustive error handling** — decoding never panics on corrupt
//!   input; every failure mode is a [`CodecError`] variant.

use std::fmt;

/// Why a decode failed. Every variant carries enough context to locate
/// the corruption.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before a field could be read.
    UnexpectedEof {
        /// Bytes the field needed.
        needed: usize,
        /// Bytes that were left.
        remaining: usize,
    },
    /// Bytes were left over after the outermost value was decoded.
    TrailingBytes(usize),
    /// An enum/option tag byte had no defined meaning.
    InvalidTag {
        /// The type being decoded.
        what: &'static str,
        /// The offending tag.
        tag: u8,
    },
    /// A boolean byte was neither 0 nor 1.
    InvalidBool(u8),
    /// A length prefix exceeds the bytes actually available.
    LengthOverflow {
        /// Declared element/byte count.
        declared: usize,
        /// Bytes remaining in the input.
        remaining: usize,
    },
    /// A string field held invalid UTF-8.
    InvalidUtf8,
    /// The snapshot magic bytes did not match.
    BadMagic([u8; 4]),
    /// The snapshot format version is not supported by this build.
    UnsupportedVersion(u16),
    /// The declared state root does not match the recomputed one — the
    /// snapshot is corrupt or was tampered with.
    RootMismatch,
    /// Map keys were not strictly ascending — the encoding is not the
    /// canonical (deterministic) form.
    UnsortedKeys,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof { needed, remaining } => {
                write!(f, "unexpected EOF: needed {needed} bytes, {remaining} left")
            }
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after value"),
            CodecError::InvalidTag { what, tag } => write!(f, "invalid tag {tag} for {what}"),
            CodecError::InvalidBool(b) => write!(f, "invalid bool byte {b}"),
            CodecError::LengthOverflow {
                declared,
                remaining,
            } => write!(
                f,
                "declared length {declared} exceeds {remaining} remaining bytes"
            ),
            CodecError::InvalidUtf8 => write!(f, "invalid UTF-8 in string field"),
            CodecError::BadMagic(m) => write!(f, "bad snapshot magic {m:?}"),
            CodecError::UnsupportedVersion(v) => write!(f, "unsupported snapshot version {v}"),
            CodecError::RootMismatch => write!(f, "snapshot state root mismatch"),
            CodecError::UnsortedKeys => write!(f, "map keys not in canonical sorted order"),
        }
    }
}

impl std::error::Error for CodecError {}

/// An append-only byte sink all encoders write into.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

macro_rules! put_int {
    ($name:ident, $ty:ty) => {
        /// Appends the value, big-endian.
        #[inline]
        pub fn $name(&mut self, v: $ty) {
            self.buf.extend_from_slice(&v.to_be_bytes());
        }
    };
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// An empty writer with `capacity` bytes preallocated.
    pub fn with_capacity(capacity: usize) -> ByteWriter {
        ByteWriter {
            buf: Vec::with_capacity(capacity),
        }
    }

    put_int!(put_u8, u8);
    put_int!(put_u16, u16);
    put_int!(put_u32, u32);
    put_int!(put_u64, u64);
    put_int!(put_u128, u128);
    put_int!(put_i32, i32);
    put_int!(put_i64, i64);
    put_int!(put_i128, i128);

    /// Appends a boolean as one byte (0 or 1).
    #[inline]
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Appends raw bytes with no length prefix (fixed-width fields).
    #[inline]
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a `u32` element-count prefix.
    ///
    /// # Panics
    /// Panics when `len` exceeds `u32::MAX` — no snapshot section comes
    /// within orders of magnitude of that.
    #[inline]
    pub fn put_len(&mut self, len: usize) {
        self.put_u32(u32::try_from(len).expect("collection length fits u32"));
    }

    /// Encodes a value into this writer.
    #[inline]
    pub fn put<T: Encode + ?Sized>(&mut self, value: &T) {
        value.encode(self);
    }

    /// Lets legacy encoders that append to a `Vec<u8>` (e.g.
    /// `AmmTx::encode_into`) write directly into the buffer.
    #[inline]
    pub fn put_with(&mut self, f: impl FnOnce(&mut Vec<u8>)) {
        f(&mut self.buf);
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// A bounds-checked cursor all decoders read from.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

macro_rules! take_int {
    ($name:ident, $ty:ty) => {
        /// Reads the value, big-endian.
        ///
        /// # Errors
        /// [`CodecError::UnexpectedEof`] when the input is exhausted.
        #[inline]
        pub fn $name(&mut self) -> Result<$ty, CodecError> {
            const N: usize = std::mem::size_of::<$ty>();
            let bytes = self.take(N)?;
            let mut arr = [0u8; N];
            arr.copy_from_slice(bytes);
            Ok(<$ty>::from_be_bytes(arr))
        }
    };
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Reads exactly `n` raw bytes.
    ///
    /// # Errors
    /// [`CodecError::UnexpectedEof`] when fewer than `n` bytes remain.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    take_int!(take_u8, u8);
    take_int!(take_u16, u16);
    take_int!(take_u32, u32);
    take_int!(take_u64, u64);
    take_int!(take_u128, u128);
    take_int!(take_i32, i32);
    take_int!(take_i64, i64);
    take_int!(take_i128, i128);

    /// Reads a strict boolean byte.
    ///
    /// # Errors
    /// [`CodecError::InvalidBool`] on any byte other than 0 or 1.
    #[inline]
    pub fn take_bool(&mut self) -> Result<bool, CodecError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(CodecError::InvalidBool(b)),
        }
    }

    /// Reads a `u32` element-count prefix, sanity-bounded so corrupt
    /// lengths fail instead of triggering huge allocations: every element
    /// costs at least one byte, so a count above the remaining bytes is
    /// impossible.
    ///
    /// # Errors
    /// [`CodecError::LengthOverflow`] on an impossible count.
    #[inline]
    pub fn take_len(&mut self) -> Result<usize, CodecError> {
        let declared = self.take_u32()? as usize;
        if declared > self.remaining() {
            return Err(CodecError::LengthOverflow {
                declared,
                remaining: self.remaining(),
            });
        }
        Ok(declared)
    }

    /// Decodes a value from this reader.
    #[inline]
    pub fn get<T: Decode>(&mut self) -> Result<T, CodecError> {
        T::decode(self)
    }

    /// Asserts the input is fully consumed (call after the outermost
    /// value).
    ///
    /// # Errors
    /// [`CodecError::TrailingBytes`] when bytes are left.
    pub fn finish(&self) -> Result<(), CodecError> {
        if self.remaining() > 0 {
            return Err(CodecError::TrailingBytes(self.remaining()));
        }
        Ok(())
    }
}

/// Deterministic binary serialization into a [`ByteWriter`].
pub trait Encode {
    /// Appends this value's canonical encoding.
    fn encode(&self, w: &mut ByteWriter);

    /// Convenience: encodes into a fresh buffer.
    fn encode_to_vec(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        self.encode(&mut w);
        w.into_bytes()
    }
}

/// Deserialization from a [`ByteReader`], the inverse of [`Encode`].
pub trait Decode: Sized {
    /// Decodes one value, advancing the reader.
    ///
    /// # Errors
    /// Any [`CodecError`] on malformed input.
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError>;

    /// Convenience: decodes a buffer that must contain exactly one value.
    ///
    /// # Errors
    /// Propagates decode failures; fails on trailing bytes.
    fn decode_all(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = ByteReader::new(bytes);
        let v = Self::decode(&mut r)?;
        r.finish()?;
        Ok(v)
    }
}

macro_rules! impl_codec_int {
    ($ty:ty, $put:ident, $take:ident) => {
        impl Encode for $ty {
            #[inline]
            fn encode(&self, w: &mut ByteWriter) {
                w.$put(*self);
            }
        }
        impl Decode for $ty {
            #[inline]
            fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
                r.$take()
            }
        }
    };
}

impl_codec_int!(u8, put_u8, take_u8);
impl_codec_int!(u16, put_u16, take_u16);
impl_codec_int!(u32, put_u32, take_u32);
impl_codec_int!(u64, put_u64, take_u64);
impl_codec_int!(u128, put_u128, take_u128);
impl_codec_int!(i32, put_i32, take_i32);
impl_codec_int!(i64, put_i64, take_i64);
impl_codec_int!(i128, put_i128, take_i128);

impl Encode for bool {
    #[inline]
    fn encode(&self, w: &mut ByteWriter) {
        w.put_bool(*self);
    }
}

impl Decode for bool {
    #[inline]
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        r.take_bool()
    }
}

impl Encode for str {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_len(self.len());
        w.put_bytes(self.as_bytes());
    }
}

impl Encode for String {
    fn encode(&self, w: &mut ByteWriter) {
        self.as_str().encode(w);
    }
}

impl Decode for String {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let len = r.take_len()?;
        let bytes = r.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::InvalidUtf8)
    }
}

impl<T: Encode> Encode for [T] {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_len(self.len());
        for item in self {
            item.encode(w);
        }
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, w: &mut ByteWriter) {
        self.as_slice().encode(w);
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let len = r.take_len()?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.encode(w);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        match r.take_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(CodecError::InvalidTag {
                what: "Option",
                tag,
            }),
        }
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, w: &mut ByteWriter) {
        self.0.encode(w);
        self.1.encode(w);
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

/// Checks that a decoded `(key, value)` list is strictly ascending by
/// key — map-backed structures only accept their canonical (sorted)
/// encoding, so a given logical state has exactly one byte form.
///
/// # Errors
/// [`CodecError::UnsortedKeys`] on a duplicate or out-of-order key.
pub fn ensure_sorted_keys<K: Ord, V>(entries: &[(K, V)]) -> Result<(), CodecError> {
    if entries.windows(2).any(|w| w[0].0 >= w[1].0) {
        return Err(CodecError::UnsortedKeys);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_roundtrips() {
        let mut w = ByteWriter::new();
        w.put(&0x1234u16);
        w.put(&u128::MAX);
        w.put(&(-5i32));
        w.put(&i128::MIN);
        w.put(&true);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 2 + 16 + 4 + 16 + 1);
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get::<u16>().unwrap(), 0x1234);
        assert_eq!(r.get::<u128>().unwrap(), u128::MAX);
        assert_eq!(r.get::<i32>().unwrap(), -5);
        assert_eq!(r.get::<i128>().unwrap(), i128::MIN);
        assert!(r.get::<bool>().unwrap());
        r.finish().unwrap();
    }

    #[test]
    fn eof_and_trailing_detected() {
        let bytes = 7u32.encode_to_vec();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(
            r.get::<u64>(),
            Err(CodecError::UnexpectedEof { needed: 8, .. })
        ));
        assert!(matches!(
            u16::decode_all(&bytes),
            Err(CodecError::TrailingBytes(2))
        ));
    }

    #[test]
    fn strict_bool() {
        assert_eq!(bool::decode_all(&[2]), Err(CodecError::InvalidBool(2)));
    }

    #[test]
    fn string_roundtrip_and_utf8_guard() {
        let s = "payout ✓".to_string();
        assert_eq!(String::decode_all(&s.encode_to_vec()).unwrap(), s);
        let mut bad = "ab".to_string().encode_to_vec();
        bad[4] = 0xFF;
        bad[5] = 0xFE;
        assert_eq!(String::decode_all(&bad), Err(CodecError::InvalidUtf8));
    }

    #[test]
    fn vec_and_option_roundtrip() {
        let v: Vec<Option<u64>> = vec![None, Some(9), Some(u64::MAX)];
        assert_eq!(
            Vec::<Option<u64>>::decode_all(&v.encode_to_vec()).unwrap(),
            v
        );
    }

    #[test]
    fn hostile_length_rejected() {
        // a Vec<u64> claiming 2^31 elements in a 6-byte buffer
        let bytes = [0x80, 0, 0, 0, 0xAA, 0xBB];
        assert!(matches!(
            Vec::<u64>::decode_all(&bytes),
            Err(CodecError::LengthOverflow { .. })
        ));
    }

    #[test]
    fn tuple_roundtrip() {
        let v: (u32, (i128, bool)) = (7, (-1, true));
        assert_eq!(
            <(u32, (i128, bool))>::decode_all(&v.encode_to_vec()).unwrap(),
            v
        );
    }
}
