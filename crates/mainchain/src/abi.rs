//! Ethereum-ABI-style word encoding for mainchain calldata/storage size
//! accounting.
//!
//! The ABI pads every value to 32-byte words and prefixes dynamic data
//! with offsets and lengths, which is why a payout entry costs 352 B on the
//! mainchain but only ~97 B in the sidechain's packed codec (paper
//! Table IV). This module reproduces that overhead structurally: encoders
//! emit real words, sizes fall out of the field layout.

use ammboost_crypto::keccak::Keccak256;
use ammboost_crypto::{H256, U256};

/// Size of one ABI word in bytes.
pub const WORD: usize = 32;

/// Bytes a hashing encoder stages before the sponge absorbs them: large
/// enough to amortise the call, small enough to stay in cache.
const HASH_CHUNK: usize = 64 * 1024;

/// An ABI word-stream encoder. A plain encoder ([`new`](Self::new))
/// materialises the stream; a [`hashing`](Self::hashing) one only digests
/// it, holding at most one staging chunk.
#[derive(Debug, Default, Clone)]
pub struct AbiEncoder {
    buf: Vec<u8>,
    /// `Some` for a hashing encoder: `buf` then holds only the bytes not
    /// yet absorbed, and `absorbed` counts the ones that were.
    sink: Option<Keccak256>,
    absorbed: usize,
}

impl AbiEncoder {
    /// An empty encoder.
    pub fn new() -> AbiEncoder {
        AbiEncoder::default()
    }

    /// An empty encoder that streams into Keccak-256 instead of keeping
    /// the bytes; finish it with [`into_digest`](Self::into_digest).
    pub fn hashing() -> AbiEncoder {
        AbiEncoder {
            buf: Vec::with_capacity(HASH_CHUNK),
            sink: Some(Keccak256::new()),
            absorbed: 0,
        }
    }

    fn push(&mut self, bytes: &[u8]) {
        if let Some(sink) = &mut self.sink {
            if self.buf.len() + bytes.len() > HASH_CHUNK {
                sink.update(&self.buf);
                self.absorbed += self.buf.len();
                self.buf.clear();
            }
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a `U256` word.
    pub fn word_u256(&mut self, v: U256) -> &mut Self {
        self.push(&v.to_be_bytes());
        self
    }

    /// Appends a `u64` (padded to a word).
    pub fn word_u64(&mut self, v: u64) -> &mut Self {
        self.word_u256(U256::from_u64(v))
    }

    /// Appends a `u128` (padded to a word).
    pub fn word_u128(&mut self, v: u128) -> &mut Self {
        self.word_u256(U256::from_u128(v))
    }

    /// Appends an `i32` (sign-extended to a word, two's complement).
    pub fn word_i32(&mut self, v: i32) -> &mut Self {
        if v >= 0 {
            self.word_u64(v as u64)
        } else {
            // two's complement in 256 bits
            let mag = U256::from_u64((-(v as i64)) as u64);
            self.word_u256(U256::MAX - mag + U256::ONE)
        }
    }

    /// Appends a 20-byte address left-padded to a word.
    pub fn word_address(&mut self, a: &[u8; 20]) -> &mut Self {
        let mut w = [0u8; WORD];
        w[12..].copy_from_slice(a);
        self.push(&w);
        self
    }

    /// Appends raw bytes right-padded to a whole number of words (ABI
    /// `bytesN`/tail encoding).
    pub fn bytes_padded(&mut self, data: &[u8]) -> &mut Self {
        self.push(data);
        let rem = data.len() % WORD;
        if rem != 0 {
            self.push(&[0u8; WORD][rem..]);
        }
        self
    }

    /// Appends a dynamic-array header: an offset word and a length word
    /// (the bookkeeping the ABI charges per dynamic field).
    pub fn dynamic_header(&mut self, offset: usize, len: usize) -> &mut Self {
        self.word_u64(offset as u64).word_u64(len as u64)
    }

    /// Encoded length in bytes.
    pub fn len(&self) -> usize {
        self.absorbed + self.buf.len()
    }

    /// `true` when nothing has been encoded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of complete words encoded.
    pub fn words(&self) -> usize {
        self.len() / WORD
    }

    /// Consumes the encoder, returning the byte stream (of a hashing
    /// encoder: only the bytes not yet absorbed).
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Borrows the byte stream (of a hashing encoder: only the bytes not
    /// yet absorbed).
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the encoder, returning the Keccak-256 of everything
    /// encoded and its length in bytes.
    pub fn into_digest(self) -> (H256, usize) {
        let len = self.len();
        let mut sink = self.sink.unwrap_or_default();
        sink.update(&self.buf);
        (H256(sink.finalize()), len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_are_32_bytes() {
        let mut e = AbiEncoder::new();
        e.word_u64(5).word_u128(7);
        assert_eq!(e.len(), 64);
        assert_eq!(e.words(), 2);
    }

    #[test]
    fn address_is_left_padded() {
        let mut e = AbiEncoder::new();
        e.word_address(&[0xAB; 20]);
        let b = e.into_bytes();
        assert_eq!(&b[..12], &[0u8; 12]);
        assert_eq!(&b[12..], &[0xAB; 20]);
    }

    #[test]
    fn negative_i32_is_twos_complement() {
        let mut e = AbiEncoder::new();
        e.word_i32(-1);
        assert_eq!(e.as_bytes(), &[0xFFu8; 32]);
        let mut e2 = AbiEncoder::new();
        e2.word_i32(-887272);
        // re-interpret: MAX - 887272 + 1
        let v = U256::from_be_bytes(e2.as_bytes().try_into().unwrap());
        assert_eq!(U256::MAX - v + U256::ONE, U256::from_u64(887272));
    }

    #[test]
    fn bytes_are_padded_to_words() {
        let mut e = AbiEncoder::new();
        e.bytes_padded(&[1, 2, 3]);
        assert_eq!(e.len(), 32);
        let mut e2 = AbiEncoder::new();
        e2.bytes_padded(&[0u8; 33]);
        assert_eq!(e2.len(), 64);
        let mut e3 = AbiEncoder::new();
        e3.bytes_padded(&[0u8; 64]);
        assert_eq!(e3.len(), 64);
    }

    #[test]
    fn hashing_encoder_digests_the_same_stream() {
        // word counts on both sides of a chunk flush, plus a ragged tail
        for words in [
            0usize,
            1,
            5,
            HASH_CHUNK / WORD - 1,
            HASH_CHUNK / WORD,
            3 * HASH_CHUNK / WORD + 7,
        ] {
            let (mut plain, mut hashing) = (AbiEncoder::new(), AbiEncoder::hashing());
            for enc in [&mut plain, &mut hashing] {
                for i in 0..words {
                    enc.word_u64(i as u64);
                }
                enc.bytes_padded(&[7u8; 45]);
            }
            assert_eq!(hashing.len(), plain.len());
            assert_eq!(hashing.words(), plain.words());
            assert!(hashing.as_bytes().len() <= HASH_CHUNK);
            let expected = (H256::hash(plain.as_bytes()), plain.len());
            assert_eq!(hashing.into_digest(), expected);
            assert_eq!(plain.into_digest(), expected);
        }
    }

    #[test]
    fn dynamic_header_is_two_words() {
        let mut e = AbiEncoder::new();
        e.dynamic_header(64, 3);
        assert_eq!(e.words(), 2);
    }
}
