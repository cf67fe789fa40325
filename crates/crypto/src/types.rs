//! Common hash-sized value types shared across the workspace: [`H256`]
//! digests and 20-byte [`Address`]es (derived, Ethereum-style, from the
//! Keccak-256 hash of a public key), plus [`DigestMap`], the hash map
//! every ledger keyed by such an identity uses.

use crate::keccak::{keccak256, keccak256_x4};
use serde::{Deserialize, Serialize};
use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// A 256-bit hash value (block ids, transaction ids, Merkle roots).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize)]
pub struct H256(pub [u8; 32]);

impl H256 {
    /// The all-zero hash.
    pub const ZERO: H256 = H256([0u8; 32]);

    /// Hashes arbitrary bytes with Keccak-256.
    pub fn hash(data: &[u8]) -> H256 {
        H256(keccak256(data))
    }

    /// Hashes the concatenation of multiple byte slices.
    pub fn hash_concat(parts: &[&[u8]]) -> H256 {
        H256(crate::keccak::keccak256_concat(parts))
    }

    /// Returns the raw bytes.
    pub const fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Returns `true` if every byte is zero.
    pub fn is_zero(&self) -> bool {
        self.0 == [0u8; 32]
    }

    /// Lowercase hex string (no `0x` prefix).
    pub fn to_hex(&self) -> String {
        to_hex(&self.0)
    }
}

impl fmt::Debug for H256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "H256(0x{}…)", &self.to_hex()[..8])
    }
}

impl fmt::Display for H256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", self.to_hex())
    }
}

impl From<[u8; 32]> for H256 {
    fn from(b: [u8; 32]) -> Self {
        H256(b)
    }
}

impl AsRef<[u8]> for H256 {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// A 20-byte account / contract address.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize)]
pub struct Address(pub [u8; 20]);

impl Address {
    /// The all-zero address (used as the "null" address).
    pub const ZERO: Address = Address([0u8; 20]);

    /// Derives an address from public-key bytes: the low 20 bytes of
    /// `keccak256(pk)`, as Ethereum does.
    pub fn from_pubkey_bytes(pk: &[u8]) -> Address {
        Address::from_digest(keccak256(pk))
    }

    /// The low 20 bytes of a Keccak-256 digest.
    fn from_digest(h: [u8; 32]) -> Address {
        let mut out = [0u8; 20];
        out.copy_from_slice(&h[12..]);
        Address(out)
    }

    /// A deterministic test/demo address derived from an index.
    pub fn from_index(i: u64) -> Address {
        Address::from_digest(keccak256(&i.to_be_bytes()))
    }

    /// [`Address::from_index`] of every index in `range`, in order: four
    /// indices per interleaved Keccak permutation, the < 4 remainder
    /// through `from_index` — how a simulated user population is built.
    pub fn from_index_range(range: std::ops::Range<u64>) -> Vec<Address> {
        let mut out = Vec::with_capacity(range.end.saturating_sub(range.start) as usize);
        let mut i = range.start;
        while range.end.saturating_sub(i) >= 4 {
            let m = [i, i + 1, i + 2, i + 3].map(u64::to_be_bytes);
            out.extend(keccak256_x4([&m[0], &m[1], &m[2], &m[3]]).map(Address::from_digest));
            i += 4;
        }
        out.extend((i..range.end).map(Address::from_index));
        out
    }

    /// Returns the raw bytes.
    pub const fn as_bytes(&self) -> &[u8; 20] {
        &self.0
    }

    /// Lowercase hex string (no `0x` prefix).
    pub fn to_hex(&self) -> String {
        to_hex(&self.0)
    }
}

impl fmt::Debug for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Address(0x{}…)", &self.to_hex()[..8])
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", self.to_hex())
    }
}

impl AsRef<[u8]> for Address {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// A hash map keyed by a Keccak-derived identity ([`Address`], an
/// `(Address, Address)` pair, a position id): std's `HashMap` over
/// [`DigestState`] instead of SipHash. The keys are already uniform
/// digests, so one multiply-fold per 8-byte word spreads them as well as
/// SipHash does at a fraction of the cost — but whoever picks a key can
/// grind it, so the fold is *seeded*: a collision set has to be found
/// against a value the process draws at start-up and never reveals. (The
/// AMM engine's `fast_hash` is unseeded because its keys are tick and
/// word indices the engine derives itself.) Iteration order is as
/// unspecified as a std map's; sort before anything observable.
///
/// Built with `DigestMap::default()` or `collect()` — `HashMap::new`
/// exists for `RandomState` only.
pub type DigestMap<K, V> = std::collections::HashMap<K, V, DigestState>;

/// The [`DigestMap`] hasher factory. `default()` hands every map the
/// process-wide seed, drawn once from std's `RandomState`.
#[derive(Clone, Copy, Debug)]
pub struct DigestState {
    seed: u64,
}

impl DigestState {
    /// A factory with an explicit seed, for tests.
    pub const fn with_seed(seed: u64) -> DigestState {
        DigestState { seed }
    }
}

impl Default for DigestState {
    fn default() -> DigestState {
        static SEED: OnceLock<u64> = OnceLock::new();
        let seed = *SEED.get_or_init(|| RandomState::new().build_hasher().finish());
        DigestState { seed }
    }
}

impl BuildHasher for DigestState {
    type Hasher = DigestHasher;

    #[inline]
    fn build_hasher(&self) -> DigestHasher {
        DigestHasher { state: self.seed }
    }
}

/// The [`DigestMap`] hasher: the seed is the initial state, every 8-byte
/// word written costs one fold. Both ends of the result see the whole key
/// — hashbrown takes its control byte from the top 7 bits and its bucket
/// index from the low ones.
#[derive(Clone, Copy, Debug)]
pub struct DigestHasher {
    state: u64,
}

impl Hasher for DigestHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.write_u64(u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut last = [0u8; 8];
            last[..tail.len()].copy_from_slice(tail);
            self.write_u64(u64::from_le_bytes(last));
        }
    }

    /// The fold: a 64×64→128-bit multiply by the golden-ratio constant of
    /// Fibonacci hashing with the two halves xored together, so the high
    /// input bits reach the low output bits and vice versa.
    #[inline]
    fn write_u64(&mut self, word: u64) {
        let wide = u128::from(self.state ^ word) * 0x9E37_79B9_7F4A_7C15;
        self.state = (wide as u64) ^ ((wide >> 64) as u64);
    }
}

/// Encodes bytes as lowercase hex.
pub fn to_hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push(char::from_digit((b >> 4) as u32, 16).expect("nibble < 16"));
        s.push(char::from_digit((b & 0xf) as u32, 16).expect("nibble < 16"));
    }
    s
}

/// Decodes a hex string (with or without `0x` prefix).
///
/// # Errors
/// Returns `None` on odd length or non-hex characters.
pub fn from_hex(s: &str) -> Option<Vec<u8>> {
    let s = s.strip_prefix("0x").unwrap_or(s);
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let mut out = Vec::with_capacity(s.len() / 2);
    let bytes = s.as_bytes();
    for pair in bytes.chunks(2) {
        let hi = (pair[0] as char).to_digit(16)?;
        let lo = (pair[1] as char).to_digit(16)?;
        out.push(((hi << 4) | lo) as u8);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_and_display() {
        let h = H256::hash(b"hello");
        assert!(!h.is_zero());
        assert!(h.to_string().starts_with("0x"));
        assert_eq!(h.to_hex().len(), 64);
    }

    #[test]
    fn address_derivation_is_deterministic() {
        let a = Address::from_pubkey_bytes(b"some pubkey");
        let b = Address::from_pubkey_bytes(b"some pubkey");
        let c = Address::from_pubkey_bytes(b"other pubkey");
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn address_from_index_distinct() {
        assert_ne!(Address::from_index(0), Address::from_index(1));
    }

    #[test]
    fn index_range_matches_from_index_for_every_remainder() {
        for start in [0, 3, 0xA110_0000, u64::MAX - 9] {
            for len in 0..=9 {
                let want: Vec<Address> = (start..start + len).map(Address::from_index).collect();
                assert_eq!(Address::from_index_range(start..start + len), want);
            }
        }
        // an inverted range is empty, as it is for the iterator
        let inverted = std::ops::Range { start: 5, end: 2 };
        assert!(Address::from_index_range(inverted).is_empty());
    }

    #[test]
    fn hex_roundtrip() {
        let data = vec![0u8, 1, 0xab, 0xff, 0x10];
        let s = to_hex(&data);
        assert_eq!(from_hex(&s).unwrap(), data);
        assert_eq!(from_hex(&format!("0x{s}")).unwrap(), data);
        assert!(from_hex("abc").is_none()); // odd length
        assert!(from_hex("zz").is_none()); // bad digit
    }

    #[test]
    fn hash_concat_matches() {
        assert_eq!(H256::hash_concat(&[b"ab", b"c"]), H256::hash(b"abc"));
    }

    #[test]
    fn default_digest_maps_share_the_process_seed() {
        let (a, b) = (DigestState::default(), DigestState::default());
        let key = Address::from_index(9);
        assert_eq!(a.hash_one(key), b.hash_one(key));
        assert_ne!(
            DigestState::with_seed(1).hash_one(key),
            DigestState::with_seed(2).hash_one(key)
        );
    }

    /// Pearson's χ² of `counts` against the uniform distribution.
    fn chi_square(counts: &[u32], samples: usize) -> f64 {
        let expected = samples as f64 / counts.len() as f64;
        let deviation = |&c: &u32| (f64::from(c) - expected).powi(2) / expected;
        counts.iter().map(deviation).sum()
    }

    #[test]
    fn digest_hash_spreads_addresses_at_both_ends() {
        // hashbrown takes its control byte from the top 7 bits and its
        // bucket from the low bits: both must look uniform. χ² over k
        // buckets has mean k - 1 and deviation √(2(k - 1)); allow 5σ.
        const KEYS: usize = 100_000;
        let keys: Vec<Address> = (0..KEYS as u64).map(Address::from_index).collect();
        for seed in [0, 1, 0xDEAD_BEEF, u64::MAX] {
            let state = DigestState::with_seed(seed);
            let mut top7 = vec![0u32; 1 << 7];
            let mut low16 = vec![0u32; 1 << 16];
            for key in &keys {
                let h = state.hash_one(key);
                top7[(h >> 57) as usize] += 1;
                low16[(h & 0xFFFF) as usize] += 1;
            }
            for counts in [&top7, &low16] {
                let dof = (counts.len() - 1) as f64;
                let chi = chi_square(counts, KEYS);
                let sigmas = (chi - dof) / (2.0 * dof).sqrt();
                assert!(
                    sigmas.abs() < 5.0,
                    "seed {seed:#x}, {} buckets: χ² {chi:.0} is {sigmas:.1}σ off",
                    counts.len()
                );
            }
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn digest_map_agrees_with_a_std_map(
            ops in proptest::collection::vec((0u8..4, 0u64..48, any::<u32>()), 0..400),
            seeds in (any::<u64>(), any::<u64>()),
        ) {
            let mut oracle = std::collections::HashMap::new();
            let mut maps = [seeds.0, seeds.1, seeds.0.wrapping_add(1)]
                .map(|seed| DigestMap::with_hasher(DigestState::with_seed(seed)));
            for (op, key, value) in ops {
                let key = (Address::from_index(key), Address::from_index(key / 7));
                for map in &mut maps {
                    match op {
                        0 => prop_assert_eq!(map.insert(key, value), oracle.get(&key).copied()),
                        1 => prop_assert_eq!(map.remove(&key), oracle.get(&key).copied()),
                        2 => {
                            let slot = map.entry(key).or_insert(7);
                            *slot = slot.wrapping_add(value);
                        }
                        _ => prop_assert_eq!(map.get(&key), oracle.get(&key)),
                    }
                }
                match op {
                    0 => drop(oracle.insert(key, value)),
                    1 => drop(oracle.remove(&key)),
                    2 => {
                        let slot = oracle.entry(key).or_insert(7);
                        *slot = slot.wrapping_add(value);
                    }
                    _ => {}
                }
            }
            // whatever the seed — and so whatever the iteration order —
            // the sorted export is the same
            let mut want: Vec<_> = oracle.into_iter().collect();
            want.sort_unstable();
            for map in maps {
                let mut got: Vec<_> = map.into_iter().collect();
                got.sort_unstable();
                prop_assert_eq!(&got, &want);
            }
        }
    }
}
