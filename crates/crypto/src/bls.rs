//! BLS signatures over the bilinear group of [`crate::group`].
//!
//! Secret keys are scalars, public keys live in `G2`, signatures in `G1`
//! (the "minimal-signature" configuration the paper uses: 64-byte
//! signatures, 128-byte public keys on the mainchain). Supports aggregation;
//! the threshold variant lives in [`crate::tsqc`]. Proofs of possession
//! are test-only: no committee key is registered through one.

use crate::field::Fr;
use crate::group::{pairing_check, G1, G2};
use crate::keccak::keccak256_concat;
use serde::{Deserialize, Serialize};

/// Domain-separation tag for ordinary message signatures.
const DST_SIG: &[u8] = b"AMMBOOST-BLS-SIG-V1";
/// Domain-separation tag for proofs of possession.
#[cfg(test)]
const DST_POP: &[u8] = b"AMMBOOST-BLS-POP-V1";

/// A BLS secret key.
#[derive(Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SecretKey(Fr);

impl std::fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        write!(f, "SecretKey(..)")
    }
}

/// A BLS public key (an element of `G2`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct PublicKey(pub(crate) G2);

/// A BLS signature (an element of `G1`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct Signature(pub(crate) G1);

impl SecretKey {
    /// Constructs a secret key from a field element.
    ///
    /// # Panics
    /// Panics if `scalar` is zero (the identity key is forbidden).
    pub fn from_scalar(scalar: Fr) -> SecretKey {
        assert!(!scalar.is_zero(), "secret key must be non-zero");
        SecretKey(scalar)
    }

    /// Derives a secret key from 32 bytes of entropy.
    pub fn from_entropy(entropy: [u8; 32]) -> SecretKey {
        let mut fr = Fr::from_entropy(entropy);
        if fr.is_zero() {
            fr = Fr::ONE; // probability 2^-254; keep total function
        }
        SecretKey(fr)
    }

    /// Returns the corresponding public key.
    pub fn public_key(&self) -> PublicKey {
        PublicKey(G2::generator() * self.0)
    }

    /// Signs a message.
    pub fn sign(&self, msg: &[u8]) -> Signature {
        let h = G1::hash_to_point(DST_SIG, msg);
        Signature(h * self.0)
    }

    /// Produces a proof of possession (a signature over the public key),
    /// defending aggregate verification against rogue-key attacks.
    #[cfg(test)]
    fn prove_possession(&self) -> Signature {
        let pk = self.public_key();
        let h = G1::hash_to_point(DST_POP, &pk.to_bytes());
        Signature(h * self.0)
    }

    /// Exposes the underlying scalar (crate-internal; the threshold layer
    /// needs it for share arithmetic).
    #[allow(dead_code)]
    pub(crate) fn scalar(&self) -> Fr {
        self.0
    }
}

impl PublicKey {
    /// Verifies `sig` over `msg` under this key.
    pub fn verify(&self, msg: &[u8], sig: &Signature) -> bool {
        let h = G1::hash_to_point(DST_SIG, msg);
        pairing_check(&h, &self.0, &sig.0, &G2::generator())
    }

    /// Verifies a proof of possession.
    #[cfg(test)]
    fn verify_possession(&self, pop: &Signature) -> bool {
        let h = G1::hash_to_point(DST_POP, &self.to_bytes());
        pairing_check(&h, &self.0, &pop.0, &G2::generator())
    }

    /// Canonical byte encoding (128 bytes, matching an uncompressed BN254
    /// G2 point — the `vk_c` size in the paper's Table IV).
    pub fn to_bytes(&self) -> Vec<u8> {
        self.0.to_bytes()
    }

    /// Aggregates public keys (sum in `G2`).
    pub fn aggregate<'a, I: IntoIterator<Item = &'a PublicKey>>(keys: I) -> PublicKey {
        PublicKey(keys.into_iter().map(|k| k.0).sum())
    }

    pub(crate) fn point(&self) -> G2 {
        self.0
    }

    pub(crate) fn from_point(p: G2) -> PublicKey {
        PublicKey(p)
    }
}

impl Signature {
    /// Canonical byte encoding (64 bytes, the paper's Table IV signature
    /// size on the mainchain).
    pub fn to_bytes(&self) -> Vec<u8> {
        self.0.to_bytes()
    }

    /// Aggregates signatures (sum in `G1`).
    pub fn aggregate<'a, I: IntoIterator<Item = &'a Signature>>(sigs: I) -> Signature {
        Signature(sigs.into_iter().map(|s| s.0).sum())
    }

    pub(crate) fn point(&self) -> G1 {
        self.0
    }

    pub(crate) fn from_point(p: G1) -> Signature {
        Signature(p)
    }
}

/// Verifies an aggregate signature where **all signers signed the same
/// message** (the CoSi/TSQC case): `e(H(m), Σpk) == e(Σsig, g2)`.
///
/// Callers must have checked proofs of possession for every key. The
/// node's certificates go through `tsqc` instead; this is the aggregate
/// check its tests state the scheme with.
#[cfg(test)]
fn verify_same_message(keys: &[PublicKey], msg: &[u8], aggregate: &Signature) -> bool {
    if keys.is_empty() {
        return false;
    }
    let apk = PublicKey::aggregate(keys);
    apk.verify(msg, aggregate)
}

/// Deterministically derives a keypair from a seed and an index — handy for
/// simulations that need thousands of reproducible miner identities.
pub fn keypair_from_seed(seed: u64, index: u64) -> (SecretKey, PublicKey) {
    let digest = keccak256_concat(&[
        b"AMMBOOST-KEYGEN",
        &seed.to_be_bytes(),
        &index.to_be_bytes(),
    ]);
    let sk = SecretKey::from_entropy(digest);
    let pk = sk.public_key();
    (sk, pk)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u64) -> SecretKey {
        keypair_from_seed(42, i).0
    }

    #[test]
    fn sign_verify_roundtrip() {
        let sk = key(1);
        let pk = sk.public_key();
        let sig = sk.sign(b"epoch-7 sync");
        assert!(pk.verify(b"epoch-7 sync", &sig));
        assert!(!pk.verify(b"epoch-8 sync", &sig));
    }

    #[test]
    fn wrong_key_rejects() {
        let sig = key(1).sign(b"msg");
        assert!(!key(2).public_key().verify(b"msg", &sig));
    }

    #[test]
    fn aggregate_same_message() {
        let sks: Vec<_> = (0..5).map(key).collect();
        let pks: Vec<_> = sks.iter().map(|s| s.public_key()).collect();
        let sigs: Vec<_> = sks.iter().map(|s| s.sign(b"sync")).collect();
        let agg = Signature::aggregate(&sigs);
        assert!(verify_same_message(&pks, b"sync", &agg));
        assert!(!verify_same_message(&pks, b"other", &agg));
        // dropping one signer breaks the aggregate
        let partial = Signature::aggregate(&sigs[..4]);
        assert!(!verify_same_message(&pks, b"sync", &partial));
    }

    #[test]
    fn empty_key_set_rejects() {
        let agg = Signature::aggregate(&[]);
        assert!(!verify_same_message(&[], b"m", &agg));
    }

    #[test]
    fn proof_of_possession() {
        let sk = key(9);
        let pop = sk.prove_possession();
        assert!(sk.public_key().verify_possession(&pop));
        assert!(!key(10).public_key().verify_possession(&pop));
        // A PoP is not a valid message signature for the pk bytes (domain
        // separation).
        let pk = sk.public_key();
        assert!(!pk.verify(&pk.to_bytes(), &pop));
    }

    #[test]
    fn deterministic_keygen() {
        assert_eq!(keypair_from_seed(7, 3).1, keypair_from_seed(7, 3).1);
        assert_ne!(keypair_from_seed(7, 3).1, keypair_from_seed(7, 4).1);
        assert_ne!(keypair_from_seed(8, 3).1, keypair_from_seed(7, 3).1);
    }

    #[test]
    fn signature_sizes_match_paper() {
        let sk = key(1);
        assert_eq!(sk.sign(b"m").to_bytes().len(), 64);
        assert_eq!(sk.public_key().to_bytes().len(), 128);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_secret_key_panics() {
        let _ = SecretKey::from_scalar(Fr::ZERO);
    }
}
