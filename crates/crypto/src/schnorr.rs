//! Schnorr signatures for ordinary user transactions (deposits, swaps,
//! mints, burns, collects). Deterministic nonces, Fiat–Shamir challenge
//! over Keccak-256.

use crate::field::Fr;
use crate::group::G1;
use crate::keccak::keccak256_concat;
use crate::types::Address;
use serde::{Deserialize, Serialize};

const DST_NONCE: &[u8] = b"AMMBOOST-SCHNORR-NONCE";
const DST_CHAL: &[u8] = b"AMMBOOST-SCHNORR-CHAL";

/// A Schnorr keypair for a client or liquidity provider.
#[derive(Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Keypair {
    sk: Fr,
    /// The public key `g1 * sk`.
    pub pk: G1,
}

impl std::fmt::Debug for Keypair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Keypair").field("pk", &self.pk).finish()
    }
}

/// A Schnorr signature `(R, s)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchnorrSignature {
    /// Nonce commitment `g1 * k`.
    pub r: G1,
    /// Response `s = k + e * sk`.
    pub s: Fr,
}

impl SchnorrSignature {
    /// Wire size in bytes (64-byte point + 32-byte scalar); used by
    /// transaction-size accounting.
    pub const SERIALIZED_LEN: usize = 96;
}

impl Keypair {
    /// Derives a keypair from 32 bytes of entropy.
    pub fn from_entropy(entropy: [u8; 32]) -> Keypair {
        let mut sk = Fr::from_entropy(entropy);
        if sk.is_zero() {
            sk = Fr::ONE;
        }
        Keypair {
            sk,
            pk: G1::generator() * sk,
        }
    }

    /// Deterministic keypair for simulated user `index` under `seed`.
    #[doc(alias = "PartySetup")]
    pub fn from_seed(seed: u64, index: u64) -> Keypair {
        Keypair::from_entropy(keccak256_concat(&[
            b"AMMBOOST-USER",
            &seed.to_be_bytes(),
            &index.to_be_bytes(),
        ]))
    }

    /// The user's 20-byte account address (keccak of the public key).
    pub fn address(&self) -> Address {
        Address::from_pubkey_bytes(&self.pk.to_bytes())
    }

    /// Signs `msg`.
    pub fn sign(&self, msg: &[u8]) -> SchnorrSignature {
        let k =
            Fr::from_be_bytes_reduced(keccak256_concat(&[DST_NONCE, &self.sk.to_be_bytes(), msg]));
        let r = G1::generator() * k;
        let e = challenge(&r, &self.pk, msg);
        SchnorrSignature {
            r,
            s: k + e * self.sk,
        }
    }
}

/// Verifies a Schnorr signature: `g1 * s == R + pk * e`.
pub fn verify(pk: &G1, msg: &[u8], sig: &SchnorrSignature) -> bool {
    let e = challenge(&sig.r, pk, msg);
    G1::generator() * sig.s == sig.r + *pk * e
}

fn challenge(r: &G1, pk: &G1, msg: &[u8]) -> Fr {
    Fr::from_be_bytes_reduced(keccak256_concat(&[
        DST_CHAL,
        &r.to_bytes(),
        &pk.to_bytes(),
        msg,
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_verify() {
        let kp = Keypair::from_seed(1, 1);
        let sig = kp.sign(b"swap 5 A for B");
        assert!(verify(&kp.pk, b"swap 5 A for B", &sig));
        assert!(!verify(&kp.pk, b"swap 6 A for B", &sig));
    }

    #[test]
    fn wrong_key_fails() {
        let a = Keypair::from_seed(1, 1);
        let b = Keypair::from_seed(1, 2);
        let sig = a.sign(b"m");
        assert!(!verify(&b.pk, b"m", &sig));
    }

    #[test]
    fn tampered_signature_fails() {
        let kp = Keypair::from_seed(1, 3);
        let mut sig = kp.sign(b"m");
        sig.s = sig.s + Fr::ONE;
        assert!(!verify(&kp.pk, b"m", &sig));
    }

    #[test]
    fn deterministic_signatures() {
        let kp = Keypair::from_seed(9, 9);
        assert_eq!(kp.sign(b"m"), kp.sign(b"m"));
    }

    #[test]
    fn addresses_are_stable_and_distinct() {
        let a = Keypair::from_seed(1, 10).address();
        let b = Keypair::from_seed(1, 11).address();
        assert_eq!(a, Keypair::from_seed(1, 10).address());
        assert_ne!(a, b);
    }
}
