//! A bilinear group abstraction with a *transparent* BN254-scalar backend.
//!
//! # Substitution note (see README, "Sync authentication")
//!
//! The paper's proof-of-concept verifies BLS threshold signatures over the
//! BN256 curve via Ethereum's EIP-196/197 precompiles. Implementing the
//! full curve + optimal-ate pairing is out of scope here, so this module
//! provides the **trivial bilinear group**: an element of `G1`/`G2`/`Gt`
//! is represented by its discrete logarithm to the fixed generator, i.e.
//! `G1(x)` *is* `g1^x`. Group law = scalar addition, pairing
//! `e(g1^a, g2^b) = gt^(ab)` = scalar multiplication. Every verification
//! equation, Lagrange identity and aggregation rule that holds for a real
//! pairing holds here exactly — only discrete-log hardness is absent, which
//! no experiment in the paper depends on (gas for on-chain verification is
//! charged by precompile *invocation count* in `ammboost-mainchain`).
//!
//! All higher layers (BLS, DKG, TSQC, VRF) are written against this module's
//! API, so a constant-time curve backend could be slotted in without touching
//! protocol code.

use crate::field::Fr;
use crate::keccak::keccak256_concat;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// Serialized size of a `G1` element in bytes (uncompressed BN254 point:
/// two 32-byte coordinates). Used for wire/storage accounting.
pub const G1_SERIALIZED_LEN: usize = 64;
/// Serialized size of a `G2` element in bytes (two Fp2 coordinates).
pub const G2_SERIALIZED_LEN: usize = 128;

macro_rules! group_impl {
    ($name:ident, $doc:literal, $tag:literal, $ser_len:expr) => {
        #[doc = $doc]
        #[derive(Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
        pub struct $name(Fr);

        impl $name {
            /// The identity element.
            pub const IDENTITY: $name = $name(Fr::ZERO);

            /// The fixed group generator.
            pub fn generator() -> $name {
                $name(Fr::ONE)
            }

            /// Scalar multiplication `self * k` (i.e. `self^k` in
            /// multiplicative notation).
            pub fn mul_scalar(&self, k: Fr) -> $name {
                $name(self.0 * k)
            }

            /// Returns `true` for the identity element.
            pub fn is_identity(&self) -> bool {
                self.0.is_zero()
            }

            /// Hashes arbitrary bytes to a group element
            /// (hash-to-field then scalar-mul of the generator, the same
            /// structure as the paper's Keccak+ecMul hash-to-point).
            pub fn hash_to_point(domain: &[u8], msg: &[u8]) -> $name {
                let digest = keccak256_concat(&[$tag, domain, msg]);
                $name(Fr::from_be_bytes_reduced(digest))
            }

            /// Canonical byte encoding (the discrete log, zero-padded to the
            /// real uncompressed point size so storage accounting matches a
            /// curve backend).
            pub fn to_bytes(&self) -> Vec<u8> {
                let mut out = vec![0u8; Self::serialized_len()];
                let scalar = self.0.to_be_bytes();
                let off = Self::serialized_len() - scalar.len();
                out[off..].copy_from_slice(&scalar);
                out
            }

            /// Serialized length in bytes for this group.
            pub const fn serialized_len() -> usize {
                $ser_len
            }

            pub(crate) fn exponent(&self) -> Fr {
                self.0
            }

            #[allow(dead_code)] // parity across the two groups; used via G1
            pub(crate) fn from_exponent(x: Fr) -> $name {
                $name(x)
            }
        }

        impl Add for $name {
            type Output = $name;
            fn add(self, rhs: $name) -> $name {
                $name(self.0 + rhs.0)
            }
        }

        impl Sub for $name {
            type Output = $name;
            fn sub(self, rhs: $name) -> $name {
                $name(self.0 - rhs.0)
            }
        }

        impl Neg for $name {
            type Output = $name;
            fn neg(self) -> $name {
                $name(-self.0)
            }
        }

        impl Mul<Fr> for $name {
            type Output = $name;
            fn mul(self, k: Fr) -> $name {
                self.mul_scalar(k)
            }
        }

        impl std::iter::Sum for $name {
            fn sum<I: Iterator<Item = $name>>(iter: I) -> $name {
                iter.fold($name::IDENTITY, |a, b| a + b)
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({:?})"), self.0)
            }
        }
    };
}

group_impl!(
    G1,
    "An element of the source group `G1` (signatures, VRF outputs live here).",
    b"G1",
    G1_SERIALIZED_LEN
);
group_impl!(
    G2,
    "An element of the source group `G2` (public keys live here).",
    b"G2",
    G2_SERIALIZED_LEN
);

/// An element of the target group `Gt` (pairing outputs).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Gt(Fr);

impl Gt {
    /// The identity element of the target group.
    pub const IDENTITY: Gt = Gt(Fr::ZERO);

    /// Group operation in `Gt` (written additively on exponents).
    pub fn combine(&self, other: &Gt) -> Gt {
        Gt(self.0 + other.0)
    }
}

impl fmt::Debug for Gt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Gt({:?})", self.0)
    }
}

/// The bilinear pairing `e: G1 × G2 → Gt`.
///
/// Satisfies `e(a·P, b·Q) = e(P, Q)^(ab)` exactly.
pub fn pairing(p: &G1, q: &G2) -> Gt {
    Gt(p.exponent() * q.exponent())
}

/// Checks the two-pairing product equation `e(p1, q1) == e(p2, q2)`, the
/// exact check the BLS verifier performs (and what the EVM `ecPairing`
/// precompile computes with k = 2).
pub fn pairing_check(p1: &G1, q1: &G2, p2: &G1, q2: &G2) -> bool {
    pairing(p1, q1) == pairing(p2, q2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_and_identity() {
        assert!(G1::IDENTITY.is_identity());
        assert!(!G1::generator().is_identity());
        assert_eq!(G1::generator() + G1::IDENTITY, G1::generator());
    }

    #[test]
    fn scalar_mul_distributes() {
        let a = Fr::from_u64(7);
        let b = Fr::from_u64(11);
        let g = G1::generator();
        assert_eq!(g * a + g * b, g * (a + b));
        assert_eq!((g * a) * b, g * (a * b));
    }

    #[test]
    fn bilinearity() {
        let a = Fr::from_u64(123);
        let b = Fr::from_u64(456);
        let p = G1::generator() * a;
        let q = G2::generator() * b;
        let lhs = pairing(&p, &q);
        let rhs = pairing(&(G1::generator() * (a * b)), &G2::generator());
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn pairing_check_bls_shape() {
        // e(H(m), pk) == e(sig, g2) with sig = H(m)*sk, pk = g2*sk
        let sk = Fr::from_u128(998877665544332211u128);
        let h = G1::hash_to_point(b"bls", b"message");
        let sig = h * sk;
        let pk = G2::generator() * sk;
        assert!(pairing_check(&h, &pk, &sig, &G2::generator()));
        // wrong message fails
        let h2 = G1::hash_to_point(b"bls", b"other");
        assert!(!pairing_check(&h2, &pk, &sig, &G2::generator()));
    }

    #[test]
    fn hash_to_point_domain_separation() {
        let a = G1::hash_to_point(b"domain-a", b"msg");
        let b = G1::hash_to_point(b"domain-b", b"msg");
        assert_ne!(a, b);
        // deterministic
        assert_eq!(a, G1::hash_to_point(b"domain-a", b"msg"));
    }

    #[test]
    fn serialized_lengths_match_bn254() {
        assert_eq!(G1::generator().to_bytes().len(), 64);
        assert_eq!(G2::generator().to_bytes().len(), 128);
    }

    #[test]
    fn sum_of_elements() {
        let g = G1::generator();
        let total: G1 = (1..=4u64).map(|i| g * Fr::from_u64(i)).sum();
        assert_eq!(total, g * Fr::from_u64(10));
    }

    #[test]
    fn neg_and_sub() {
        let g = G2::generator() * Fr::from_u64(9);
        assert_eq!(g - g, G2::IDENTITY);
        assert_eq!(g + (-g), G2::IDENTITY);
    }
}
