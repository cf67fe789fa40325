//! # ammboost-crypto
//!
//! The cryptographic substrate of the ammBoost reproduction: everything the
//! paper's sidechain and TokenBank contract need, implemented from scratch.
//!
//! - [`u256`] — 256/512-bit integers (also the basis of the AMM fixed-point
//!   math in `ammboost-amm`).
//! - [`keccak`] — spec-conformant Keccak-256 (Ethereum variant).
//! - [`types`] — [`H256`] digests, [`Address`]es
//!   and the seeded [`DigestMap`] keyed by them.
//! - [`field`] — the BN254 scalar field `F_r`.
//! - [`group`] — a bilinear-group abstraction with a transparent backend
//!   (see the module docs and the README's "Sync authentication" section
//!   for the substitution rationale).
//! - [`bls`] — BLS signatures with aggregation and proofs of possession.
//! - [`shamir`] — secret sharing and Lagrange interpolation.
//! - [`dkg`] — joint-Feldman distributed key generation.
//! - [`tsqc`] — threshold-signature quorum certificates, ammBoost's
//!   sync-authentication mechanism.
//! - [`vrf`] — ECVRF-style verifiable random function for sortition.
//! - [`schnorr`] — user transaction signatures.
//! - [`merkle`] — Keccak Merkle trees and inclusion proofs.
//!
//! ```
//! use ammboost_crypto::{dkg, tsqc};
//!
//! // A committee of 3f+2 = 5 runs DKG, then 2f+2 = 4 members authenticate
//! // a sync payload with a threshold signature.
//! let out = dkg::run_ceremony(dkg::DkgConfig::for_faults(1), 7);
//! let payload = b"Sync(epoch=1)";
//! let partials: Vec<_> = out.key_shares[..4]
//!     .iter()
//!     .map(|ks| tsqc::partial_sign(ks, payload))
//!     .collect();
//! let qc = tsqc::QuorumCertificate::assemble(1, payload, &partials, 4)?;
//! assert!(qc.verify(&out.group_public_key, payload));
//! # Ok::<(), tsqc::CombineError>(())
//! ```

#![warn(missing_docs)]

pub mod bls;
pub mod dkg;
pub mod field;
pub mod group;
pub mod keccak;
pub mod merkle;
pub mod schnorr;
pub mod shamir;
pub mod tsqc;
pub mod types;
pub mod u256;
pub mod vrf;

pub use field::Fr;
pub use types::{Address, DigestMap, DigestState, H256};
pub use u256::{U256, U512};
