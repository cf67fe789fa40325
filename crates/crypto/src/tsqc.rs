//! Threshold-signature quorum certificates (TSQC).
//!
//! This is the sync-authentication mechanism of ammBoost (paper §IV-C): an
//! epoch committee holds DKG-generated shares of a BLS key whose public
//! verification key `vk_c` was recorded on TokenBank by the previous
//! committee. To authenticate a `Sync` call the committee members produce
//! *partial signatures* over the sync payload; any `2f + 2` valid partials
//! combine (via Lagrange interpolation in the exponent) into a single BLS
//! signature that TokenBank verifies against `vk_c` with one pairing check.
//!
//! The scheme is hash-then-sign: the signed point is `H2P(keccak256(payload))`,
//! so a party that already holds the payload digest (the `*_digest`
//! functions) never touches the payload again. The byte-slice functions
//! hash once and delegate.

use crate::bls::{PublicKey, Signature};
use crate::dkg::KeyShare;
use crate::field::Fr;
use crate::group::{G1, G2};
use crate::shamir::{lagrange_coefficient_at_zero, InterpolationError};
use crate::types::H256;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Domain tag for TSQC sync signatures.
const DST_TSQC: &[u8] = b"AMMBOOST-TSQC-SYNC-V1";

/// Returns `f` — the number of tolerated faults — for a committee of
/// `3f + 2` members (rounding down for other sizes).
pub fn max_faults(committee_size: usize) -> usize {
    committee_size.saturating_sub(2) / 3
}

/// The signing/quorum threshold `2f + 2` for a committee of `3f + 2`.
pub fn quorum_threshold(committee_size: usize) -> usize {
    2 * max_faults(committee_size) + 2
}

/// A partial signature from one committee member.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PartialSignature {
    /// 1-based share index of the signer.
    pub index: u32,
    /// `H(m) * x_i` where `x_i` is the signer's secret share.
    pub signature: Signature,
}

/// The point every TSQC signature is over: hash-to-point of the payload
/// digest under the TSQC domain tag.
fn sync_point(digest: &H256) -> G1 {
    G1::hash_to_point(DST_TSQC, digest.as_bytes())
}

/// The pairing equation `e(H2P(digest), vk) == e(sig, g2)`.
fn verify_point(vk: &PublicKey, digest: &H256, sig: &Signature) -> bool {
    crate::group::pairing_check(
        &sync_point(digest),
        &vk.point(),
        &sig.point(),
        &G2::generator(),
    )
}

/// Signs a message with a key share, producing a partial signature.
pub fn partial_sign(share: &KeyShare, msg: &[u8]) -> PartialSignature {
    partial_sign_digest(share, &H256::hash(msg))
}

/// [`partial_sign`] for a signer that already holds `keccak256(msg)`.
pub fn partial_sign_digest(share: &KeyShare, digest: &H256) -> PartialSignature {
    PartialSignature {
        index: share.index,
        signature: Signature::from_point(sync_point(digest) * share.secret),
    }
}

/// Verifies a partial signature against the signer's public verification
/// key `vk_i = g2 * x_i` (published by the DKG).
pub fn verify_partial(vk_i: &PublicKey, msg: &[u8], partial: &PartialSignature) -> bool {
    verify_point(vk_i, &H256::hash(msg), &partial.signature)
}

/// Errors from combining partial signatures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CombineError {
    /// Fewer distinct partials than the threshold.
    BelowThreshold {
        /// Distinct partials supplied.
        have: usize,
        /// Required threshold.
        need: usize,
    },
    /// Interpolation failure (duplicate indices).
    Interpolation(InterpolationError),
}

impl std::fmt::Display for CombineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CombineError::BelowThreshold { have, need } => {
                write!(f, "{have} partial signatures, threshold is {need}")
            }
            CombineError::Interpolation(e) => write!(f, "interpolation: {e}"),
        }
    }
}

impl std::error::Error for CombineError {}

impl From<InterpolationError> for CombineError {
    fn from(e: InterpolationError) -> Self {
        CombineError::Interpolation(e)
    }
}

/// Combines at least `threshold` partial signatures into the group
/// signature via Lagrange interpolation in the exponent. Duplicate indices
/// are collapsed before interpolation.
///
/// # Errors
/// Fails below threshold. Partials are **not** individually verified here —
/// callers either verify each partial (`verify_partial`) or verify the
/// combined signature against the group key, as TokenBank does.
pub fn combine(partials: &[PartialSignature], threshold: usize) -> Result<Signature, CombineError> {
    combine_indexed(partials, threshold).map(|(sig, _)| sig)
}

/// [`combine`], also returning the (ascending) share indices whose partials
/// were interpolated: the first `threshold` distinct ones.
fn combine_indexed(
    partials: &[PartialSignature],
    threshold: usize,
) -> Result<(Signature, Vec<u32>), CombineError> {
    let mut unique: BTreeMap<u32, Signature> = BTreeMap::new();
    for p in partials {
        unique.entry(p.index).or_insert(p.signature);
    }
    if unique.len() < threshold {
        return Err(CombineError::BelowThreshold {
            have: unique.len(),
            need: threshold,
        });
    }
    let chosen: Vec<(u32, Signature)> = unique.into_iter().take(threshold).collect();
    let indices: Vec<u32> = chosen.iter().map(|(i, _)| *i).collect();
    let mut acc = G1::IDENTITY;
    for (i, sig) in &chosen {
        let lambda: Fr = lagrange_coefficient_at_zero(&indices, *i)?;
        acc = acc + sig.point() * lambda;
    }
    Ok((Signature::from_point(acc), indices))
}

/// A quorum certificate: the combined threshold signature over a sync
/// payload plus the metadata TokenBank needs to check it.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuorumCertificate {
    /// Epoch the certificate belongs to.
    pub epoch: u64,
    /// Keccak-256 of the signed payload.
    pub payload_hash: H256,
    /// Combined threshold BLS signature.
    pub signature: Signature,
    /// Share indices whose partials were combined, ascending (for audit;
    /// verification only needs the signature).
    pub signers: Vec<u32>,
}

impl QuorumCertificate {
    /// Assembles a certificate from partials over `payload`.
    ///
    /// # Errors
    /// Propagates [`CombineError`] when below threshold.
    pub fn assemble(
        epoch: u64,
        payload: &[u8],
        partials: &[PartialSignature],
        threshold: usize,
    ) -> Result<QuorumCertificate, CombineError> {
        Self::assemble_digest(epoch, H256::hash(payload), partials, threshold)
    }

    /// [`assemble`](Self::assemble) from partials over the payload whose
    /// Keccak-256 is `payload_hash`.
    ///
    /// # Errors
    /// Propagates [`CombineError`] when below threshold.
    pub fn assemble_digest(
        epoch: u64,
        payload_hash: H256,
        partials: &[PartialSignature],
        threshold: usize,
    ) -> Result<QuorumCertificate, CombineError> {
        let (signature, signers) = combine_indexed(partials, threshold)?;
        Ok(QuorumCertificate {
            epoch,
            payload_hash,
            signature,
            signers,
        })
    }

    /// Verifies the certificate against the committee key `vk_c` and the
    /// expected payload — exactly TokenBank's check: recompute the payload
    /// hash, hash-to-point, one pairing equation.
    pub fn verify(&self, vk_c: &PublicKey, payload: &[u8]) -> bool {
        self.verify_digest(vk_c, &H256::hash(payload))
    }

    /// [`verify`](Self::verify) for a verifier that has already recomputed
    /// `keccak256(payload)` from its own copy of the payload.
    pub fn verify_digest(&self, vk_c: &PublicKey, digest: &H256) -> bool {
        *digest == self.payload_hash && verify_point(vk_c, digest, &self.signature)
    }

    /// Serialized size on the mainchain in bytes: 64-byte signature (the
    /// `vk_c` itself is stored separately — 128 bytes — when the previous
    /// epoch registers it; see paper Table IV).
    pub fn mainchain_signature_size(&self) -> usize {
        64
    }
}

impl PublicKey {
    /// Verifies a *combined* TSQC signature over `msg` (the raw form used
    /// before wrapping into a [`QuorumCertificate`]).
    pub fn verify_raw_tsqc(&self, msg: &[u8], sig: &Signature) -> bool {
        verify_point(self, &H256::hash(msg), sig)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dkg::{run_ceremony, DkgConfig};

    fn setup(f: usize, seed: u64) -> crate::dkg::DkgOutput {
        run_ceremony(DkgConfig::for_faults(f), seed)
    }

    #[test]
    fn thresholds_match_paper_formula() {
        assert_eq!(max_faults(5), 1);
        assert_eq!(quorum_threshold(5), 4);
        assert_eq!(max_faults(500), 166);
        assert_eq!(quorum_threshold(500), 334);
    }

    #[test]
    fn combine_reaches_group_signature() {
        let out = setup(1, 11); // n=5, t=4
        let msg = b"sync payload epoch 3";
        let partials: Vec<_> = out.key_shares[..4]
            .iter()
            .map(|k| partial_sign(k, msg))
            .collect();
        let sig = combine(&partials, 4).unwrap();
        assert!(out.group_public_key.verify_raw_tsqc(msg, &sig));
    }

    #[test]
    fn any_threshold_subset_combines_identically() {
        let out = setup(1, 12);
        let msg = b"payload";
        let all: Vec<_> = out
            .key_shares
            .iter()
            .map(|k| partial_sign(k, msg))
            .collect();
        let s1 = combine(&all[..4], 4).unwrap();
        let s2 = combine(&all[1..5], 4).unwrap();
        assert_eq!(s1, s2);
    }

    #[test]
    fn below_threshold_fails() {
        let out = setup(1, 13);
        let partials: Vec<_> = out.key_shares[..3]
            .iter()
            .map(|k| partial_sign(k, b"m"))
            .collect();
        assert!(matches!(
            combine(&partials, 4),
            Err(CombineError::BelowThreshold { have: 3, need: 4 })
        ));
    }

    #[test]
    fn duplicates_do_not_count_twice() {
        let out = setup(1, 14);
        let p = partial_sign(&out.key_shares[0], b"m");
        let partials = vec![p, p, p, p];
        assert!(matches!(
            combine(&partials, 4),
            Err(CombineError::BelowThreshold { have: 1, need: 4 })
        ));
    }

    #[test]
    fn partial_verification() {
        let out = setup(1, 15);
        let msg = b"partial check";
        let p = partial_sign(&out.key_shares[2], msg);
        let vk = out.key_shares[2].verification_key;
        assert!(verify_partial(&vk, msg, &p));
        assert!(!verify_partial(&vk, b"other", &p));
        let wrong_vk = out.key_shares[3].verification_key;
        assert!(!verify_partial(&wrong_vk, msg, &p));
    }

    #[test]
    fn quorum_certificate_roundtrip() {
        let out = setup(1, 16);
        let payload = b"Sync(payouts=..., positions=...)";
        let partials: Vec<_> = out.key_shares[1..5]
            .iter()
            .map(|k| partial_sign(k, payload))
            .collect();
        let qc = QuorumCertificate::assemble(3, payload, &partials, 4).unwrap();
        assert!(qc.verify(&out.group_public_key, payload));
        assert!(!qc.verify(&out.group_public_key, b"forged payload"));
        assert_eq!(qc.signers, vec![2, 3, 4, 5]);
        assert_eq!(qc.mainchain_signature_size(), 64);
    }

    #[test]
    fn certificate_names_exactly_the_combined_signers() {
        let out = setup(2, 20); // n=8, t=6
        let payload = b"sync";
        // threshold + 2 partials, out of order and with a duplicate
        let mut partials: Vec<_> = out
            .key_shares
            .iter()
            .rev()
            .map(|k| partial_sign(k, payload))
            .collect();
        partials.push(partials[0]);
        let qc = QuorumCertificate::assemble(1, payload, &partials, 6).unwrap();
        // shares 7 and 8 were supplied but never interpolated
        assert_eq!(qc.signers, vec![1, 2, 3, 4, 5, 6]);
        assert!(qc.verify(&out.group_public_key, payload));
    }

    #[test]
    fn certificate_from_wrong_committee_rejected() {
        let out_a = setup(1, 17);
        let out_b = setup(1, 18);
        let payload = b"sync";
        let partials: Vec<_> = out_b.key_shares[..4]
            .iter()
            .map(|k| partial_sign(k, payload))
            .collect();
        let qc = QuorumCertificate::assemble(1, payload, &partials, 4).unwrap();
        assert!(qc.verify(&out_b.group_public_key, payload));
        assert!(!qc.verify(&out_a.group_public_key, payload));
    }

    #[test]
    fn forged_partial_breaks_combined_signature() {
        let out = setup(1, 19);
        let msg = b"sync";
        let mut partials: Vec<_> = out.key_shares[..4]
            .iter()
            .map(|k| partial_sign(k, msg))
            .collect();
        // adversary swaps in a partial over a different message
        partials[0] = partial_sign(&out.key_shares[0], b"evil");
        let sig = combine(&partials, 4).unwrap();
        assert!(!out.group_public_key.verify_raw_tsqc(msg, &sig));
    }
}
