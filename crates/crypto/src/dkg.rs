//! Joint-Feldman distributed key generation (DKG).
//!
//! Each epoch committee in ammBoost runs a DKG to produce the committee
//! verification key `vk_c` (recorded on TokenBank by the *previous*
//! committee's sync) and per-member signing shares with threshold `2f + 2`
//! out of `3f + 2` (paper §IV-C "Authentication").
//!
//! The ceremony is the classic Feldman-verified protocol: every dealer
//! shares a random secret with public polynomial commitments in `G2`;
//! receivers verify their shares against the commitments and complain about
//! bad dealers; disqualified dealers are excluded from the qualified set,
//! whose combined constant terms define the group key.

use crate::bls::PublicKey;
use crate::field::Fr;
use crate::group::G2;
use crate::shamir::{Polynomial, Share};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Static parameters of a DKG ceremony.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DkgConfig {
    /// Number of participants (committee size, `3f + 2` in ammBoost).
    pub participants: usize,
    /// Reconstruction threshold (`2f + 2` in ammBoost).
    pub threshold: usize,
}

impl DkgConfig {
    /// Creates a config, validating `1 <= threshold <= participants`.
    ///
    /// # Panics
    /// Panics on invalid parameters.
    pub fn new(participants: usize, threshold: usize) -> DkgConfig {
        assert!(participants >= 1, "need at least one participant");
        assert!(
            (1..=participants).contains(&threshold),
            "threshold must be in 1..=participants"
        );
        DkgConfig {
            participants,
            threshold,
        }
    }

    /// The PBFT-style config used by ammBoost: committee of `3f + 2`,
    /// quorum / signing threshold `2f + 2`.
    pub fn for_faults(f: usize) -> DkgConfig {
        DkgConfig::new(3 * f + 2, 2 * f + 2)
    }
}

/// One dealer's contribution: Feldman commitments plus one share per
/// receiver.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Dealing {
    /// 1-based dealer index.
    pub dealer: u32,
    /// `g2 * a_k` for each polynomial coefficient `a_k` (constant first).
    pub commitments: Vec<G2>,
    /// Shares addressed to receivers `1..=n` (in index order).
    pub shares: Vec<Share>,
}

impl Dealing {
    /// Produces an honest dealing for `dealer` under `config`, drawing
    /// polynomial coefficients from `entropy`.
    pub fn deal<F: FnMut() -> [u8; 32]>(dealer: u32, config: DkgConfig, mut entropy: F) -> Dealing {
        let secret = Fr::from_entropy(entropy());
        let poly = Polynomial::random_with_secret(secret, config.threshold, &mut entropy);
        let commitments = poly
            .coefficients()
            .iter()
            .map(|&c| G2::generator() * c)
            .collect();
        Dealing {
            dealer,
            commitments,
            shares: poly.deal(config.participants),
        }
    }

    /// Feldman check: `g2 * share == Σ_k C_k * index^k`.
    fn verify_share(&self, share: &Share) -> bool {
        let mut expect = G2::IDENTITY;
        let x = Fr::from_u64(share.index as u64);
        let mut x_pow = Fr::ONE;
        for c in &self.commitments {
            expect = expect + *c * x_pow;
            x_pow = x_pow * x;
        }
        G2::generator() * share.value == expect
    }

    /// The dealer's committed constant term `g2 * a_0`.
    fn constant_commitment(&self) -> G2 {
        self.commitments[0]
    }

    /// Corrupts the share for `receiver` (test/fault-injection helper used
    /// to exercise the complaint path).
    pub fn corrupt_share_for(&mut self, receiver: u32) {
        for s in &mut self.shares {
            if s.index == receiver {
                s.value = s.value + Fr::ONE;
            }
        }
    }
}

/// A complaint raised by `accuser` against `dealer` whose share failed the
/// Feldman check.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Complaint {
    /// 1-based index of the complaining receiver.
    pub accuser: u32,
    /// 1-based index of the accused dealer.
    pub dealer: u32,
}

/// A participant's final key material.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct KeyShare {
    /// 1-based participant index.
    pub index: u32,
    /// Secret signing share `x_i = Σ_{d ∈ QUAL} f_d(i)`.
    pub secret: Fr,
    /// Public verification key `g2 * x_i`.
    pub verification_key: PublicKey,
}

/// The public outcome of a ceremony.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DkgOutput {
    /// The committee verification key `vk_c = g2 * Σ_{d ∈ QUAL} a_{d,0}`.
    pub group_public_key: PublicKey,
    /// Every participant's key share (in a real deployment each party only
    /// learns its own secret; the simulation returns all of them).
    pub key_shares: Vec<KeyShare>,
    /// Dealers that survived the complaint round.
    pub qualified: Vec<u32>,
    /// Complaints raised during verification.
    pub complaints: Vec<Complaint>,
    /// The ceremony parameters.
    pub config: DkgConfig,
}

/// Errors from running a ceremony.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DkgError {
    /// Fewer qualified dealers than the threshold requires; the ceremony
    /// must restart with a fresh committee.
    TooFewQualified {
        /// Number of dealers that survived complaints.
        qualified: usize,
        /// Required minimum.
        needed: usize,
    },
    /// A dealing was malformed (wrong share count or commitment length).
    MalformedDealing(u32),
}

impl std::fmt::Display for DkgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DkgError::TooFewQualified { qualified, needed } => {
                write!(f, "only {qualified} qualified dealers, need {needed}")
            }
            DkgError::MalformedDealing(d) => write!(f, "malformed dealing from {d}"),
        }
    }
}

impl std::error::Error for DkgError {}

/// Runs the verification + aggregation phase over collected dealings.
///
/// Dealings whose shares fail the Feldman check for any receiver are
/// disqualified (the complaint is recorded). The qualified dealers' secrets
/// are summed into the group key; shares are aggregated per receiver.
///
/// # Errors
/// Fails when fewer than `threshold` dealers qualify (liveness cannot be
/// guaranteed below the reconstruction threshold).
pub fn aggregate_dealings(config: DkgConfig, dealings: &[Dealing]) -> Result<DkgOutput, DkgError> {
    for d in dealings {
        if d.shares.len() != config.participants || d.commitments.len() != config.threshold {
            return Err(DkgError::MalformedDealing(d.dealer));
        }
    }

    let mut complaints = Vec::new();
    let mut disqualified: BTreeSet<u32> = BTreeSet::new();
    for d in dealings {
        for s in &d.shares {
            if !d.verify_share(s) {
                complaints.push(Complaint {
                    accuser: s.index,
                    dealer: d.dealer,
                });
                disqualified.insert(d.dealer);
            }
        }
    }

    let qualified: Vec<&Dealing> = dealings
        .iter()
        .filter(|d| !disqualified.contains(&d.dealer))
        .collect();
    if qualified.len() < config.threshold {
        return Err(DkgError::TooFewQualified {
            qualified: qualified.len(),
            needed: config.threshold,
        });
    }

    let group_point: G2 = qualified.iter().map(|d| d.constant_commitment()).sum();

    let mut key_shares = Vec::with_capacity(config.participants);
    for i in 1..=config.participants as u32 {
        let mut secret = Fr::ZERO;
        for d in &qualified {
            let share = d
                .shares
                .iter()
                .find(|s| s.index == i)
                .expect("dealing length checked above");
            secret = secret + share.value;
        }
        key_shares.push(KeyShare {
            index: i,
            secret,
            verification_key: PublicKey::from_point(G2::generator() * secret),
        });
    }

    Ok(DkgOutput {
        group_public_key: PublicKey::from_point(group_point),
        key_shares,
        qualified: qualified.iter().map(|d| d.dealer).collect(),
        complaints,
        config,
    })
}

/// Convenience: runs a full honest ceremony from a deterministic seed.
pub fn run_ceremony(config: DkgConfig, seed: u64) -> DkgOutput {
    let dealings: Vec<Dealing> = (1..=config.participants as u32)
        .map(|i| {
            let mut ctr: u64 = 0;
            Dealing::deal(i, config, move || {
                ctr += 1;
                crate::keccak::keccak256_concat(&[
                    b"DKG-ENTROPY",
                    &seed.to_be_bytes(),
                    &(i as u64).to_be_bytes(),
                    &ctr.to_be_bytes(),
                ])
            })
        })
        .collect();
    aggregate_dealings(config, &dealings).expect("honest ceremony cannot fail")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shamir::reconstruct_secret;

    #[test]
    fn honest_ceremony_produces_consistent_keys() {
        let config = DkgConfig::for_faults(1); // n = 5, t = 4
        let out = run_ceremony(config, 7);
        assert_eq!(out.key_shares.len(), 5);
        assert_eq!(out.qualified.len(), 5);
        assert!(out.complaints.is_empty());
        // Reconstructing the group secret from t shares must match the
        // group public key.
        let shares: Vec<Share> = out.key_shares[..4]
            .iter()
            .map(|k| Share {
                index: k.index,
                value: k.secret,
            })
            .collect();
        let group_secret = reconstruct_secret(&shares).unwrap();
        assert_eq!(G2::generator() * group_secret, out.group_public_key.point());
    }

    #[test]
    fn verification_keys_match_secrets() {
        let out = run_ceremony(DkgConfig::new(4, 3), 9);
        for ks in &out.key_shares {
            assert_eq!(ks.verification_key.point(), G2::generator() * ks.secret);
        }
    }

    #[test]
    fn corrupt_dealer_is_disqualified() {
        let config = DkgConfig::for_faults(1);
        let mut dealings: Vec<Dealing> = (1..=5u32)
            .map(|i| {
                let mut ctr = 0u64;
                Dealing::deal(i, config, move || {
                    ctr += 1;
                    crate::keccak::keccak256_concat(&[
                        b"T",
                        &(i as u64).to_be_bytes(),
                        &ctr.to_be_bytes(),
                    ])
                })
            })
            .collect();
        dealings[2].corrupt_share_for(4);
        let out = aggregate_dealings(config, &dealings).unwrap();
        assert_eq!(out.qualified, vec![1, 2, 4, 5]);
        assert_eq!(
            out.complaints,
            vec![Complaint {
                accuser: 4,
                dealer: 3
            }]
        );
    }

    #[test]
    fn too_many_corrupt_dealers_abort() {
        let config = DkgConfig::new(3, 3);
        let mut dealings: Vec<Dealing> = (1..=3u32)
            .map(|i| {
                let mut ctr = 0u64;
                Dealing::deal(i, config, move || {
                    ctr += 1;
                    crate::keccak::keccak256_concat(&[
                        b"U",
                        &(i as u64).to_be_bytes(),
                        &ctr.to_be_bytes(),
                    ])
                })
            })
            .collect();
        dealings[0].corrupt_share_for(2);
        let err = aggregate_dealings(config, &dealings).unwrap_err();
        assert_eq!(
            err,
            DkgError::TooFewQualified {
                qualified: 2,
                needed: 3
            }
        );
    }

    #[test]
    fn malformed_dealing_rejected() {
        let config = DkgConfig::new(3, 2);
        let mut ctr = 0u64;
        let mut d = Dealing::deal(1, config, move || {
            ctr += 1;
            crate::keccak::keccak256(&ctr.to_be_bytes())
        });
        d.shares.pop();
        let err = aggregate_dealings(config, &[d]).unwrap_err();
        assert_eq!(err, DkgError::MalformedDealing(1));
    }

    #[test]
    fn feldman_check_rejects_tampered_share() {
        let config = DkgConfig::new(4, 3);
        let mut ctr = 0u64;
        let d = Dealing::deal(1, config, move || {
            ctr += 1;
            crate::keccak::keccak256(&ctr.to_be_bytes())
        });
        let mut s = d.shares[0];
        assert!(d.verify_share(&s));
        s.value = s.value + Fr::ONE;
        assert!(!d.verify_share(&s));
    }

    #[test]
    fn for_faults_sizes() {
        let c = DkgConfig::for_faults(166); // paper's 500-member committee
        assert_eq!(c.participants, 500);
        assert_eq!(c.threshold, 334);
    }
}
