//! A verifiable random function (VRF) in the ECVRF style, used for
//! cryptographic-sortition committee election (paper §IV-A, Appendix A).
//!
//! `eval` produces `gamma = H1(m) * sk` together with a Chaum–Pedersen DLEQ
//! proof that `log_{g2}(pk) == log_{H1(m)}(gamma)`; the VRF output is
//! `keccak256(gamma)`. The proof is exactly the election proof ammBoost
//! committees attach when handing `vk_c` to the previous committee.

use crate::field::Fr;
use crate::group::{G1, G2};
use crate::keccak::{keccak256_concat, keccak256_x4_concat};
use crate::types::H256;
use serde::{Deserialize, Serialize};
use std::array::from_fn;

const DST_VRF_H1: &[u8] = b"AMMBOOST-VRF-H1";
const DST_VRF_NONCE: &[u8] = b"AMMBOOST-VRF-NONCE";
const DST_VRF_CHALLENGE: &[u8] = b"AMMBOOST-VRF-CHAL";
const DST_VRF_OUTPUT: &[u8] = b"AMMBOOST-VRF-OUT";

/// A VRF secret key.
#[derive(Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct VrfSecretKey(Fr);

impl std::fmt::Debug for VrfSecretKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "VrfSecretKey(..)")
    }
}

/// A VRF public key (`g2 * sk`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct VrfPublicKey(G2);

/// A VRF evaluation proof: `gamma` plus the DLEQ transcript `(c, s)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct VrfProof {
    /// `H1(m) * sk` — determines the output.
    pub gamma: G1,
    /// Fiat–Shamir challenge.
    pub c: Fr,
    /// Response `s = k - c * sk`.
    pub s: Fr,
}

/// A VRF input with its point `H1(input)` hashed once, so a population
/// evaluating or verifying on the *same* input (an election) does not
/// re-derive it per key.
#[derive(Clone, Copy, Debug)]
pub struct VrfInput<'a> {
    bytes: &'a [u8],
    h: G1,
}

impl<'a> VrfInput<'a> {
    /// Hashes `bytes` to its curve point.
    pub fn new(bytes: &'a [u8]) -> VrfInput<'a> {
        let h = G1::hash_to_point(DST_VRF_H1, bytes);
        VrfInput { bytes, h }
    }
}

/// `N` independent Keccak-256 digests, each message given as parts: the
/// scalar sponge for one lane, the interleaved permutation for four.
type HashLanes<const N: usize> = fn([&[&[u8]]; N]) -> [[u8; 32]; N];

fn hash_x1(parts: [&[&[u8]]; 1]) -> [[u8; 32]; 1] {
    [keccak256_concat(parts[0])]
}

impl VrfSecretKey {
    /// Derives a key from 32 bytes of entropy.
    pub fn from_entropy(entropy: [u8; 32]) -> VrfSecretKey {
        let mut fr = Fr::from_entropy(entropy);
        if fr.is_zero() {
            fr = Fr::ONE;
        }
        VrfSecretKey(fr)
    }

    /// Returns the public key.
    pub fn public_key(&self) -> VrfPublicKey {
        VrfPublicKey(G2::generator() * self.0)
    }

    /// Evaluates the VRF on `input`, returning `(output, proof)`.
    ///
    /// The nonce is derived deterministically (RFC-6979 style) so
    /// evaluation is a pure function of `(sk, input)`.
    pub fn eval(&self, input: &[u8]) -> (H256, VrfProof) {
        let [lane] = eval_lanes([self], &VrfInput::new(input), hash_x1);
        lane
    }

    /// [`VrfSecretKey::eval`] of four keys on one input, the nonce,
    /// challenge and output hashes of the four running as lanes of one
    /// interleaved Keccak permutation. Bit-identical to four `eval` calls.
    pub fn eval_x4(sks: [&VrfSecretKey; 4], input: &VrfInput<'_>) -> [(H256, VrfProof); 4] {
        eval_lanes(sks, input, keccak256_x4_concat)
    }
}

impl VrfPublicKey {
    /// Verifies a proof for `input`; returns the VRF output on success.
    pub fn verify(&self, input: &[u8], proof: &VrfProof) -> Option<H256> {
        let h = G1::hash_to_point(DST_VRF_H1, input);
        // u' = g2*s + pk*c ; v' = h*s + gamma*c
        let u = G2::generator() * proof.s + self.0 * proof.c;
        let v = h * proof.s + proof.gamma * proof.c;
        let [c] = challenges([self], &h, &[proof.gamma], &[u], &[v], hash_x1);
        let [output] = vrf_outputs(&[proof.gamma], hash_x1);
        (c == proof.c).then_some(output)
    }

    /// Canonical encoding (128 bytes).
    pub fn to_bytes(&self) -> Vec<u8> {
        self.0.to_bytes()
    }
}

fn eval_lanes<const N: usize>(
    sks: [&VrfSecretKey; N],
    input: &VrfInput<'_>,
    hash: HashLanes<N>,
) -> [(H256, VrfProof); N] {
    let h = input.h;
    let sk_bytes = sks.map(|sk| sk.0.to_be_bytes());
    let nonce: [[&[u8]; 3]; N] = from_fn(|i| [DST_VRF_NONCE, &sk_bytes[i][..], input.bytes]);
    let ks = hash(nonce.each_ref().map(|p| &p[..])).map(Fr::from_be_bytes_reduced);
    let pks = sks.map(VrfSecretKey::public_key);
    let gammas = sks.map(|sk| h * sk.0);
    // commitments wrt g2 and wrt h
    let (us, vs) = (ks.map(|k| G2::generator() * k), ks.map(|k| h * k));
    let cs = challenges(pks.each_ref(), &h, &gammas, &us, &vs, hash);
    let outs = vrf_outputs(&gammas, hash);
    from_fn(|i| {
        let (gamma, c) = (gammas[i], cs[i]);
        let s = ks[i] - c * sks[i].0;
        (outs[i], VrfProof { gamma, c, s })
    })
}

/// The Fiat–Shamir challenge of each lane. This is the one place the
/// transcript layout `DST ‖ pk ‖ h ‖ gamma ‖ u ‖ v` is written down.
fn challenges<const N: usize>(
    pks: [&VrfPublicKey; N],
    h: &G1,
    gammas: &[G1; N],
    us: &[G2; N],
    vs: &[G1; N],
    hash: HashLanes<N>,
) -> [Fr; N] {
    let h = h.to_bytes();
    let enc: [[Vec<u8>; 4]; N] = from_fn(|i| {
        let (pk, gamma) = (pks[i].0.to_bytes(), gammas[i].to_bytes());
        [pk, gamma, us[i].to_bytes(), vs[i].to_bytes()]
    });
    let parts: [[&[u8]; 6]; N] = from_fn(|i| {
        let [pk, gamma, u, v] = &enc[i];
        [
            DST_VRF_CHALLENGE,
            &pk[..],
            &h[..],
            &gamma[..],
            &u[..],
            &v[..],
        ]
    });
    hash(parts.each_ref().map(|p| &p[..])).map(Fr::from_be_bytes_reduced)
}

fn vrf_outputs<const N: usize>(gammas: &[G1; N], hash: HashLanes<N>) -> [H256; N] {
    let enc = gammas.each_ref().map(G1::to_bytes);
    let parts: [[&[u8]; 2]; N] = from_fn(|i| [DST_VRF_OUTPUT, &enc[i][..]]);
    hash(parts.each_ref().map(|p| &p[..])).map(H256)
}

/// Interprets a VRF output as a uniform fraction in `[0, 1)` with 64-bit
/// precision — the sortition lottery draw.
pub fn output_to_unit_fraction(out: &H256) -> f64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&out.0[..8]);
    (u64::from_be_bytes(b) as f64) / (u64::MAX as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sk(i: u64) -> VrfSecretKey {
        VrfSecretKey::from_entropy(crate::keccak::keccak256(&i.to_be_bytes()))
    }

    #[test]
    fn eval_verify_roundtrip() {
        let secret = sk(1);
        let (out, proof) = secret.eval(b"epoch-5-election");
        let verified = secret.public_key().verify(b"epoch-5-election", &proof);
        assert_eq!(verified, Some(out));
    }

    #[test]
    fn wrong_input_rejected() {
        let secret = sk(2);
        let (_, proof) = secret.eval(b"input-a");
        assert!(secret.public_key().verify(b"input-b", &proof).is_none());
    }

    #[test]
    fn wrong_key_rejected() {
        let (_, proof) = sk(3).eval(b"input");
        assert!(sk(4).public_key().verify(b"input", &proof).is_none());
    }

    #[test]
    fn tampered_gamma_rejected_and_output_binds() {
        let secret = sk(5);
        let (out, mut proof) = secret.eval(b"in");
        proof.gamma = proof.gamma + G1::generator();
        let res = secret.public_key().verify(b"in", &proof);
        // Either verification fails, or (impossible here) output changes.
        assert_ne!(res, Some(out));
        assert!(res.is_none());
    }

    #[test]
    fn evaluation_is_pinned() {
        // taken before `eval` became the one-lane case of the lane-generic
        // form: outputs and proofs (hence committees) must not move
        let (out, proof) = sk(1).eval(b"epoch-5-election");
        let hex = crate::types::to_hex;
        assert_eq!(
            out.to_hex(),
            "e8d3f6f7dc54356a4e41b9411e2858eaf01ee3290908d39bd0117ec5df71deb6"
        );
        assert_eq!(
            hex(&proof.gamma.to_bytes()[32..]),
            "0d3d25e2134f19d4ff482e58938f4f449dba760e4bcd27b84749ff02857f30db"
        );
        assert_eq!(
            hex(&proof.c.to_be_bytes()),
            "063297fcdfb7b5e520087bb49d8adb81f4c6218bdc674a154d46a6ff8e56fa68"
        );
        assert_eq!(
            hex(&proof.s.to_be_bytes()),
            "0cdf22893aa159abeb8a3e63e98bbd82c7af8e5b31ca423625bce47929faabb4"
        );
    }

    #[test]
    fn four_lane_eval_equals_four_scalar_evals() {
        for round in 0..16u64 {
            let sks: [VrfSecretKey; 4] = from_fn(|lane| sk(1_000 + 4 * round + lane as u64));
            // inputs of several lengths; the 45-byte one is an election's
            let bytes = vec![round as u8; [0, 1, 45, 200][round as usize % 4]];
            let evals = VrfSecretKey::eval_x4(sks.each_ref(), &VrfInput::new(&bytes));
            for (lane, (out, proof)) in evals.into_iter().enumerate() {
                assert_eq!(
                    (out, proof),
                    sks[lane].eval(&bytes),
                    "round {round} lane {lane}"
                );
                // each lane's proof stands on its own under the scalar verifier
                let pk = sks[lane].public_key();
                assert_eq!(pk.verify(&bytes, &proof), Some(out));
                let other = sks[(lane + 1) % 4].public_key();
                assert_eq!(other.verify(&bytes, &proof), None, "wrong key");
                assert_eq!(pk.verify(b"another input", &proof), None, "wrong input");
                let tampered = [
                    VrfProof {
                        gamma: proof.gamma + G1::generator(),
                        ..proof
                    },
                    VrfProof {
                        c: proof.c + Fr::ONE,
                        ..proof
                    },
                    VrfProof {
                        s: proof.s + Fr::ONE,
                        ..proof
                    },
                ];
                for bad in tampered {
                    assert_eq!(pk.verify(&bytes, &bad), None, "round {round} lane {lane}");
                }
            }
        }
    }

    #[test]
    fn deterministic_evaluation() {
        let secret = sk(6);
        assert_eq!(secret.eval(b"x"), secret.eval(b"x"));
        assert_ne!(secret.eval(b"x").0, secret.eval(b"y").0);
    }

    #[test]
    fn outputs_differ_across_keys() {
        assert_ne!(sk(7).eval(b"seed").0, sk(8).eval(b"seed").0);
    }

    #[test]
    fn unit_fraction_in_range() {
        for i in 0..50u64 {
            let (out, _) = sk(i).eval(b"frac");
            let f = output_to_unit_fraction(&out);
            assert!((0.0..1.0).contains(&f), "{f}");
        }
    }
}
