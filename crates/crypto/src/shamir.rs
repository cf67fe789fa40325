//! Shamir secret sharing over the BN254 scalar field, plus the Lagrange
//! interpolation used by threshold-BLS signature combination.
//!
//! Shares are evaluated at `x = index` with indices starting at `1`
//! (`x = 0` holds the secret).

use crate::field::Fr;
use serde::{Deserialize, Serialize};

/// A share of a secret: the evaluation of the dealer polynomial at
/// `x = index`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Share {
    /// 1-based evaluation index.
    pub index: u32,
    /// Polynomial evaluation `f(index)`.
    pub value: Fr,
}

/// A polynomial over `F_r` in coefficient form, `coeffs[0]` is the constant
/// term.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Polynomial {
    coeffs: Vec<Fr>,
}

impl Polynomial {
    /// Creates a polynomial from coefficients (constant term first).
    ///
    /// # Panics
    /// Panics if `coeffs` is empty.
    pub fn new(coeffs: Vec<Fr>) -> Polynomial {
        assert!(
            !coeffs.is_empty(),
            "polynomial needs at least one coefficient"
        );
        Polynomial { coeffs }
    }

    /// A random polynomial of degree `threshold - 1` with the given constant
    /// term, using caller-provided entropy per coefficient.
    pub fn random_with_secret<F: FnMut() -> [u8; 32]>(
        secret: Fr,
        threshold: usize,
        mut entropy: F,
    ) -> Polynomial {
        assert!(threshold >= 1, "threshold must be at least 1");
        let mut coeffs = Vec::with_capacity(threshold);
        coeffs.push(secret);
        for _ in 1..threshold {
            coeffs.push(Fr::from_entropy(entropy()));
        }
        Polynomial { coeffs }
    }

    /// Degree of the polynomial (`threshold - 1`).
    #[cfg(test)]
    fn degree(&self) -> usize {
        self.coeffs.len() - 1
    }

    /// The coefficients, constant term first.
    pub fn coefficients(&self) -> &[Fr] {
        &self.coeffs
    }

    /// Horner evaluation at `x`.
    fn evaluate(&self, x: Fr) -> Fr {
        let mut acc = Fr::ZERO;
        for &c in self.coeffs.iter().rev() {
            acc = acc * x + c;
        }
        acc
    }

    /// Evaluates at the 1-based integer index.
    fn share_for(&self, index: u32) -> Share {
        assert!(index >= 1, "share indices are 1-based");
        Share {
            index,
            value: self.evaluate(Fr::from_u64(index as u64)),
        }
    }

    /// Deals shares for participants `1..=n`.
    pub fn deal(&self, n: usize) -> Vec<Share> {
        (1..=n as u32).map(|i| self.share_for(i)).collect()
    }
}

/// Errors from interpolation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpolationError {
    /// Fewer shares than needed, or zero shares.
    NotEnoughShares,
    /// Two shares carry the same index.
    DuplicateIndex(u32),
}

impl std::fmt::Display for InterpolationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InterpolationError::NotEnoughShares => write!(f, "not enough shares"),
            InterpolationError::DuplicateIndex(i) => write!(f, "duplicate share index {i}"),
        }
    }
}

impl std::error::Error for InterpolationError {}

/// Computes the Lagrange coefficient `λ_i(0)` for interpolation at zero over
/// the given index set.
///
/// # Errors
/// Returns an error on duplicate indices or if `at` is not in `indices`.
pub fn lagrange_coefficient_at_zero(indices: &[u32], at: u32) -> Result<Fr, InterpolationError> {
    let mut num = Fr::ONE;
    let mut den = Fr::ONE;
    let xi = Fr::from_u64(at as u64);
    let mut seen_at = false;
    for &j in indices {
        if j == at {
            if seen_at {
                return Err(InterpolationError::DuplicateIndex(j));
            }
            seen_at = true;
            continue;
        }
        let xj = Fr::from_u64(j as u64);
        num = num * (Fr::ZERO - xj);
        den = den * (xi - xj);
    }
    if !seen_at {
        return Err(InterpolationError::NotEnoughShares);
    }
    let den_inv = den
        .inverse()
        .ok_or(InterpolationError::DuplicateIndex(at))?;
    Ok(num * den_inv)
}

/// Reconstructs the secret (`f(0)`) from shares.
///
/// # Errors
/// Fails on an empty share set or duplicate indices. The caller is
/// responsible for supplying at least `threshold` *valid* shares; with fewer
/// (but distinct) shares this returns a wrong value, as secret sharing
/// guarantees.
pub fn reconstruct_secret(shares: &[Share]) -> Result<Fr, InterpolationError> {
    if shares.is_empty() {
        return Err(InterpolationError::NotEnoughShares);
    }
    let indices: Vec<u32> = shares.iter().map(|s| s.index).collect();
    {
        let mut sorted = indices.clone();
        sorted.sort_unstable();
        for w in sorted.windows(2) {
            if w[0] == w[1] {
                return Err(InterpolationError::DuplicateIndex(w[0]));
            }
        }
    }
    let mut acc = Fr::ZERO;
    for s in shares {
        let lambda = lagrange_coefficient_at_zero(&indices, s.index)?;
        acc = acc + lambda * s.value;
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entropy_stream(seed: u64) -> impl FnMut() -> [u8; 32] {
        let mut ctr = seed;
        move || {
            ctr = ctr.wrapping_mul(6364136223846793005).wrapping_add(1);
            crate::keccak::keccak256(&ctr.to_be_bytes())
        }
    }

    #[test]
    fn share_and_reconstruct() {
        let secret = Fr::from_u128(31337_31337_31337u128);
        let poly = Polynomial::random_with_secret(secret, 3, entropy_stream(1));
        let shares = poly.deal(7);
        // any 3 shares reconstruct
        assert_eq!(reconstruct_secret(&shares[0..3]).unwrap(), secret);
        assert_eq!(reconstruct_secret(&shares[4..7]).unwrap(), secret);
        let picked = [shares[0], shares[3], shares[6]];
        assert_eq!(reconstruct_secret(&picked).unwrap(), secret);
    }

    #[test]
    fn fewer_than_threshold_gives_wrong_secret() {
        let secret = Fr::from_u64(77);
        let poly = Polynomial::random_with_secret(secret, 3, entropy_stream(2));
        let shares = poly.deal(5);
        // 2 shares of a degree-2 polynomial: interpolation succeeds but
        // yields garbage (overwhelming probability).
        let r = reconstruct_secret(&shares[0..2]).unwrap();
        assert_ne!(r, secret);
    }

    #[test]
    fn threshold_one_is_plain_copy() {
        let secret = Fr::from_u64(5);
        let poly = Polynomial::random_with_secret(secret, 1, entropy_stream(3));
        let shares = poly.deal(4);
        for s in &shares {
            assert_eq!(s.value, secret);
        }
        assert_eq!(reconstruct_secret(&shares[2..3]).unwrap(), secret);
    }

    #[test]
    fn duplicate_indices_rejected() {
        let s = Share {
            index: 1,
            value: Fr::from_u64(1),
        };
        assert_eq!(
            reconstruct_secret(&[s, s]),
            Err(InterpolationError::DuplicateIndex(1))
        );
    }

    #[test]
    fn empty_shares_rejected() {
        assert_eq!(
            reconstruct_secret(&[]),
            Err(InterpolationError::NotEnoughShares)
        );
    }

    #[test]
    fn lagrange_coefficients_sum_to_one() {
        // Σ λ_i(0) = 1 when interpolating the constant polynomial 1.
        let indices = [1u32, 2, 5, 9];
        let sum: Fr = indices
            .iter()
            .map(|&i| lagrange_coefficient_at_zero(&indices, i).unwrap())
            .sum();
        assert_eq!(sum, Fr::ONE);
    }

    #[test]
    fn evaluate_matches_manual_horner() {
        // f(x) = 3 + 2x + x^2 ; f(4) = 3 + 8 + 16 = 27
        let poly = Polynomial::new(vec![Fr::from_u64(3), Fr::from_u64(2), Fr::ONE]);
        assert_eq!(poly.evaluate(Fr::from_u64(4)), Fr::from_u64(27));
        assert_eq!(poly.degree(), 2);
    }
}
