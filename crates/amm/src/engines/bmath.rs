//! Balancer-style fixed-point arithmetic for the weighted engine.
//!
//! All values are unsigned 18-decimal fixed point ([`BONE`] = 10¹⁸), with
//! 256-bit intermediates so products never silently truncate. The power
//! function splits an arbitrary exponent into an integer part (exact
//! square-and-multiply, [`bpowi`]) and a fractional part approximated by
//! the binomial series ([`bpow_approx`]), exactly as Balancer's `BNum`
//! does — the same alternating-sign term recurrence, the same half-up
//! rounding, the same base domain `[MIN_BPOW_BASE, MAX_BPOW_BASE]`.
//! Deterministic integer math throughout: no floats, no platform drift.

use crate::error::AmmError;
use ammboost_crypto::U256;

/// One, in 18-decimal fixed point.
pub const BONE: u128 = 1_000_000_000_000_000_000;

/// Smallest admissible `bpow` base (1 wei above zero).
pub const MIN_BPOW_BASE: u128 = 1;

/// Largest admissible `bpow` base (just under 2.0 — the binomial series
/// for `base^exp` converges only for `|base − 1| < 1`).
pub const MAX_BPOW_BASE: u128 = 2 * BONE - 1;

/// Series truncation threshold: terms below `BONE / 10¹⁰` are dropped.
pub const BPOW_PRECISION: u128 = BONE / 10_000_000_000;

/// Iteration backstop for the binomial series. Balancer relies on the
/// term shrinking below `BPOW_PRECISION`; the cap turns a non-converging
/// input into a typed error instead of a spin.
const BPOW_MAX_TERMS: u64 = 1_000;

/// `floor((a·b + BONE/2) / BONE)` — fixed-point multiply, half-up.
pub fn bmul(a: u128, b: u128) -> Result<u128, AmmError> {
    let prod = U256::from_u128(a).full_mul(U256::from_u128(b));
    let rounded = prod
        .checked_add(U256::from_u128(BONE / 2).full_mul(U256::ONE))
        .ok_or(AmmError::BalanceOverflow)?;
    rounded
        .div_rem_u256(U256::from_u128(BONE))
        .0
        .to_u256()
        .and_then(|v| v.to_u128())
        .ok_or(AmmError::BalanceOverflow)
}

/// `ceil(a·b / BONE)` — fixed-point multiply rounding against the caller,
/// used when charging swap input so the pool is never undercharged.
pub fn bmul_up(a: u128, b: u128) -> Result<u128, AmmError> {
    let (q, r) = U256::from_u128(a)
        .full_mul(U256::from_u128(b))
        .div_rem_u256(U256::from_u128(BONE));
    let q = q
        .to_u256()
        .and_then(|v| v.to_u128())
        .ok_or(AmmError::BalanceOverflow)?;
    if r.is_zero() {
        Ok(q)
    } else {
        q.checked_add(1).ok_or(AmmError::BalanceOverflow)
    }
}

/// `floor((a·BONE + b/2) / b)` — fixed-point divide, half-up.
pub fn bdiv(a: u128, b: u128) -> Result<u128, AmmError> {
    if b == 0 {
        return Err(AmmError::MathRange("bdiv by zero"));
    }
    let num = U256::from_u128(a)
        .full_mul(U256::from_u128(BONE))
        .checked_add(U256::from_u128(b / 2).full_mul(U256::ONE))
        .ok_or(AmmError::BalanceOverflow)?;
    num.div_rem_u256(U256::from_u128(b))
        .0
        .to_u256()
        .and_then(|v| v.to_u128())
        .ok_or(AmmError::BalanceOverflow)
}

/// `(|a − b|, a < b)` — magnitude and sign of a fixed-point difference.
fn bsub_sign(a: u128, b: u128) -> (u128, bool) {
    if a >= b {
        (a - b, false)
    } else {
        (b - a, true)
    }
}

/// `base^n` for integer `n` by square-and-multiply in fixed point.
pub fn bpowi(base: u128, mut n: u128) -> Result<u128, AmmError> {
    let mut a = base;
    let mut b = if !n.is_multiple_of(2) { base } else { BONE };
    n /= 2;
    while n != 0 {
        a = bmul(a, a)?;
        if !n.is_multiple_of(2) {
            b = bmul(b, a)?;
        }
        n /= 2;
    }
    Ok(b)
}

/// `base^exp` for fractional `exp ∈ [0, BONE)` via the binomial series
/// `(1 + x)^α = Σ C(α, k)·x^k` with `x = base − 1`, truncated once a term
/// drops below `precision`.
pub fn bpow_approx(base: u128, exp: u128, precision: u128) -> Result<u128, AmmError> {
    let a = exp;
    let (x, xneg) = bsub_sign(base, BONE);
    let mut term = BONE;
    let mut sum = term;
    let mut negative = false;
    let mut i: u64 = 1;
    while term >= precision {
        if i > BPOW_MAX_TERMS {
            return Err(AmmError::MathRange("bpow series did not converge"));
        }
        let big_k = (i as u128)
            .checked_mul(BONE)
            .ok_or(AmmError::BalanceOverflow)?;
        let (c, cneg) = bsub_sign(a, big_k - BONE);
        term = bmul(term, bmul(c, x)?)?;
        term = bdiv(term, big_k)?;
        if term == 0 {
            break;
        }
        if xneg {
            negative = !negative;
        }
        if cneg {
            negative = !negative;
        }
        if negative {
            sum = sum
                .checked_sub(term)
                .ok_or(AmmError::MathRange("bpow series went negative"))?;
        } else {
            sum = sum.checked_add(term).ok_or(AmmError::BalanceOverflow)?;
        }
        i += 1;
    }
    Ok(sum)
}

/// `base^exp` for arbitrary fixed-point `exp`: exact integer part times
/// series-approximated fractional part.
pub fn bpow(base: u128, exp: u128) -> Result<u128, AmmError> {
    if base < MIN_BPOW_BASE {
        return Err(AmmError::MathRange("bpow base too low"));
    }
    if base > MAX_BPOW_BASE {
        return Err(AmmError::MathRange("bpow base too high"));
    }
    let whole = (exp / BONE) * BONE;
    let remain = exp - whole;
    let whole_pow = bpowi(base, exp / BONE)?;
    if remain == 0 {
        return Ok(whole_pow);
    }
    let partial = bpow_approx(base, remain, BPOW_PRECISION)?;
    bmul(whole_pow, partial)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bmul_bdiv_inverse_within_rounding() {
        let a = 123_456_789_012_345_678u128;
        let b = 987_654_321_098_765_432u128;
        let prod = bmul(a, b).unwrap();
        let back = bdiv(prod, b).unwrap();
        assert!(back.abs_diff(a) <= 2, "{back} vs {a}");
    }

    #[test]
    fn bpowi_matches_repeated_mul() {
        let base = 3 * BONE / 2; // 1.5
        let mut expect = BONE;
        for n in 0..8u128 {
            assert_eq!(bpowi(base, n).unwrap(), expect, "n={n}");
            expect = bmul(expect, base).unwrap();
        }
    }

    #[test]
    fn bpow_integer_exponent_is_exact() {
        let base = 5 * BONE / 4; // 1.25
        assert_eq!(bpow(base, 2 * BONE).unwrap(), bpowi(base, 2).unwrap());
    }

    #[test]
    fn bpow_fractional_close_to_float() {
        // 0.75^0.5 ≈ 0.866025
        let got = bpow(3 * BONE / 4, BONE / 2).unwrap();
        let expect = 866_025_403_784_438_646u128;
        assert!(got.abs_diff(expect) < BONE / 1_000_000, "{got}");
        // 1.5^2.5 ≈ 2.755676
        let got = bpow(3 * BONE / 2, 5 * BONE / 2).unwrap();
        let expect = 2_755_675_960_631_075_360u128;
        assert!(got.abs_diff(expect) < BONE / 100_000, "{got}");
    }

    #[test]
    fn bpow_base_domain_enforced() {
        assert!(matches!(bpow(0, BONE), Err(AmmError::MathRange(_))));
        assert!(matches!(
            bpow(2 * BONE, BONE / 2),
            Err(AmmError::MathRange(_))
        ));
        // the engines' ratio caps keep bases in [2/3, 3/2], where the
        // series converges geometrically
        assert!(bpow(2 * BONE / 3, BONE / 2).is_ok());
        assert!(bpow(3 * BONE / 2, BONE / 2).is_ok());
        // a base at the extreme edge of the domain converges too slowly
        // for the iteration backstop — a typed error, not a spin
        assert!(matches!(
            bpow(MIN_BPOW_BASE, BONE / 2),
            Err(AmmError::MathRange(_))
        ));
    }
}
