//! Balancer-style fixed-point arithmetic for the weighted engine, and
//! the one multiply-add-divide kernel under every reserve-pair step.
//!
//! All values are unsigned 18-decimal fixed point ([`BONE`] = 10¹⁸). Every
//! multiply-divide — here and in the share book — is one call to
//! `mul_add_div_u128`, which forms the exact 256-bit `a·b + c` so
//! products never silently truncate. The power function splits an
//! arbitrary exponent into an integer part (exact square-and-multiply,
//! [`bpowi`]) and a fractional part approximated by the binomial series
//! (`bpow_approx`), exactly as Balancer's `BNum` does — the same
//! alternating-sign term recurrence, the same half-up rounding, the same
//! base domain `[MIN_BPOW_BASE, MAX_BPOW_BASE]`.
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

const LOW64: u128 = u64::MAX as u128;

/// `(⌊(a·b + c) / d⌋, (a·b + c) mod d)` over the exact 256-bit `a·b + c`
/// (which cannot overflow: `(2¹²⁸−1)² + 2¹²⁸−1 < 2²⁵⁶`).
///
/// `None` when `d == 0` or the quotient needs more than 128 bits — i.e.
/// exactly when the high half of `a·b + c` is `≥ d`. A divisor below 2⁶⁴
/// (every divisor the workloads produce: `BONE`, pips, reserves and share
/// totals in the 10¹⁵ range) takes two native 128-by-64 divides; a wider
/// one takes the `U512` long division, which debug builds also run on
/// every call as the oracle.
#[inline]
pub(crate) fn mul_add_div_u128(a: u128, b: u128, c: u128, d: u128) -> Option<(u128, u128)> {
    let (a1, a0) = (a >> 64, a & LOW64);
    let (b1, b0) = (b >> 64, b & LOW64);
    let (ll, lh, hl, hh) = (a0 * b0, a0 * b1, a1 * b0, a1 * b1);
    let mid = (ll >> 64) + (lh & LOW64) + (hl & LOW64);
    let (lo, carry) = ((mid << 64) | (ll & LOW64)).overflowing_add(c);
    let hi = hh + (lh >> 64) + (hl >> 64) + (mid >> 64) + carry as u128;
    let out = if hi >= d {
        None
    } else if d <= LOW64 {
        // hi < d < 2⁶⁴, so each step divides a 128-bit value whose top
        // half is below d: both quotients fit 64 bits
        let n1 = (hi << 64) | (lo >> 64);
        let (q1, r1) = (n1 / d, n1 % d);
        let n0 = (r1 << 64) | (lo & LOW64);
        Some(((q1 << 64) | (n0 / d), n0 % d))
    } else {
        mul_add_div_wide(a, b, c, d)
    };
    debug_assert_eq!(out, mul_add_div_wide(a, b, c, d), "a={a} b={b} c={c} d={d}");
    out
}

/// The `U256`/`U512` route of [`mul_add_div_u128`]: Knuth long division
/// of the 512-bit-widened `a·b + c`. Serves divisors of 2⁶⁴ and above,
/// and is the oracle the native path is checked against.
fn mul_add_div_wide(a: u128, b: u128, c: u128, d: u128) -> Option<(u128, u128)> {
    if d == 0 {
        return None;
    }
    let (q, r) = U256::from_u128(a)
        .full_mul(U256::from_u128(b))
        .checked_add(U256::from_u128(c).full_mul(U256::ONE))?
        .div_rem_u256(U256::from_u128(d));
    Some((q.to_u256()?.to_u128()?, r.to_u128()?))
}

/// The kernel's quotient, or [`AmmError::BalanceOverflow`] when it has
/// none (the caller has already rejected a zero divisor with its own
/// error).
pub(crate) fn rounded_down(qr: Option<(u128, u128)>) -> Result<u128, AmmError> {
    qr.map(|(q, _)| q).ok_or(AmmError::BalanceOverflow)
}

/// The kernel's quotient rounded up by a nonzero remainder, or
/// [`AmmError::BalanceOverflow`] past 128 bits.
pub(crate) fn rounded_up(qr: Option<(u128, u128)>) -> Result<u128, AmmError> {
    qr.and_then(|(q, r)| q.checked_add((r != 0) as u128))
        .ok_or(AmmError::BalanceOverflow)
}

/// `floor((a·b + BONE/2) / BONE)` — fixed-point multiply, half-up.
pub fn bmul(a: u128, b: u128) -> Result<u128, AmmError> {
    rounded_down(mul_add_div_u128(a, b, BONE / 2, BONE))
}

/// `ceil(a·b / BONE)` — fixed-point multiply rounding against the caller,
/// used when charging swap input so the pool is never undercharged.
pub fn bmul_up(a: u128, b: u128) -> Result<u128, AmmError> {
    rounded_up(mul_add_div_u128(a, b, 0, BONE))
}

/// `floor((a·BONE + b/2) / b)` — fixed-point divide, half-up.
pub fn bdiv(a: u128, b: u128) -> Result<u128, AmmError> {
    if b == 0 {
        return Err(AmmError::MathRange("bdiv by zero"));
    }
    rounded_down(mul_add_div_u128(a, BONE, b / 2, b))
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
fn bpow_approx(base: u128, exp: u128, precision: u128) -> Result<u128, AmmError> {
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
    use proptest::prelude::*;

    const TWO64: u128 = 1 << 64;

    /// A u128 of uniformly random bit width (0–128 bits), so every
    /// operand shape — tiny, word-straddling, full — is drawn.
    fn any_width() -> impl Strategy<Value = u128> {
        (any::<u128>(), 0u32..129).prop_map(|(v, shift)| v.checked_shr(shift).unwrap_or(0))
    }

    /// Divisors: random widths plus the 2⁶⁴ boundary the kernel splits on.
    fn divisor() -> impl Strategy<Value = u128> {
        prop_oneof![
            any_width(),
            any_width(),
            (0u128..3).prop_map(|k| TWO64 - 1 + k),
            Just(u128::MAX),
            Just(BONE),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(100_000))]

        #[test]
        fn kernel_matches_u512_route(a in any_width(), b in any_width(), c in any_width(), d in divisor()) {
            let got = mul_add_div_u128(a, b, c, d);
            prop_assert_eq!(got, mul_add_div_wide(a, b, c, d), "a={} b={} c={} d={}", a, b, c, d);
            if let Some((_, r)) = got {
                prop_assert!(r < d);
            }
        }
    }

    #[test]
    fn kernel_pinned_shapes() {
        let k = mul_add_div_u128;
        // zero divisor, and every divisor around the native/wide split
        assert_eq!(k(7, 9, 1, 0), None);
        for d in [1, TWO64 - 1, TWO64, TWO64 + 1, u128::MAX] {
            assert_eq!(k(d, 3, d - 1, d), Some((3, d - 1)), "d={d}");
            assert_eq!(k(d - 1, 1, 0, d), Some((0, d - 1)), "d={d}");
            assert_eq!(k(u128::MAX, u128::MAX, u128::MAX, d), None, "d={d}");
        }
        assert_eq!(k(u128::MAX, u128::MAX, 0, u128::MAX), Some((u128::MAX, 0)));
        // c carries the low half into the high half: a·b + c = 2¹²⁸
        assert_eq!(k(u128::MAX, 1, 1, 2), Some((1 << 127, 0)));
        assert_eq!(k(u128::MAX, 1, 1, 1), None);
        assert_eq!(k(u128::MAX, 1, 1, TWO64 + 1), Some((TWO64 - 1, 1)));
        // quotient exactly 2¹²⁸ − 1, native and wide
        assert_eq!(k(u128::MAX, 3, 2, 3), Some((u128::MAX, 2)));
        assert_eq!(k(u128::MAX, TWO64, 0, TWO64), Some((u128::MAX, 0)));
        assert_eq!(
            k(u128::MAX, TWO64 + 1, TWO64, TWO64 + 1),
            Some((u128::MAX, TWO64))
        );
        // high half == d fails; high half == d − 1 is the largest quotient
        assert_eq!(k(5 * TWO64, TWO64, 0, 5), None);
        assert_eq!(k(4 * TWO64, TWO64, u128::MAX, 5), Some((u128::MAX, 4)));
        assert_eq!(k(TWO64, TWO64, 0, 1), None);
        assert_eq!(k(u128::MAX, TWO64, 0, TWO64 - 1), None);
    }

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
