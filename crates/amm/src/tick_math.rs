//! Tick ↔ sqrt-price conversions.
//!
//! A tick `t` corresponds to the price `1.0001^t`; the pool works with
//! *sqrt* prices in Q64.96, so `sqrt_ratio_at_tick(t) = 1.0001^(t/2) · 2^96`.
//!
//! Unlike the Solidity reference (which bakes in twenty magic constants),
//! we derive the per-bit factors `sqrt(1.0001)^(2^i)` at first use by exact
//! integer square root and repeated squaring in Q128 with 512-bit
//! intermediates and round-to-nearest at each step. Accumulated relative
//! error is below `2^-100`, far finer than one tick (`~2^-13.3`), so the
//! round-trip `tick_at_sqrt_ratio(sqrt_ratio_at_tick(t)) == t` holds across
//! the whole domain (property-tested).

use crate::types::Tick;
use ammboost_crypto::{U256, U512};
use std::sync::OnceLock;

/// Lowest usable tick: `log_1.0001(2^-128)` rounded towards zero, the same
/// domain Uniswap V3 uses.
pub const MIN_TICK: Tick = -887272;
/// Highest usable tick.
pub const MAX_TICK: Tick = 887272;

/// Number of per-bit factors needed to cover `|tick| <= 887272 < 2^20`.
const FACTOR_BITS: usize = 20;

/// Errors from tick-math conversions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TickMathError {
    /// Tick outside `[MIN_TICK, MAX_TICK]`.
    TickOutOfRange(Tick),
    /// Sqrt price outside `[min_sqrt_ratio(), max_sqrt_ratio()]`.
    SqrtPriceOutOfRange,
}

impl std::fmt::Display for TickMathError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TickMathError::TickOutOfRange(t) => write!(f, "tick {t} out of range"),
            TickMathError::SqrtPriceOutOfRange => write!(f, "sqrt price out of range"),
        }
    }
}

impl std::error::Error for TickMathError {}

/// `sqrt(1.0001)^(2^i)` in Q128, for `i` in `0..FACTOR_BITS`.
fn factors() -> &'static [U256; FACTOR_BITS] {
    static FACTORS: OnceLock<[U256; FACTOR_BITS]> = OnceLock::new();
    FACTORS.get_or_init(|| {
        // f0 = round(sqrt(1.0001) * 2^128)
        //    = round(isqrt(10001 << 256) / 100)
        let n = U512::from_u256(U256::from_u64(10001)) << 256;
        let root = n.isqrt(); // floor(sqrt(10001) * 2^128)
        let hundred = U256::from_u64(100);
        let (q, r) = root.div_rem(hundred);
        let f0 = if r >= U256::from_u64(50) {
            q + U256::ONE
        } else {
            q
        };

        let mut out = [U256::ZERO; FACTOR_BITS];
        out[0] = f0;
        for i in 1..FACTOR_BITS {
            // out[i] = round(out[i-1]^2 / 2^128)
            let sq = out[i - 1].full_mul(out[i - 1]);
            let rounded = sq
                .checked_add(U512::pow2(127))
                .expect("factor squaring cannot overflow 512 bits");
            out[i] = (rounded >> 128)
                .to_u256()
                .expect("tick factors fit in 256 bits");
        }
        out
    })
}

/// Returns `1.0001^(tick/2)` in Q64.96.
///
/// # Errors
/// Fails when `tick` lies outside `[MIN_TICK, MAX_TICK]`.
pub fn sqrt_ratio_at_tick(tick: Tick) -> Result<U256, TickMathError> {
    if !(MIN_TICK..=MAX_TICK).contains(&tick) {
        return Err(TickMathError::TickOutOfRange(tick));
    }
    let abs = tick.unsigned_abs();
    // acc = sqrt(1.0001)^|tick| in Q128
    let mut acc = U256::pow2(128);
    let f = factors();
    for (i, factor) in f.iter().enumerate() {
        if (abs >> i) & 1 == 1 {
            // acc = round(acc * factor / 2^128)
            let prod = acc.full_mul(*factor);
            let rounded = prod
                .checked_add(U512::pow2(127))
                .expect("q128 product cannot overflow 512 bits");
            acc = (rounded >> 128)
                .to_u256()
                .expect("q128 accumulator fits 256 bits");
        }
    }
    if tick >= 0 {
        // Q128 -> Q96 with round-to-nearest.
        Ok((acc + U256::pow2(31)) >> 32)
    } else {
        // 1/acc in Q96 = round(2^224 / acc).
        let num = U256::pow2(224);
        let (q, r) = num.div_rem(acc);
        let double_r = r.checked_add(r).expect("remainder below modulus");
        Ok(if double_r >= acc { q + U256::ONE } else { q })
    }
}

/// The smallest valid sqrt price, `sqrt_ratio_at_tick(MIN_TICK)`.
#[inline]
pub fn min_sqrt_ratio() -> U256 {
    static MIN: OnceLock<U256> = OnceLock::new();
    *MIN.get_or_init(|| sqrt_ratio_at_tick(MIN_TICK).expect("MIN_TICK is in range"))
}

/// The largest valid sqrt price, `sqrt_ratio_at_tick(MAX_TICK)`.
#[inline]
pub fn max_sqrt_ratio() -> U256 {
    static MAX: OnceLock<U256> = OnceLock::new();
    *MAX.get_or_init(|| sqrt_ratio_at_tick(MAX_TICK).expect("MAX_TICK is in range"))
}

/// Returns the greatest tick whose sqrt ratio is `<= sqrt_price`.
///
/// A floating-point log₂ estimate built from `sqrt_price.bits()` and the
/// top mantissa bits lands within a tick or two of the answer; a short
/// bracketed binary search then makes the result exact, so the usual cost
/// is ~3 `sqrt_ratio_at_tick` evaluations instead of the ~41 a full-domain
/// bisection pays. The estimate only steers the search — correctness never
/// depends on float behaviour, and in debug builds the result is asserted
/// against the full bisection oracle.
///
/// # Errors
/// Fails when the price is outside the valid range.
pub fn tick_at_sqrt_ratio(sqrt_price: U256) -> Result<Tick, TickMathError> {
    if sqrt_price < min_sqrt_ratio() || sqrt_price > max_sqrt_ratio() {
        return Err(TickMathError::SqrtPriceOutOfRange);
    }
    const SLACK: Tick = 2;
    let est = estimate_tick(sqrt_price);
    let lo = est.saturating_sub(SLACK).max(MIN_TICK);
    let hi = est.saturating_add(SLACK).min(MAX_TICK);
    // The bracket is valid iff ratio(lo) <= sqrt_price < ratio(hi + 1);
    // fall back to the full-domain bisection when the estimate missed.
    let bracket_ok = sqrt_ratio_at_tick(lo).expect("lo in range") <= sqrt_price
        && (hi == MAX_TICK || sqrt_ratio_at_tick(hi + 1).expect("hi + 1 in range") > sqrt_price);
    let result = if bracket_ok {
        bisect_tick(lo, hi, sqrt_price)
    } else {
        bisect_tick(MIN_TICK, MAX_TICK, sqrt_price)
    };
    debug_assert_eq!(
        result,
        bisect_tick(MIN_TICK, MAX_TICK, sqrt_price),
        "estimate-guided search disagrees with the bisection oracle"
    );
    Ok(result)
}

/// The lower sqrt-price bound of `tick`, which is also the exclusive
/// upper bound of `tick - 1`: `sqrt_ratio_at_tick(tick)` in the tick
/// domain, one above `max_sqrt_ratio()` at `MAX_TICK + 1`, `None`
/// elsewhere.
pub(crate) fn tick_bound(tick: Tick) -> Option<U256> {
    if tick == MAX_TICK + 1 {
        return Some(max_sqrt_ratio() + U256::ONE);
    }
    sqrt_ratio_at_tick(tick).ok()
}

/// Estimated tick for an in-range sqrt price: `2·log₂(sqrt_price / 2^96) /
/// log₂(1.0001)`, with log₂ taken from the price's bit length plus the top
/// 53 mantissa bits. Accurate to well under one tick across the domain.
fn estimate_tick(sqrt_price: U256) -> Tick {
    let bits = sqrt_price.bits(); // >= 33 for in-range prices
    let shift = bits.saturating_sub(53);
    let mantissa = (sqrt_price >> shift).low_u128() as u64;
    let log2 = (mantissa as f64).log2() + shift as f64 - 96.0;
    let ticks_per_log2 = 2.0 / 1.0001f64.log2();
    (log2 * ticks_per_log2).round() as Tick
}

/// Binary search for the greatest tick with `ratio(tick) <= sqrt_price`,
/// assuming `ratio(lo) <= sqrt_price` (and `sqrt_price < ratio(hi + 1)`
/// when `hi < MAX_TICK`).
fn bisect_tick(mut lo: Tick, mut hi: Tick, sqrt_price: U256) -> Tick {
    while lo < hi {
        let mid = lo + (hi - lo + 1) / 2; // upper mid so the loop shrinks
        let r = sqrt_ratio_at_tick(mid).expect("mid in range");
        if r <= sqrt_price {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_zero_is_q96() {
        assert_eq!(sqrt_ratio_at_tick(0).unwrap(), U256::pow2(96));
    }

    #[test]
    fn out_of_range_rejected() {
        assert!(sqrt_ratio_at_tick(MAX_TICK + 1).is_err());
        assert!(sqrt_ratio_at_tick(MIN_TICK - 1).is_err());
    }

    #[test]
    fn monotonic_in_tick() {
        let mut prev = sqrt_ratio_at_tick(MIN_TICK).unwrap();
        for t in [-887271, -100000, -500, -1, 0, 1, 500, 100000, 887272] {
            let r = sqrt_ratio_at_tick(t).unwrap();
            assert!(r > prev, "tick {t} not monotonic");
            prev = r;
        }
    }

    #[test]
    fn bounds_match_uniswap_magnitudes() {
        // Uniswap's MIN_SQRT_RATIO = 4295128739 ~ 2^32; MAX ~ 2^160.4.
        let min = min_sqrt_ratio();
        let max = max_sqrt_ratio();
        assert_eq!(min.bits(), 33);
        assert!((159..=161).contains(&max.bits()), "max bits {}", max.bits());
        // our derivation should agree with the reference constant to within
        // a relative error of ~1e-9 (they truncate, we round)
        let reference_min = U256::from_u64(4295128739);
        let diff = if min > reference_min {
            min - reference_min
        } else {
            reference_min - min
        };
        assert!(
            diff < U256::from_u64(50),
            "min {min} vs reference {reference_min}"
        );
    }

    #[test]
    fn one_tick_ratio_close_to_1_0001() {
        // price(1)/price(0) should be ~sqrt(1.0001)
        let r1 = sqrt_ratio_at_tick(1).unwrap();
        let r0 = sqrt_ratio_at_tick(0).unwrap();
        // r1/r0 * 1e12 ≈ sqrt(1.0001)*1e12 ≈ 1000049998750
        let scaled = r1.mul_div(U256::from_u128(1_000_000_000_000), r0);
        let v = scaled.to_u128().unwrap();
        assert!((1_000_049_998_000..=1_000_050_000_000).contains(&v), "{v}");
    }

    #[test]
    fn roundtrip_exact_on_sample_ticks() {
        for t in [
            MIN_TICK, -887271, -123456, -60, -2, -1, 0, 1, 2, 60, 123456, 887271, MAX_TICK,
        ] {
            let r = sqrt_ratio_at_tick(t).unwrap();
            assert_eq!(tick_at_sqrt_ratio(r).unwrap(), t, "tick {t}");
        }
    }

    #[test]
    fn tick_at_ratio_between_ticks_rounds_down() {
        let r5 = sqrt_ratio_at_tick(5).unwrap();
        let r6 = sqrt_ratio_at_tick(6).unwrap();
        let mid = (r5 + r6) >> 1;
        assert_eq!(tick_at_sqrt_ratio(mid).unwrap(), 5);
        // one below a boundary belongs to the previous tick
        assert_eq!(tick_at_sqrt_ratio(r6 - U256::ONE).unwrap(), 5);
        assert_eq!(tick_at_sqrt_ratio(r6).unwrap(), 6);
    }

    #[test]
    fn price_out_of_bounds_rejected() {
        assert!(tick_at_sqrt_ratio(min_sqrt_ratio() - U256::ONE).is_err());
        assert!(tick_at_sqrt_ratio(max_sqrt_ratio() + U256::ONE).is_err());
    }

    #[test]
    fn estimate_lands_within_bracket_across_domain() {
        // The f64 estimate must stay within the ±2-tick bracket for the
        // fast path to engage; sweep a spread of magnitudes plus both
        // extremes. (Correctness is already guaranteed by the fallback +
        // debug oracle; this pins the *speed* contract.)
        for t in [
            MIN_TICK, -800000, -123457, -30001, -601, -59, -1, 0, 1, 59, 601, 30001, 123457,
            800000, MAX_TICK,
        ] {
            let r = sqrt_ratio_at_tick(t).unwrap();
            let est = estimate_tick(r);
            assert!((est - t).abs() <= 2, "tick {t}: estimate {est}");
            assert_eq!(tick_at_sqrt_ratio(r).unwrap(), t);
        }
    }

    #[test]
    fn fast_path_matches_oracle_between_ticks() {
        // prices strictly between tick boundaries, where rounding in the
        // estimate is most likely to straddle the wrong side
        for t in [-700000, -33333, -2, 0, 2, 33333, 700000] {
            let a = sqrt_ratio_at_tick(t).unwrap();
            let b = sqrt_ratio_at_tick(t + 1).unwrap();
            for num in 1u64..4 {
                let p = a + (b - a).mul_div(U256::from_u64(num), U256::from_u64(4));
                assert_eq!(
                    tick_at_sqrt_ratio(p).unwrap(),
                    bisect_tick(MIN_TICK, MAX_TICK, p),
                    "tick {t} frac {num}/4"
                );
            }
        }
    }

    #[test]
    fn negative_tick_is_reciprocal() {
        // ratio(t) * ratio(-t) ≈ 2^192 (i.e. price * 1/price == 1)
        for t in [1, 60, 887272] {
            let a = sqrt_ratio_at_tick(t).unwrap();
            let b = sqrt_ratio_at_tick(-t).unwrap();
            let prod = a.full_mul(b);
            let expect = U512::pow2(192);
            let diff = if prod > expect {
                prod.checked_sub(expect).unwrap()
            } else {
                expect.checked_sub(prod).unwrap()
            };
            // relative error bound: diff / 2^192 < 2^-30
            assert!(diff < (U512::pow2(162)), "tick {t}: diff {diff:?}");
        }
    }
}
