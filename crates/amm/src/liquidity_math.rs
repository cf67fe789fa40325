//! Liquidity arithmetic: signed adjustment of pool liquidity and the
//! amounts → liquidity conversions used when minting (Uniswap's
//! `LiquidityAmounts` periphery library).

use crate::sqrt_price_math::PriceMathError;
use crate::types::{Amount, Liquidity};
use ammboost_crypto::U256;

/// Applies a signed delta to a liquidity value.
///
/// # Errors
/// Fails on under/overflow.
#[inline]
pub fn add_delta(liquidity: Liquidity, delta: i128) -> Result<Liquidity, PriceMathError> {
    if delta >= 0 {
        liquidity
            .checked_add(delta as u128)
            .ok_or(PriceMathError::AmountOverflow)
    } else {
        liquidity
            .checked_sub(delta.unsigned_abs())
            .ok_or(PriceMathError::InsufficientReserves)
    }
}

#[inline]
fn q96() -> U256 {
    U256::pow2(96)
}

/// Liquidity purchasable with `amount0` across `[sqrt_lo, sqrt_hi]`:
/// `L = amount0 * (sqrt_lo * sqrt_hi / 2^96) / (sqrt_hi - sqrt_lo)`.
fn liquidity_for_amount0(sqrt_lo: U256, sqrt_hi: U256, amount0: Amount) -> Liquidity {
    let (lo, hi) = sort(sqrt_lo, sqrt_hi);
    if hi == lo {
        return 0;
    }
    let intermediate = lo.mul_div(hi, q96());
    U256::from_u128(amount0)
        .mul_div(intermediate, hi - lo)
        .to_u128()
        .unwrap_or(u128::MAX)
}

/// Liquidity purchasable with `amount1` across `[sqrt_lo, sqrt_hi]`:
/// `L = amount1 * 2^96 / (sqrt_hi - sqrt_lo)`.
fn liquidity_for_amount1(sqrt_lo: U256, sqrt_hi: U256, amount1: Amount) -> Liquidity {
    let (lo, hi) = sort(sqrt_lo, sqrt_hi);
    if hi == lo {
        return 0;
    }
    U256::from_u128(amount1)
        .mul_div(q96(), hi - lo)
        .to_u128()
        .unwrap_or(u128::MAX)
}

/// The maximum liquidity fundable with the given token budget at the current
/// price — the computation `getLiquidityForAmounts` performs during a mint.
pub fn liquidity_for_amounts(
    sqrt_price: U256,
    sqrt_lo: U256,
    sqrt_hi: U256,
    amount0: Amount,
    amount1: Amount,
) -> Liquidity {
    let (lo, hi) = sort(sqrt_lo, sqrt_hi);
    if sqrt_price <= lo {
        // range entirely above the price: only token0 is needed
        liquidity_for_amount0(lo, hi, amount0)
    } else if sqrt_price < hi {
        let l0 = liquidity_for_amount0(sqrt_price, hi, amount0);
        let l1 = liquidity_for_amount1(lo, sqrt_price, amount1);
        l0.min(l1)
    } else {
        // range entirely below the price: only token1 is needed
        liquidity_for_amount1(lo, hi, amount1)
    }
}

#[inline]
fn sort(a: U256, b: U256) -> (U256, U256) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sqrt_price_math::{amount0_delta, amount1_delta};
    use crate::tick_math::sqrt_ratio_at_tick;

    fn p(t: i32) -> U256 {
        sqrt_ratio_at_tick(t).unwrap()
    }

    #[test]
    fn add_delta_signs() {
        assert_eq!(add_delta(100, 50).unwrap(), 150);
        assert_eq!(add_delta(100, -40).unwrap(), 60);
        assert_eq!(add_delta(100, -100).unwrap(), 0);
        assert!(add_delta(100, -101).is_err());
        assert!(add_delta(u128::MAX, 1).is_err());
    }

    #[test]
    fn in_range_mint_takes_min_of_both_sides() {
        let price = p(0);
        let lo = p(-600);
        let hi = p(600);
        let l = liquidity_for_amounts(price, lo, hi, 1_000_000, 1_000_000);
        assert!(l > 0);
        // liquidity is limited by the scarcer side
        let l_token0_only = liquidity_for_amounts(price, lo, hi, 1_000_000, u128::MAX >> 1);
        let l_token1_only = liquidity_for_amounts(price, lo, hi, u128::MAX >> 1, 1_000_000);
        assert_eq!(l, l_token0_only.min(l_token1_only));
    }

    #[test]
    fn range_above_price_uses_only_token0() {
        let price = p(0);
        let l = liquidity_for_amounts(price, p(100), p(200), 1_000_000, 0);
        assert!(l > 0);
        // token1 budget irrelevant
        assert_eq!(
            l,
            liquidity_for_amounts(price, p(100), p(200), 1_000_000, 123456)
        );
    }

    #[test]
    fn range_below_price_uses_only_token1() {
        let price = p(0);
        let l = liquidity_for_amounts(price, p(-200), p(-100), 0, 1_000_000);
        assert!(l > 0);
        assert_eq!(
            l,
            liquidity_for_amounts(price, p(-200), p(-100), 999, 1_000_000)
        );
    }

    #[test]
    fn liquidity_amount_roundtrip() {
        // converting amounts -> liquidity -> amounts must not exceed the
        // original budget (pool-favourable rounding)
        let price = p(0);
        let lo = p(-1200);
        let hi = p(900);
        let budget0 = 5_000_000u128;
        let budget1 = 7_000_000u128;
        let l = liquidity_for_amounts(price, lo, hi, budget0, budget1);
        let need0 = amount0_delta(price, hi, l, true).unwrap();
        let need1 = amount1_delta(lo, price, l, true).unwrap();
        assert!(need0 <= budget0 + 1, "{need0} > {budget0}");
        assert!(need1 <= budget1 + 1, "{need1} > {budget1}");
    }

    #[test]
    fn empty_range_zero_liquidity() {
        assert_eq!(liquidity_for_amount0(p(5), p(5), 1000), 0);
        assert_eq!(liquidity_for_amount1(p(5), p(5), 1000), 0);
    }
}
