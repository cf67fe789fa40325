//! Conformance scenarios for the AMM engine: fee settlement around the
//! position lifecycle (including the tick-clear ordering regression),
//! multi-range swaps, and concentrated-liquidity behaviour.

use ammboost_amm::pool::{Pool, SwapKind};
use ammboost_amm::tick_math::sqrt_ratio_at_tick;
use ammboost_amm::types::{Amount, PositionId};
use ammboost_crypto::Address;

fn addr(i: u64) -> Address {
    Address::from_index(i)
}

fn pid(tag: &str) -> PositionId {
    PositionId::derive(&[tag.as_bytes()])
}

/// Regression for the tick-clear ordering bug: a position whose full burn
/// empties its ticks must settle its fees from the *pre-clear* tick state;
/// repeated churn cycles must never inflate or brick `tokens_owed`.
#[test]
fn full_burn_settles_fees_before_tick_clear() {
    let mut pool = Pool::new_standard();
    pool.mint(
        pid("base"),
        addr(1),
        -120_000,
        120_000,
        10u128.pow(13),
        10u128.pow(13),
    )
    .unwrap();

    for cycle in 0..50u64 {
        let id = PositionId::derive(&[b"churn", &cycle.to_be_bytes()]);
        // a fresh narrow position each cycle (unique ticks get initialized
        // and cleared over and over)
        let lo = -600 - 60 * (cycle as i32 % 7);
        let hi = 600 + 60 * (cycle as i32 % 5);
        pool.mint(id, addr(2), lo, hi, 5_000_000, 5_000_000)
            .unwrap();
        // trade through the range so fees accrue
        pool.swap(true, SwapKind::ExactInput(2_000_000), None)
            .unwrap();
        pool.swap(false, SwapKind::ExactInput(2_000_000), None)
            .unwrap();
        // full exit must always succeed (the bug made this fail with
        // balance overflow after a few cycles)
        let held = pool.position(&id).unwrap().liquidity;
        pool.burn(id, addr(2), held)
            .unwrap_or_else(|e| panic!("cycle {cycle}: burn failed: {e}"));
        let out = pool.collect(id, addr(2), Amount::MAX, Amount::MAX).unwrap();
        // fees are bounded by the cycle's traded volume — no inflation
        assert!(
            out.amount0 < 20_000_000 && out.amount1 < 20_000_000,
            "cycle {cycle}: inflated settlement {out}"
        );
        assert!(pool.position(&id).is_none());
    }
}

#[test]
fn fees_split_across_overlapping_ranges() {
    let mut pool = Pool::new_standard();
    // equal liquidity budgets; b's range is a superset of a's
    pool.mint(pid("a"), addr(1), -600, 600, 20_000_000, 20_000_000)
        .unwrap();
    pool.mint(pid("b"), addr(2), -1200, 1200, 20_000_000, 20_000_000)
        .unwrap();
    // small swaps stay inside both ranges
    for _ in 0..20 {
        pool.swap(true, SwapKind::ExactInput(100_000), None)
            .unwrap();
        pool.swap(false, SwapKind::ExactInput(100_000), None)
            .unwrap();
    }
    let fa = pool
        .collect(pid("a"), addr(1), Amount::MAX, Amount::MAX)
        .unwrap();
    let fb = pool
        .collect(pid("b"), addr(2), Amount::MAX, Amount::MAX)
        .unwrap();
    // a's liquidity is denser (same budget, half the width): more fees
    assert!(
        fa.amount0 > fb.amount0,
        "narrow range must out-earn wide: {fa} vs {fb}"
    );
    assert!(fa.amount1 > fb.amount1);
}

#[test]
fn swap_across_many_initialized_ticks() {
    let mut pool = Pool::new_standard();
    // a ladder of adjacent ranges
    for step in 0..10i32 {
        let lo = -60 * (step + 1);
        let hi = -60 * step;
        pool.mint(
            PositionId::derive(&[b"ladder", &step.to_be_bytes()]),
            addr(3),
            lo,
            hi,
            2_000_000,
            2_000_000,
        )
        .unwrap();
    }
    // base liquidity so the swap can keep going
    pool.mint(pid("floor"), addr(3), -6000, 6000, 50_000_000, 50_000_000)
        .unwrap();
    let res = pool
        .swap(
            true,
            SwapKind::ExactInput(40_000_000),
            Some(sqrt_ratio_at_tick(-660).unwrap()),
        )
        .unwrap();
    assert!(res.ticks_crossed >= 8, "crossed only {}", res.ticks_crossed);
    // price ends at the limit; every crossing adjusted liquidity
    assert_eq!(pool.sqrt_price(), sqrt_ratio_at_tick(-660).unwrap());
}

#[test]
fn exact_output_across_tick_boundary_delivers_exactly() {
    let mut pool = Pool::new_standard();
    pool.mint(pid("inner"), addr(1), -120, 120, 30_000_000, 30_000_000)
        .unwrap();
    pool.mint(pid("outer"), addr(1), -6000, 6000, 30_000_000, 30_000_000)
        .unwrap();
    // demand more token1 than the inner range holds (~30M): must cross
    // its lower tick and still deliver exactly
    let res = pool
        .swap(true, SwapKind::ExactOutput(45_000_000), None)
        .unwrap();
    assert_eq!(res.amount_out, 45_000_000);
    assert!(res.ticks_crossed >= 1);
}

#[test]
fn dust_swaps_accumulate_consistently() {
    let mut pool = Pool::new_standard();
    pool.mint(
        pid("base"),
        addr(1),
        -600,
        600,
        10u128.pow(12),
        10u128.pow(12),
    )
    .unwrap();
    let start_balances = pool.balances();
    let mut total_in = 0u128;
    let mut total_out = 0u128;
    for _ in 0..500 {
        let r = pool.swap(true, SwapKind::ExactInput(100), None).unwrap();
        total_in += r.amount_in;
        total_out += r.amount_out;
    }
    let end = pool.balances();
    assert_eq!(end.amount0, start_balances.amount0 + total_in);
    assert_eq!(end.amount1, start_balances.amount1 - total_out);
    // pool keeps the fee margin
    assert!(total_out < total_in);
}

#[test]
fn price_limit_exactly_on_initialized_tick() {
    let mut pool = Pool::new_standard();
    pool.mint(
        pid("base"),
        addr(1),
        -1200,
        1200,
        10u128.pow(10),
        10u128.pow(10),
    )
    .unwrap();
    let limit = sqrt_ratio_at_tick(-1200).unwrap() + ammboost_crypto::U256::ONE;
    pool.swap(true, SwapKind::ExactInput(u128::MAX >> 8), Some(limit))
        .unwrap();
    assert_eq!(pool.sqrt_price(), limit);
    // liquidity beyond the lower bound is zero: pool tick is at/below the
    // range edge
    assert!(pool.tick() <= -1199);
}

#[test]
fn reentering_range_resumes_fee_accrual() {
    let mut pool = Pool::new_standard();
    pool.mint(
        pid("wide"),
        addr(1),
        -120_000,
        120_000,
        10u128.pow(13),
        10u128.pow(13),
    )
    .unwrap();
    pool.mint(pid("narrow"), addr(2), -600, 600, 10_000_000, 10_000_000)
        .unwrap();

    // leave the narrow range entirely
    pool.swap(
        true,
        SwapKind::ExactInput(u128::MAX >> 8),
        Some(sqrt_ratio_at_tick(-3000).unwrap()),
    )
    .unwrap();
    let owed_outside = {
        let mut staged = pool.clone();
        staged
            .collect(pid("narrow"), addr(2), Amount::MAX, Amount::MAX)
            .unwrap()
    };

    // come back inside and trade
    pool.swap(
        false,
        SwapKind::ExactInput(u128::MAX >> 8),
        Some(sqrt_ratio_at_tick(0).unwrap()),
    )
    .unwrap();
    for _ in 0..10 {
        pool.swap(true, SwapKind::ExactInput(500_000), None)
            .unwrap();
        pool.swap(false, SwapKind::ExactInput(500_000), None)
            .unwrap();
    }
    let owed_back_inside = pool
        .collect(pid("narrow"), addr(2), Amount::MAX, Amount::MAX)
        .unwrap();
    assert!(
        owed_back_inside.amount0 > owed_outside.amount0
            || owed_back_inside.amount1 > owed_outside.amount1,
        "no fees accrued after re-entering the range"
    );
}

#[test]
fn flash_during_active_positions_pays_all_in_range() {
    let mut pool = Pool::new_standard();
    pool.mint(pid("a"), addr(1), -600, 600, 10_000_000, 10_000_000)
        .unwrap();
    pool.mint(pid("b"), addr(2), -600, 600, 10_000_000, 10_000_000)
        .unwrap();
    pool.flash(1_000_000, 1_000_000, |loan| {
        ammboost_amm::types::AmountPair::new(loan.amount0 + 3_000, loan.amount1 + 3_000)
    })
    .unwrap();
    let fa = pool
        .collect(pid("a"), addr(1), Amount::MAX, Amount::MAX)
        .unwrap();
    let fb = pool
        .collect(pid("b"), addr(2), Amount::MAX, Amount::MAX)
        .unwrap();
    // equal liquidity -> equal flash-fee share (within rounding)
    assert!((fa.amount0 as i128 - fb.amount0 as i128).abs() <= 1);
    assert!((fa.amount1 as i128 - fb.amount1 as i128).abs() <= 1);
    assert!(fa.amount0 > 0);
}
