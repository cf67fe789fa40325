//! # ammboost-bench
//!
//! The experiment harness: the `repro` ledger of the paper's numbers
//! (under `src/bin/`) and Criterion micro-benchmarks (under `benches/`).
//! This library holds the ledger's section header and the benchmark
//! pool builders.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ammboost_amm::pool::{Pool, SwapKind, SwapResult};
use ammboost_amm::tick_math::sqrt_ratio_at_tick;
use ammboost_amm::types::PositionId;
use ammboost_crypto::{Address, U256};

/// Top tick of the benchmark liquidity band. Real heavyweight pools sit
/// far from price 1.0 (mainnet USDC/WETH trades around tick −200000), so
/// the band lives there too: boundary-price math at such ticks has many
/// set bits and a reciprocal division — the cost the pool's per-tick
/// boundary-price cache amortizes away.
pub const LADDER_TOP_TICK: i32 = -199_980;

/// Builds a pool whose liquidity is a ladder of `rungs` contiguous
/// one-spacing (60-tick) ranges directly below the current price
/// ([`LADDER_TOP_TICK`]): a zero-for-one sweep down the ladder crosses
/// one initialized tick per rung. This is the tick-dense scenario where
/// next-tick lookup dominates the swap loop.
///
/// # Panics
/// Panics if a ladder mint fails (configuration error).
pub fn ladder_pool(rungs: u32) -> Pool {
    let mut pool = Pool::new(
        3000,
        60,
        sqrt_ratio_at_tick(LADDER_TOP_TICK).expect("band top in range"),
    )
    .expect("pool params valid");
    for i in 0..rungs as i32 {
        let id = PositionId::derive(&[b"ladder", &(i as u64).to_be_bytes()]);
        pool.mint(
            id,
            Address::from_index(7_000 + i as u64),
            LADDER_TOP_TICK - (i + 1) * 60,
            LADDER_TOP_TICK - i * 60,
            1_000_000_000_000,
            1_000_000_000_000,
        )
        .expect("ladder mint");
    }
    pool
}

/// A pool with one wide range spanning the same band as
/// [`ladder_pool`]`(rungs)` — the sparse-liquidity counterpart.
///
/// # Panics
/// Panics if the seed mint fails (configuration error).
pub fn wide_pool(rungs: u32) -> Pool {
    let mut pool = Pool::new(
        3000,
        60,
        sqrt_ratio_at_tick(LADDER_TOP_TICK).expect("band top in range"),
    )
    .expect("pool params valid");
    pool.mint(
        PositionId::derive(&[b"wide"]),
        Address::from_index(7_999),
        LADDER_TOP_TICK - (rungs as i32) * 60,
        LADDER_TOP_TICK,
        1_000_000_000_000u128 * rungs as u128,
        1_000_000_000_000u128 * rungs as u128,
    )
    .expect("wide mint");
    pool
}

/// A fragmented ladder: `positions` one-spacing ranges with a one-spacing
/// gap between neighbours, the profile scattered LPs actually produce.
/// Each position contributes two initialized ticks and each gap a
/// liquidity-free segment the swap loop glides across — so a sweep over
/// `positions` rungs crosses `2 · positions` initialized ticks, half of
/// them on pure next-tick-search steps.
///
/// # Panics
/// Panics if a mint fails (configuration error).
pub fn fragmented_ladder_pool(positions: u32) -> Pool {
    let mut pool = Pool::new(
        3000,
        60,
        sqrt_ratio_at_tick(LADDER_TOP_TICK).expect("band top in range"),
    )
    .expect("pool params valid");
    for i in 0..positions as i32 {
        let id = PositionId::derive(&[b"frag", &(i as u64).to_be_bytes()]);
        pool.mint(
            id,
            Address::from_index(8_000 + i as u64),
            LADDER_TOP_TICK - (2 * i + 1) * 60,
            LADDER_TOP_TICK - 2 * i * 60,
            1_000_000_000_000,
            1_000_000_000_000,
        )
        .expect("fragmented mint");
    }
    pool
}

/// The price limit for a full ladder sweep over `rungs` one-spacing
/// segments: exactly the band's bottom boundary, so the swap ends on a
/// tick boundary (no final tick binary search adding to the crossing
/// cost).
///
/// # Panics
/// Panics if the ladder bottom is out of tick range (configuration error).
fn ladder_sweep_limit(rungs: u32) -> U256 {
    sqrt_ratio_at_tick(LADDER_TOP_TICK - (rungs as i32) * 60).expect("ladder bottom in range")
}

/// Sweeps the whole ladder with a huge exact-input budget: the swap stops
/// at the price limit after crossing every rung boundary.
///
/// # Panics
/// Panics if the swap fails (configuration error).
pub fn ladder_sweep(pool: &mut Pool, rungs: u32) -> SwapResult {
    pool.swap(
        true,
        SwapKind::ExactInput(u128::MAX >> 32),
        Some(ladder_sweep_limit(rungs)),
    )
    .expect("ladder sweep")
}

/// Prints a section header.
pub fn header(title: &str) {
    println!();
    println!("==============================================================");
    println!("{title}");
    println!("==============================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_sweep_crosses_every_rung() {
        let mut pool = ladder_pool(64);
        assert_eq!(pool.initialized_tick_count(), 65);
        let a = ladder_sweep(&mut pool, 64);
        assert!(a.ticks_crossed >= 64, "crossed {}", a.ticks_crossed);
        assert_eq!(pool.sqrt_price(), ladder_sweep_limit(64));
    }

    #[test]
    fn fragmented_sweep_crosses_64_ticks() {
        let mut pool = fragmented_ladder_pool(32);
        assert_eq!(pool.initialized_tick_count(), 64);
        // the band's lowest initialized tick is 63 segments down
        let a = ladder_sweep(&mut pool, 63);
        assert_eq!(a.ticks_crossed, 64, "crossed {}", a.ticks_crossed);
        assert_eq!(pool.sqrt_price(), ladder_sweep_limit(63));
    }

    #[test]
    fn wide_pool_spans_the_same_band_sparsely() {
        let pool = wide_pool(64);
        assert_eq!(pool.initialized_tick_count(), 2);
    }
}
