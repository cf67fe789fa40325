//! Differential properties of the tick-bitmap swap engine.
//!
//! The seed comparison runs inside [`Pool`] in debug builds: at every swap
//! step the pool asserts that the bitmap's next initialized tick is the
//! seed's `BTreeMap::range` answer, that the cached boundary price and net
//! liquidity are `sqrt_ratio_at_tick` and the tick table's entry, and that
//! every cached tick bound is `tick_at_sqrt_ratio`'s. This suite drives
//! the pool into the cases those checks must see, and adds the checks
//! that hold in release builds too.
//!
//! Random mint/burn/swap/collect sequences — including `ExactOutput`
//! budgets, price-limit early exits, and whole burns that remove a tick
//! later swaps must no longer cross — are replayed on one pool. After
//! every operation the committed tick must be the tick of the committed
//! price; at the end a pool restored from the exported state must quote
//! bit-identically. (That the index tracks the tick table and equals a
//! rebuild is checked beside the index, in `pool.rs`'s unit tests.)
//!
//! A swap's final tick is recovered through the pool's cached sqrt-price
//! bounds: it keeps the staged tick while the price stays inside them,
//! probes one tick when it leaves them by one, and only then runs the
//! bracketed `tick_at_sqrt_ratio` search. So the sequences reach the cases
//! that cache must get right — limits exactly on and one unit past a tick
//! boundary, swaps that stop on a crossing, glides to a limit through
//! liquidity-free ranges, full-range positions and limits at `MIN_TICK` /
//! `MAX_TICK`, amounts too small to move the price. The fixed cases also
//! run every swap on a copy restored from the pool's exported state, whose
//! index is rebuilt and whose bounds are derived afresh: both must return
//! the same result and reach the same state.

use ammboost_amm::pool::{Pool, SwapKind, SwapResult};
use ammboost_amm::tick_math::{
    max_sqrt_ratio, min_sqrt_ratio, sqrt_ratio_at_tick, tick_at_sqrt_ratio, MAX_TICK, MIN_TICK,
};
use ammboost_amm::types::{Amount, PositionId};
use ammboost_amm::AmmError;
use ammboost_crypto::{Address, U256};
use proptest::prelude::*;

/// Spacing of the proptest pools: it divides 60 (the half-width unit of
/// a mint) and 887 272, so `MIN_TICK` and `MAX_TICK` are usable position
/// boundaries.
const SPACING: i32 = 4;

/// A swap's price limit.
#[derive(Clone, Debug)]
enum Limit {
    None,
    /// Exactly on the boundary of the tick this signed offset from the
    /// current tick; deliberately sometimes on the wrong side so the
    /// `InvalidPriceLimit` path is exercised.
    OnBoundary(i32),
    /// One unit above (`true`) or below that boundary, a few ticks away:
    /// inside the tick the cache probes, or just past it.
    BesideBoundary(i32, bool),
    /// Exactly on the mint boundary `60 · k`, where a swap stops on a
    /// crossing.
    OnPositionBoundary(i32),
    /// `min_sqrt_ratio()` or `max_sqrt_ratio()`, whichever the direction
    /// allows.
    DomainEdge,
}

/// One random pool operation, fully determined by its parameters.
#[derive(Clone, Debug)]
enum Op {
    Mint {
        slot: u8,
        /// The range is `±60 · half_width`; `0` is the full domain.
        half_width: i32,
        amount: u128,
    },
    Burn {
        slot: u8,
        share: Share,
    },
    Collect {
        slot: u8,
    },
    Swap {
        zero_for_one: bool,
        exact_output: bool,
        amount: u128,
        limit: Limit,
    },
}

/// How much of a position a burn takes. A whole burn empties it, which
/// releases its ticks (and clears their bitmap bits) unless another
/// position still references them.
#[derive(Clone, Debug)]
enum Share {
    All,
    Half,
    /// `(held / 10 000) · bp`: rarely the whole position.
    BasisPoints(u16),
}

fn limit_strategy() -> impl Strategy<Value = Limit> {
    prop_oneof![
        Just(Limit::None),
        Just(Limit::None),
        (-200i32..201).prop_map(Limit::OnBoundary),
        (-200i32..201).prop_map(Limit::OnBoundary),
        (-3i32..4, any::<bool>()).prop_map(|(offset, above)| Limit::BesideBoundary(offset, above)),
        (-40i32..41).prop_map(Limit::OnPositionBoundary),
        Just(Limit::DomainEdge),
    ]
}

/// A swap of any width: most stay inside one tick, the widest glide to
/// their limit, and the smallest do not move the price at all.
fn swap_strategy() -> impl Strategy<Value = Op> {
    let amount = prop_oneof![
        1u128..4,
        1_000u128..80_000_000,
        1_000u128..80_000_000,
        1u128 << 60..1u128 << 100,
    ];
    (any::<bool>(), any::<bool>(), amount, limit_strategy()).prop_map(
        |(zero_for_one, exact_output, amount, limit)| Op::Swap {
            zero_for_one,
            exact_output,
            amount,
            limit,
        },
    )
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..4, 0i32..40, 50_000u128..50_000_000).prop_map(|(slot, half_width, amount)| {
            Op::Mint {
                slot,
                half_width,
                amount,
            }
        }),
        (0u8..4, 1u16..10_001).prop_map(|(slot, bp)| Op::Burn {
            slot,
            share: Share::BasisPoints(bp),
        }),
        (0u8..4, any::<bool>()).prop_map(|(slot, all)| Op::Burn {
            slot,
            share: if all { Share::All } else { Share::Half },
        }),
        (0u8..4).prop_map(|slot| Op::Collect { slot }),
        swap_strategy(),
        swap_strategy(),
        swap_strategy(),
    ]
}

fn pid(slot: u8) -> PositionId {
    PositionId::derive(&[b"diff", &[slot]])
}

fn owner(slot: u8) -> Address {
    Address::from_index(1000 + slot as u64)
}

/// Applies `op` to the pool; a rejected operation leaves it unchanged.
fn apply(pool: &mut Pool, op: &Op) {
    match *op {
        Op::Mint {
            slot,
            half_width,
            amount,
        } => {
            let (lower, upper) = if half_width == 0 {
                (MIN_TICK, MAX_TICK)
            } else {
                (-60 * half_width, 60 * half_width)
            };
            let _ = pool.mint(pid(slot), owner(slot), lower, upper, amount, amount);
        }
        Op::Burn { slot, ref share } => {
            let held = pool.position(&pid(slot)).map(|p| p.liquidity).unwrap_or(0);
            let burn = match *share {
                Share::All => held,
                Share::Half => held / 2,
                Share::BasisPoints(bp) => (held / 10_000) * bp as u128,
            };
            if burn > 0 {
                let _ = pool.burn(pid(slot), owner(slot), burn);
            }
        }
        Op::Collect { slot } => {
            let _ = pool.collect(pid(slot), owner(slot), Amount::MAX, Amount::MAX);
        }
        Op::Swap {
            zero_for_one,
            exact_output,
            amount,
            ref limit,
        } => {
            let boundary = |tick: i32| {
                sqrt_ratio_at_tick(tick.clamp(MIN_TICK, MAX_TICK)).expect("clamped tick in range")
            };
            let limit = match *limit {
                Limit::None => None,
                Limit::OnBoundary(offset) => Some(boundary(pool.tick() + offset)),
                Limit::BesideBoundary(offset, true) => {
                    Some(boundary(pool.tick() + offset) + U256::ONE)
                }
                Limit::BesideBoundary(offset, false) => {
                    Some(boundary(pool.tick() + offset) - U256::ONE)
                }
                Limit::OnPositionBoundary(k) => Some(boundary(60 * k)),
                Limit::DomainEdge if zero_for_one => Some(min_sqrt_ratio()),
                Limit::DomainEdge => Some(max_sqrt_ratio()),
            };
            let kind = if exact_output {
                SwapKind::ExactOutput(amount)
            } else {
                SwapKind::ExactInput(amount)
            };
            let _ = pool.swap(zero_for_one, kind, limit);
        }
    }
}

/// Full observable state, serialized for equality comparison.
fn state(pool: &Pool) -> String {
    let mut positions: Vec<String> = (0u8..4)
        .map(|s| format!("{:?}", pool.position(&pid(s))))
        .collect();
    positions.sort();
    format!(
        "price={:?} tick={} liq={} bal={:?} growth={:?} ticks={} pos={:?}",
        pool.sqrt_price(),
        pool.tick(),
        pool.liquidity(),
        pool.balances(),
        pool.fee_growth_global(),
        pool.initialized_tick_count(),
        positions,
    )
}

/// The committed tick is the tick of the committed price, except after a
/// zero-for-one swap that stopped exactly on a boundary: that leaves the
/// tick just below it (the Uniswap convention).
fn assert_tick_matches_price(pool: &Pool) {
    let price = pool.sqrt_price();
    let of_price = tick_at_sqrt_ratio(price).expect("price in range");
    let on_boundary_below = of_price == pool.tick() + 1
        && sqrt_ratio_at_tick(of_price).expect("tick in range") == price;
    assert!(
        pool.tick() == of_price || on_boundary_below,
        "tick {} for price {price:?} (tick of price {of_price})",
        pool.tick()
    );
}

/// Quotes probe swaps each way on `pool` and on its restored copy.
fn assert_restore_quotes_identically(pool: &Pool) {
    let restored = Pool::from_state(pool.export_state()).expect("own state restores");
    assert_eq!(restored.tick(), pool.tick());
    for zero_for_one in [true, false] {
        for kind in [
            SwapKind::ExactInput(1),
            SwapKind::ExactInput(1_000_000),
            SwapKind::ExactOutput(1_000),
            SwapKind::ExactInput(1 << 90),
        ] {
            assert_eq!(
                format!("{:?}", restored.quote_swap(zero_for_one, kind, None)),
                format!("{:?}", pool.quote_swap(zero_for_one, kind, None)),
                "restored pool quotes differently: {zero_for_one} {kind:?}"
            );
        }
    }
}

/// Swaps on `pool` and on a copy restored from its exported state: both
/// must return the same result and leave the same state.
fn swap_agrees_with_restored(
    pool: &mut Pool,
    zero_for_one: bool,
    kind: SwapKind,
    limit: Option<U256>,
) -> Result<SwapResult, AmmError> {
    let mut restored = Pool::from_state(pool.export_state()).expect("own state restores");
    let got = pool.swap(zero_for_one, kind, limit);
    assert_eq!(
        restored.swap(zero_for_one, kind, limit),
        got,
        "restored pool swaps differently: {zero_for_one} {kind:?} {limit:?}"
    );
    assert_eq!(state(&restored), state(pool));
    got
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn bitmap_engine_matches_btree_oracle(
        start in -3_000i32..3_001,
        ops in proptest::collection::vec(op_strategy(), 1..40),
    ) {
        // every start price lies exactly on a tick boundary
        let price = sqrt_ratio_at_tick(start).unwrap();
        let mut pool = Pool::new(3000, SPACING, price).unwrap();

        for op in &ops {
            apply(&mut pool, op);
            assert_tick_matches_price(&pool);
        }
        assert_restore_quotes_identically(&pool);
    }

    #[test]
    fn exact_output_and_limits_agree_under_heavy_crossing(
        amount in 1_000_000u128..500_000_000,
        limit_ticks in 60i32..3000,
        zero_for_one in any::<bool>(),
        exact_output in any::<bool>(),
    ) {
        // A laddered pool with many initialized ticks so swaps cross often.
        let mut pool = Pool::new_standard();
        for i in -20i32..20 {
            let slot = (i + 20) as u64;
            let id = PositionId::derive(&[b"ladder", &slot.to_be_bytes()]);
            pool.mint(id, Address::from_index(slot), i * 120, (i + 1) * 120, 400_000, 400_000)
                .ok();
        }
        let limit_tick = if zero_for_one { -limit_ticks } else { limit_ticks };
        let limit = Some(sqrt_ratio_at_tick(limit_tick).unwrap());
        let kind = if exact_output {
            SwapKind::ExactOutput(amount)
        } else {
            SwapKind::ExactInput(amount)
        };
        let _ = swap_agrees_with_restored(&mut pool, zero_for_one, kind, limit);
        assert_tick_matches_price(&pool);
    }
}

#[test]
fn boundary_priced_pool_agrees_in_both_directions() {
    // a fresh pool sits exactly on tick 0's lower bound: a zero-for-one
    // swap leaves the cached bounds downward by one tick, a one-for-zero
    // swap stays inside them
    for zero_for_one in [true, false] {
        let mut pool = Pool::new_standard();
        pool.mint(pid(0), owner(0), -600, 600, 10u128.pow(15), 10u128.pow(15))
            .unwrap();
        for amount in [1u128, 1_000, 1_000_000, 10u128.pow(12)] {
            pool.quote_swap(zero_for_one, SwapKind::ExactInput(amount), None)
                .unwrap();
        }
        swap_agrees_with_restored(
            &mut pool,
            zero_for_one,
            SwapKind::ExactInput(1_000_000),
            None,
        )
        .unwrap();
        assert_eq!(pool.tick(), if zero_for_one { -1 } else { 0 });
        assert_tick_matches_price(&pool);
    }
}

#[test]
fn swaps_that_stop_on_a_crossing_keep_agreeing() {
    // stop exactly on an initialized boundary (tick just below it after a
    // zero-for-one crossing), then trade away from it both ways
    let mut pool = Pool::new(3000, 60, sqrt_ratio_at_tick(30).unwrap()).unwrap();
    pool.mint(pid(1), owner(1), -600, 600, 10u128.pow(15), 10u128.pow(15))
        .unwrap();
    pool.mint(pid(2), owner(2), -120, 0, 10u128.pow(15), 10u128.pow(15))
        .unwrap();
    let steps = [
        (true, SwapKind::ExactInput(1u128 << 100), Some(0)),
        // too small to move the price, which stays on the boundary above
        // the staged tick: the tick of the price is the one above
        (true, SwapKind::ExactInput(1), None),
        (true, SwapKind::ExactInput(1u128 << 100), Some(0)),
        (false, SwapKind::ExactInput(1), None),
        (true, SwapKind::ExactInput(1u128 << 100), Some(-120)),
        (false, SwapKind::ExactInput(5_000), None),
        (true, SwapKind::ExactOutput(5_000), None),
        (true, SwapKind::ExactInput(1u128 << 100), Some(-120)),
        (true, SwapKind::ExactInput(7_000), None),
        (false, SwapKind::ExactInput(1u128 << 100), Some(-120)),
        (false, SwapKind::ExactOutput(1), None),
    ];
    for (zero_for_one, kind, limit_tick) in steps {
        let limit = limit_tick.map(|t| sqrt_ratio_at_tick(t).unwrap());
        let _ = swap_agrees_with_restored(&mut pool, zero_for_one, kind, limit);
        assert_tick_matches_price(&pool);
    }
    assert_restore_quotes_identically(&pool);
}

#[test]
fn limits_just_past_the_probed_tick_agree() {
    // from inside tick 30, a limit one unit beyond the neighbouring tick
    // (inside tick 28 going down, tick 32 going up) lies within the
    // cache's one-probe window but outside the probed tick, so the swap
    // must fall back to the search
    for zero_for_one in [true, false] {
        let price = sqrt_ratio_at_tick(30).unwrap() + U256::from_u64(1 << 40);
        let mut pool = Pool::new(3000, 60, price).unwrap();
        pool.mint(pid(1), owner(1), -600, 600, 10u128.pow(15), 10u128.pow(15))
            .unwrap();
        let limit = if zero_for_one {
            sqrt_ratio_at_tick(29).unwrap() - U256::ONE
        } else {
            sqrt_ratio_at_tick(32).unwrap() + U256::ONE
        };
        let kind = SwapKind::ExactInput(1u128 << 100);
        swap_agrees_with_restored(&mut pool, zero_for_one, kind, Some(limit)).unwrap();
        assert_eq!(pool.tick(), if zero_for_one { 28 } else { 32 });
        assert_tick_matches_price(&pool);
    }
}
