//! Criterion micro-benchmarks for the AMM engine: tick math, swap
//! stepping, fixed-point math, pool operations and sealed-view quotes —
//! the per-transaction costs that bound sidechain throughput.

use ammboost_amm::engines::bmath::{bdiv, bmul, bpow, BONE};
use ammboost_amm::engines::{Engine, EngineKind};
use ammboost_amm::pool::{Pool, SwapKind};
use ammboost_amm::sqrt_price_math::{
    amount0_delta, amount1_delta, next_sqrt_price_from_amount0, next_sqrt_price_from_amount1,
};
use ammboost_amm::tick_bitmap::TickBitmap;
use ammboost_amm::tick_math::{sqrt_ratio_at_tick, tick_at_sqrt_ratio};
use ammboost_amm::types::{PoolId, PositionId};
use ammboost_bench::{fragmented_ladder_pool, ladder_pool, ladder_sweep, wide_pool};
use ammboost_core::QuoteView;
use ammboost_crypto::Address;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;
use std::sync::Arc;

fn pool_with_liquidity() -> Pool {
    let mut pool = Pool::new_standard();
    pool.mint(
        PositionId::derive(&[b"bench"]),
        Address::from_index(1),
        -6000,
        6000,
        10u128.pow(14),
        10u128.pow(14),
    )
    .expect("seed mint");
    pool
}

fn bench_tick_math(c: &mut Criterion) {
    c.bench_function("tick_math/sqrt_ratio_at_tick", |b| {
        let mut t = -400_000i32;
        b.iter(|| {
            t = if t > 400_000 { -400_000 } else { t + 997 };
            black_box(sqrt_ratio_at_tick(black_box(t)).unwrap())
        })
    });
    c.bench_function("tick_math/tick_at_sqrt_ratio", |b| {
        let r = sqrt_ratio_at_tick(12345).unwrap();
        b.iter(|| black_box(tick_at_sqrt_ratio(black_box(r)).unwrap()))
    });
}

fn bench_swaps(c: &mut Criterion) {
    c.bench_function("pool/swap_exact_input_small", |b| {
        let pool = pool_with_liquidity();
        b.iter_batched(
            || pool.clone(),
            |mut p| {
                black_box(
                    p.swap(true, SwapKind::ExactInput(50_000), None)
                        .expect("swap"),
                )
            },
            BatchSize::SmallInput,
        )
    });
    c.bench_function("pool/swap_alternating_directions", |b| {
        let mut pool = pool_with_liquidity();
        let mut dir = false;
        b.iter(|| {
            dir = !dir;
            black_box(
                pool.swap(dir, SwapKind::ExactInput(50_000), None)
                    .expect("swap"),
            )
        })
    });
    // the same alternating pattern through the two share-based engines,
    // dispatched through `Engine` as the node dispatches them
    for (name, kind) in [
        ("pool/swap_constant_product", EngineKind::ConstantProduct),
        ("pool/swap_weighted", EngineKind::Weighted),
    ] {
        c.bench_function(name, |b| {
            let mut engine = Engine::new_standard(kind);
            engine
                .mint(
                    PositionId::derive(&[b"bench"]),
                    Address::from_index(1),
                    -6000,
                    6000,
                    10u128.pow(14),
                    10u128.pow(14),
                )
                .expect("seed join");
            let mut dir = false;
            b.iter(|| {
                dir = !dir;
                black_box(
                    engine
                        .swap(dir, SwapKind::ExactInput(50_000), None)
                        .expect("swap"),
                )
            })
        });
    }
}

/// The weighted engine's fixed-point primitives at the operand shapes a
/// swap feeds them: reserves in the 10¹⁵ range over `BONE`-scaled ratios.
fn bench_bmath(c: &mut Criterion) {
    let reserve = 4_000_000_000_123_457u128;
    let ratio = 876_543_210_987_654_321u128;
    c.bench_function("bmath/bmul", |b| {
        b.iter(|| black_box(bmul(black_box(reserve), black_box(ratio)).unwrap()))
    });
    c.bench_function("bmath/bdiv", |b| {
        b.iter(|| black_box(bdiv(black_box(reserve), black_box(reserve + 987_654_321)).unwrap()))
    });
    // exponent 0.25 (an 80/20 pool's w_out/w_in) runs the binomial
    // series; exponent 4 (its w_in/w_out) is pure square-and-multiply
    let base = 999_000_000_000_000_000u128;
    c.bench_function("bmath/bpow_quarter", |b| {
        b.iter(|| black_box(bpow(black_box(base), black_box(BONE / 4)).unwrap()))
    });
    c.bench_function("bmath/bpow_four", |b| {
        b.iter(|| black_box(bpow(black_box(base), black_box(4 * BONE)).unwrap()))
    });
}

/// The in-run quote path: `QuoteView::quote_swap` over a sealed pool of
/// each engine, seeded as the fleet workloads seed them.
///
/// A concentrated-liquidity pool sealed at its initial price sits exactly
/// on tick 0's lower boundary, so every zero-for-one quote leaves the
/// current tick's cached bounds: `view/quote_swap_cl` is the worst case.
/// `view/quote_swap_cl_off_boundary` seals the same pool after one seeding
/// swap, as a pool stands after any run.
fn bench_view_quotes(c: &mut Criterion) {
    for (name, kind, seeding_swap) in [
        (
            "view/quote_swap_cl",
            EngineKind::ConcentratedLiquidity,
            false,
        ),
        (
            "view/quote_swap_cl_off_boundary",
            EngineKind::ConcentratedLiquidity,
            true,
        ),
        ("view/quote_swap_cp", EngineKind::ConstantProduct, false),
        ("view/quote_swap_weighted", EngineKind::Weighted, false),
    ] {
        let mut engine = Engine::new_standard(kind);
        engine
            .mint(
                PositionId::derive(&[b"bench"]),
                Address::from_index(1),
                -120_000,
                120_000,
                4_000_000_000_000_000,
                4_000_000_000_000_000,
            )
            .expect("seed join");
        if seeding_swap {
            engine
                .swap(true, SwapKind::ExactInput(12_345_678_901), None)
                .expect("seeding swap");
        }
        let view = QuoteView::new(1, vec![(PoolId(0), Arc::new(engine))]);
        c.bench_function(name, |b| {
            let mut dir = false;
            b.iter(|| {
                dir = !dir;
                black_box(
                    view.quote_swap(PoolId(0), dir, SwapKind::ExactInput(1_000_000_000), None)
                        .expect("quote"),
                )
            })
        });
    }
}

/// The sqrt-price kernels one swap step runs, at the operand shapes of
/// the paper's pool: a price near tick 0, a neighbouring boundary, and
/// the liquidity of the seed position above.
fn bench_sqrt_price_math(c: &mut Criterion) {
    let mut pool = Pool::new_standard();
    pool.mint(
        PositionId::derive(&[b"bench"]),
        Address::from_index(1),
        -120_000,
        120_000,
        4_000_000_000_000_000,
        4_000_000_000_000_000,
    )
    .expect("seed mint");
    pool.swap(true, SwapKind::ExactInput(12_345_678_901), None)
        .expect("seeding swap");
    let (price, liquidity) = (pool.sqrt_price(), pool.liquidity());
    let below = sqrt_ratio_at_tick(-60).expect("tick in range");
    let above = sqrt_ratio_at_tick(60).expect("tick in range");
    let amount = 987_654_321u128;
    c.bench_function("sqrt_price_math/amount0_delta", |b| {
        let mut up = false;
        b.iter(|| {
            up = !up;
            black_box(amount0_delta(below, black_box(price), liquidity, up).unwrap())
        })
    });
    c.bench_function("sqrt_price_math/amount1_delta", |b| {
        let mut up = false;
        b.iter(|| {
            up = !up;
            black_box(amount1_delta(black_box(price), above, liquidity, up).unwrap())
        })
    });
    c.bench_function("sqrt_price_math/next_sqrt_price_from_amount0", |b| {
        let mut add = false;
        b.iter(|| {
            add = !add;
            black_box(
                next_sqrt_price_from_amount0(black_box(price), liquidity, amount, add).unwrap(),
            )
        })
    });
    c.bench_function("sqrt_price_math/next_sqrt_price_from_amount1", |b| {
        let mut add = false;
        b.iter(|| {
            add = !add;
            black_box(
                next_sqrt_price_from_amount1(black_box(price), liquidity, amount, add).unwrap(),
            )
        })
    });
}

fn bench_positions(c: &mut Criterion) {
    c.bench_function("pool/mint_and_burn", |b| {
        let pool = pool_with_liquidity();
        let lp = Address::from_index(9);
        let mut i = 0u64;
        b.iter_batched(
            || pool.clone(),
            |mut p| {
                i += 1;
                let id = PositionId::derive(&[b"mb", &i.to_be_bytes()]);
                p.mint(id, lp, -1200, 1200, 1_000_000, 1_000_000).unwrap();
                let liq = p.position(&id).unwrap().liquidity;
                p.burn(id, lp, liq).unwrap();
                black_box(p.collect(id, lp, u128::MAX, u128::MAX).unwrap())
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_tick_bitmap(c: &mut Criterion) {
    // a dense word plus distant outliers: exercises both the in-word mask
    // scan and the cross-word jump through the occupied index
    let mut bitmap = TickBitmap::new(60);
    for i in -64i32..=0 {
        bitmap.set(i * 60);
    }
    bitmap.set(-500_040);
    bitmap.set(499_980);
    c.bench_function("tick_bitmap/next_tick_in_word", |b| {
        let mut t = 0i32;
        b.iter(|| {
            t = if t <= -3_840 { 0 } else { t - 60 };
            black_box(bitmap.next_initialized_tick(black_box(t), true))
        })
    });
    c.bench_function("tick_bitmap/next_tick_cross_word", |b| {
        b.iter(|| black_box(bitmap.next_initialized_tick(black_box(-4000), true)))
    });
    c.bench_function("tick_bitmap/flip", |b| {
        let mut bm = TickBitmap::new(60);
        let mut t = 0i32;
        b.iter(|| {
            t = if t > 6000 { 0 } else { t + 60 };
            bm.set(t);
            bm.clear(t);
            black_box(bm.initialized_count())
        })
    });
}

/// The headline rung: a 64-tick-crossing sweep over fragmented liquidity
/// (32 scattered one-spacing positions → 64 initialized ticks, half the
/// segments liquidity-free), plus the same notional swap against dense
/// vs sparse liquidity bands.
fn bench_crossing_swaps(c: &mut Criterion) {
    let pool = fragmented_ladder_pool(32);
    c.bench_function("pool/swap_cross64_bitmap", |b| {
        b.iter_batched(
            || pool.clone(),
            |mut p| black_box(ladder_sweep(&mut p, 63)),
            BatchSize::SmallInput,
        )
    });
    // dense: 65 initialized ticks across the band; sparse: 2. Same band,
    // same budget, same engine — isolates the cost of tick crossings.
    let dense = ladder_pool(64);
    c.bench_function("pool/swap_dense_liquidity_band", |b| {
        b.iter_batched(
            || dense.clone(),
            |mut p| black_box(ladder_sweep(&mut p, 64)),
            BatchSize::SmallInput,
        )
    });
    let sparse = wide_pool(64);
    c.bench_function("pool/swap_sparse_liquidity_band", |b| {
        b.iter_batched(
            || sparse.clone(),
            |mut p| black_box(ladder_sweep(&mut p, 64)),
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(
    benches,
    bench_tick_math,
    bench_swaps,
    bench_bmath,
    bench_view_quotes,
    bench_sqrt_price_math,
    bench_positions,
    bench_tick_bitmap,
    bench_crossing_swaps
);
criterion_main!(benches);
