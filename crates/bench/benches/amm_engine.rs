//! Criterion micro-benchmarks for the AMM engine: tick math, swap
//! stepping, pool operations — the per-transaction costs that bound
//! sidechain throughput.

use ammboost_amm::engines::{Engine, EngineKind};
use ammboost_amm::pool::{Pool, SwapKind, TickSearch};
use ammboost_amm::tick_bitmap::TickBitmap;
use ammboost_amm::tick_math::{sqrt_ratio_at_tick, tick_at_sqrt_ratio};
use ammboost_amm::types::PositionId;
use ammboost_bench::{fragmented_ladder_pool, ladder_pool, ladder_sweep, wide_pool};
use ammboost_crypto::Address;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

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

/// The headline comparison: a 64-tick-crossing sweep over fragmented
/// liquidity (32 scattered one-spacing positions → 64 initialized ticks,
/// half the segments liquidity-free) under the bitmap engine vs the
/// retained BTreeMap oracle (the seed implementation), plus the same
/// notional swap against dense vs sparse liquidity bands.
fn bench_crossing_swaps(c: &mut Criterion) {
    for (label, search) in [
        ("bitmap", TickSearch::Bitmap),
        ("oracle", TickSearch::BTreeOracle),
    ] {
        let pool = fragmented_ladder_pool(32, search);
        c.bench_function(&format!("pool/swap_cross64_{label}"), |b| {
            b.iter_batched(
                || pool.clone(),
                |mut p| black_box(ladder_sweep(&mut p, 63)),
                BatchSize::SmallInput,
            )
        });
    }
    // dense: 65 initialized ticks across the band; sparse: 2. Same band,
    // same budget, same engine — isolates the cost of tick crossings.
    let dense = ladder_pool(64, TickSearch::Bitmap);
    c.bench_function("pool/swap_dense_liquidity_band", |b| {
        b.iter_batched(
            || dense.clone(),
            |mut p| black_box(ladder_sweep(&mut p, 64)),
            BatchSize::SmallInput,
        )
    });
    let sparse = wide_pool(64, TickSearch::Bitmap);
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
    bench_positions,
    bench_tick_bitmap,
    bench_crossing_swaps
);
criterion_main!(benches);
