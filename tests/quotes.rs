//! Quote-path properties: every answer served from a sealed epoch view
//! must be bit-identical to the same computation on the frozen epoch
//! snapshot bytes; quotes must equal subsequent execution; a held view
//! must stay immutable while the next epoch executes (no reader ever
//! observes a partially-executed epoch); and quote traffic must never
//! perturb the executed transaction stream.

use ammboost_amm::engines::Engine;
use ammboost_amm::pool::SwapKind;
use ammboost_amm::tx::{AmmTx, SwapIntent, SwapTx};
use ammboost_amm::types::PoolId;
use ammboost_core::config::SystemConfig;
use ammboost_core::shard::{ExecMode, ShardMap};
use ammboost_core::system::System;
use ammboost_crypto::Address;
use ammboost_workload::{QuoteStyle, TrafficSkew};
use proptest::prelude::*;
use std::collections::HashMap;

fn quoted_config(seed: u64, pools: u32, volume: u64, quotes_per_tx: f64) -> SystemConfig {
    SystemConfig {
        daily_volume: volume,
        pools,
        users: 4 * pools as u64,
        traffic_skew: TrafficSkew::Zipf { exponent: 1.0 },
        quote_style: QuoteStyle::per_tx(quotes_per_tx),
        seed,
        ..SystemConfig::small_test()
    }
}

proptest! {
    // full-system runs are expensive: keep the case count modest
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any quote answered from the final sealed view equals the same
    /// computation on a pool rebuilt from the view's exported snapshot
    /// bytes — the view serves exactly the frozen epoch state, nothing
    /// staler and nothing fresher.
    #[test]
    fn view_quotes_match_frozen_snapshot_bytes(
        seed in 0u64..1000,
        pools in 1u32..6,
        volume in 20_000u64..120_000,
        amount in 1_000u128..500_000,
    ) {
        let mut sys = System::new(quoted_config(seed, pools, volume, 1.5));
        let report = sys.run();
        prop_assert!(report.quotes_served > 0);
        let view = sys.quote_view().expect("final view published");

        for &id in view.pool_ids() {
            let live = view.pool(id).expect("listed pool present");
            let frozen = Engine::from_state(live.export_state()).expect("snapshot restores");
            // restoring the exported bytes is lossless
            prop_assert_eq!(live.export_state(), frozen.export_state());

            for zero_for_one in [true, false] {
                for kind in [SwapKind::ExactInput(amount), SwapKind::ExactOutput(amount)] {
                    let via_view = view.quote_swap(id, zero_for_one, kind, None);
                    let via_bytes = frozen.quote_swap(zero_for_one, kind, None);
                    match (via_view, via_bytes) {
                        (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
                        (Err(a), Err(b)) => prop_assert_eq!(a, b.into()),
                        (a, b) => prop_assert!(false, "diverged: {a:?} vs {b:?}"),
                    }
                }
            }
        }
    }

    /// A quote is a promise: executing the identical swap on the sealed
    /// state produces the identical result, field for field.
    #[test]
    fn quote_equals_execution(
        seed in 0u64..1000,
        pools in 1u32..5,
        volume in 20_000u64..120_000,
        amount in 1_000u128..2_000_000,
        zero_for_one in any::<bool>(),
    ) {
        let mut sys = System::new(quoted_config(seed, pools, volume, 0.5));
        sys.run();
        let view = sys.quote_view().expect("final view published");

        for &id in view.pool_ids() {
            let sealed = view.pool(id).expect("listed pool present");
            let kind = SwapKind::ExactInput(amount);
            let quoted = view.quote_swap(id, zero_for_one, kind, None);
            let mut writable = Engine::clone(sealed);
            let executed = writable.swap(zero_for_one, kind, None);
            match (quoted, executed) {
                (Ok(q), Ok(e)) => prop_assert_eq!(q, e),
                (Err(q), Err(e)) => prop_assert_eq!(q, e.into()),
                (q, e) => prop_assert!(false, "diverged: {q:?} vs {e:?}"),
            }
        }
    }

    /// Enabling quote traffic must not move a single executed
    /// transaction: the quote stream draws from its own RNG, so the
    /// final pool states with quotes on are byte-identical to a run with
    /// quotes off.
    #[test]
    fn quote_traffic_never_perturbs_execution(
        seed in 0u64..1000,
        pools in 1u32..5,
        volume in 20_000u64..120_000,
    ) {
        let quiet = quoted_config(seed, pools, volume, 0.0);
        let noisy = quoted_config(seed, pools, volume, 3.0);
        let mut a = System::new(quiet);
        let mut b = System::new(noisy);
        let ra = a.run();
        let rb = b.run();
        prop_assert_eq!(ra.quotes_served, 0);
        prop_assert!(rb.quotes_served > 0);
        prop_assert_eq!(ra.submitted, rb.submitted);
        prop_assert_eq!(ra.accepted, rb.accepted);
        prop_assert_eq!(ra.rejected, rb.rejected);
        prop_assert_eq!(a.shards().export_states(), b.shards().export_states());
    }
}

/// After the run drains, the last published view covers the final sealed
/// state exactly — same pools, same bytes.
#[test]
fn final_view_matches_final_sealed_state() {
    let mut sys = System::new(quoted_config(11, 4, 60_000, 1.0));
    let report = sys.run();
    let view = sys.quote_view().expect("final view published");
    assert_eq!(view.pool_count(), 4);
    assert!(report.view_publications >= report.epochs);
    for shard in sys.shards().iter() {
        let sealed = view.pool(shard.pool_id()).expect("covered pool");
        assert_eq!(sealed.export_state(), shard.pool().export_state());
    }
}

fn user(i: u64) -> Address {
    Address::from_index(i)
}

fn swap_tx(u: Address, pool: u32, amount: u128) -> AmmTx {
    AmmTx::Swap(SwapTx {
        user: u,
        pool: PoolId(pool),
        zero_for_one: true,
        intent: SwapIntent::ExactInput {
            amount_in: amount,
            min_amount_out: 0,
        },
        sqrt_price_limit: None,
        deadline_round: 1_000_000,
    })
}

/// The core tentpole invariant, at shard level: a held view is immutable
/// while the next epoch executes (readers never observe a
/// partially-executed epoch), and the next publication re-clones exactly
/// the pools the epoch dirtied while reusing every clean pool's `Arc`.
#[test]
fn held_view_is_immutable_and_invalidation_is_exact() {
    const POOLS: u32 = 4;
    let mut shards = ShardMap::new((0..POOLS).map(PoolId));
    for p in 0..POOLS {
        shards.seed_liquidity(
            PoolId(p),
            user(900 + p as u64),
            -60_000,
            60_000,
            10u128.pow(13),
            10u128.pow(13),
        );
    }
    let snapshot: HashMap<Address, (u128, u128)> = (0..POOLS as u64)
        .map(|i| (user(i), (1_000_000_000u128, 1_000_000_000u128)))
        .collect();
    shards.begin_epoch(snapshot, |u| {
        (0..POOLS as u64)
            .position(|i| user(i) == *u)
            .map(|i| PoolId(i as u32))
    });

    // Seal epoch 0 and publish. Seeding dirtied every pool, so every
    // per-pool view is a fresh clone.
    let (sealed, stats) = shards.publish_view(0);
    assert_eq!(
        (stats.reused, stats.recloned),
        (0, POOLS as usize),
        "first publication clones everything"
    );
    let frozen: Vec<_> = sealed
        .pool_ids()
        .iter()
        .map(|&id| sealed.pool(id).unwrap().export_state())
        .collect();

    // Epoch 1 mutates pool 0 only, while the epoch-0 view is held.
    let tx = swap_tx(user(0), 0, 250_000);
    let fx = shards.execute_batch(&[(&tx, 200)], 0, ExecMode);
    assert!(
        matches!(fx[0].effect, ammboost_sidechain::TxEffect::Swap { .. }),
        "swap must land: {:?}",
        fx[0].effect
    );

    // The held view still serves epoch-0 bytes for every pool — the
    // in-flight epoch is invisible to readers.
    for (i, &id) in sealed.pool_ids().iter().enumerate() {
        assert_eq!(sealed.pool(id).unwrap().export_state(), frozen[i]);
    }
    assert_ne!(
        shards.get(PoolId(0)).unwrap().pool().export_state(),
        frozen[0],
        "the live shard really did move"
    );

    // Sealing epoch 1 re-clones exactly the dirtied pool; the other
    // three per-pool views are the same allocation as before.
    let (next, stats) = shards.publish_view(1);
    assert_eq!((stats.reused, stats.recloned), (POOLS as usize - 1, 1));
    assert_eq!(
        next.pool(PoolId(0)).unwrap().export_state(),
        shards.get(PoolId(0)).unwrap().pool().export_state()
    );
    for p in 1..POOLS {
        assert!(
            std::sync::Arc::ptr_eq(
                sealed.pool(PoolId(p)).unwrap(),
                next.pool(PoolId(p)).unwrap()
            ),
            "clean pool {p} must reuse the cached per-pool view"
        );
    }
}
