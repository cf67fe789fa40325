//! Quote-path properties: every answer served from a sealed epoch view
//! must be bit-identical to the same computation on the frozen epoch
//! snapshot bytes; quotes must equal subsequent execution; a held view
//! must stay immutable while the next epoch executes (no reader ever
//! observes a partially-executed epoch); and quote traffic must never
//! perturb the executed transaction stream.

use ammboost_amm::engines::Engine;
use ammboost_amm::pool::{SwapKind, SwapResult};
use ammboost_amm::tx::{AmmTx, SwapIntent, SwapTx};
use ammboost_amm::types::PoolId;
use ammboost_core::config::SystemConfig;
use ammboost_core::processor::{EpochProcessor, ExecMode};
use ammboost_core::system::System;
use ammboost_core::view::{QuoteError, QuoteView};
use ammboost_core::Node;
use ammboost_crypto::Address;
use ammboost_sim::DetRng;
use ammboost_state::Snapshot;
use ammboost_workload::{QuoteStyle, RouteStyle, TrafficSkew};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

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
        prop_assert_eq!(a.processor().export_state(), b.processor().export_state());
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
    for id in sys.processor().pool_ids() {
        let sealed = view.pool(id).expect("covered pool");
        let live = sys.processor().pool(id).expect("live pool");
        assert_eq!(sealed.export_state(), live.export_state());
    }
}

/// One answered quote: the request and the answer a reader got.
type Answered = (PoolId, bool, u128, Result<SwapResult, QuoteError>);

/// Reader threads per hammer round.
const READERS: usize = 4;

/// Quotes `view` from [`READERS`] threads, each on its own seeded stream,
/// until `stop` is set or every reader has answered `cap`. Each reader
/// waits on `running` after its first answer, so a writer that waits
/// there too starts only once every reader is mid-stream: a three-epoch
/// run can end before a thread has even started.
fn hammer(
    view: &Arc<QuoteView>,
    seed: u64,
    cap: usize,
    stop: &AtomicBool,
    running: &Barrier,
) -> Vec<Answered> {
    std::thread::scope(|s| {
        let readers: Vec<_> = (0..READERS as u64)
            .map(|t| {
                let view = Arc::clone(view);
                s.spawn(move || {
                    let mut rng = DetRng::new(seed ^ (t + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                    let ids = view.pool_ids().to_vec();
                    let mut out = Vec::new();
                    while !stop.load(Ordering::Relaxed) && out.len() < cap {
                        let pool = ids[rng.range_u64(0, ids.len() as u64) as usize];
                        let dir = rng.unit() < 0.5;
                        let amount = rng.range_u128(1_000, 2_000_000);
                        let res = view.quote_swap(pool, dir, SwapKind::ExactInput(amount), None);
                        out.push((pool, dir, amount, res));
                        if out.len() == 1 {
                            running.wait();
                        }
                    }
                    out
                })
            })
            .collect();
        readers
            .into_iter()
            .flat_map(|r| r.join().expect("reader thread panicked"))
            .collect()
    })
}

/// Re-quotes every answer on the `reference` pool: the recorded answer
/// must come back bit for bit.
fn reverify(answers: &[Answered], reference: impl Fn(PoolId) -> Engine) {
    assert!(!answers.is_empty(), "the readers answered nothing");
    let mut pools = std::collections::HashMap::new();
    for (pool, dir, amount, recorded) in answers {
        let engine = pools.entry(*pool).or_insert_with(|| reference(*pool));
        let again = engine
            .quote_swap(*dir, SwapKind::ExactInput(*amount), None)
            .map_err(QuoteError::from);
        assert_eq!(
            recorded, &again,
            "{pool:?} zero_for_one {dir} amount {amount}"
        );
    }
}

/// Readers hammer the genesis view from four threads while `System::run`
/// executes every epoch on the live pools, routes and in-run quotes
/// included: every answer must equal the same quote on the genesis
/// bytes, so no reader ever saw a write. The final view, hammered after
/// the run, must answer as a node restored from the final checkpoint's
/// wire bytes does.
#[test]
fn concurrent_readers_see_only_sealed_epochs() {
    const POOLS: u32 = 8;
    let mut cfg = quoted_config(7, POOLS, 50_000, 1.0);
    cfg.route_style = RouteStyle::routed(0.35, 4);
    let mut sys = System::new(cfg);
    let genesis = sys.quote_view().expect("genesis view published");
    let frozen: Vec<_> = (genesis.pool_ids().iter())
        .map(|&id| (id, genesis.pool(id).expect("covered").export_state()))
        .collect();

    let stop = AtomicBool::new(false);
    let running = Barrier::new(READERS + 1);
    let (report, answered) = std::thread::scope(|s| {
        // the cap only bounds readers that outrun the run
        let readers = s.spawn(|| hammer(&genesis, 7, 20_000, &stop, &running));
        running.wait();
        let report = sys.run();
        stop.store(true, Ordering::Relaxed);
        (report, readers.join().expect("hammer scope panicked"))
    });
    assert!(report.quotes_served > 0, "in-run quote serving was idle");
    assert!(report.routes_accepted > 0, "no route executed");
    reverify(&answered, |id| {
        let (_, state) = frozen.iter().find(|(fid, _)| *fid == id).expect("covered");
        Engine::from_state(state.clone()).expect("frozen bytes restore")
    });

    let stats = sys.checkpoint(report.epochs + 1);
    let wire = sys.last_snapshot().expect("checkpoint taken").encode();
    let node = Node::restore(&Snapshot::decode(&wire).expect("root verifies")).expect("restores");
    assert_eq!(stats.pools_total, POOLS as usize);
    let last = sys.quote_view().expect("final view published");
    assert_eq!(last.pool_count(), POOLS as usize);
    // nothing executes now: each reader answers 500 and stops
    let idle = AtomicBool::new(false);
    let answered = hammer(&last, 7 ^ 0x0F1E_2D3C, 500, &idle, &Barrier::new(READERS));
    reverify(&answered, |id| {
        Engine::clone(node.processor().pool(id).expect("restored pool"))
    });
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

/// The core tentpole invariant, at processor level: a held view is immutable
/// while the next epoch executes (readers never observe a
/// partially-executed epoch), and the next publication re-clones exactly
/// the pools the epoch dirtied while reusing every clean pool's `Arc`.
#[test]
fn held_view_is_immutable_and_invalidation_is_exact() {
    const POOLS: u32 = 4;
    let mut processor = EpochProcessor::new((0..POOLS).map(PoolId));
    for p in 0..POOLS {
        processor.seed_liquidity(
            PoolId(p),
            user(900 + p as u64),
            -60_000,
            60_000,
            10u128.pow(13),
            10u128.pow(13),
        );
    }
    processor.snapshot_bank(
        (0..POOLS as u64).map(|i| (user(i), (1_000_000_000u128, 1_000_000_000u128))),
    );

    // Seal epoch 0 and publish. Seeding dirtied every pool, so every
    // per-pool view is a fresh clone.
    let (sealed, stats) = processor.publish_view(0);
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
    let fx = processor.execute_batch(&[(&tx, 200)], 0, ExecMode);
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
        processor.pool(PoolId(0)).unwrap().export_state(),
        frozen[0],
        "the live pool really did move"
    );

    // Sealing epoch 1 re-clones exactly the dirtied pool; the other
    // three per-pool views are the same allocation as before.
    let (next, stats) = processor.publish_view(1);
    assert_eq!((stats.reused, stats.recloned), (POOLS as usize - 1, 1));
    assert_eq!(
        next.pool(PoolId(0)).unwrap().export_state(),
        processor.pool(PoolId(0)).unwrap().export_state()
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
