//! Multi-pool acceptance tests.
//!
//! `PoolId` is a real routing key. These tests prove the two properties
//! the design rests on:
//!
//! 1. **N pools ≡ N independent pools** — an N-pool node is
//!    byte-identical (per-pool engine state and bookkeeping, pool section
//!    bytes, payouts, pool updates, per-pool effects) to N independent
//!    single-pool nodes fed the same per-pool traffic.
//! 2. **One checkpoint covers all pools** — a `pool_count ≥ 8` system
//!    runs end-to-end (traffic → epochs → summaries → checkpoint → prune
//!    → restore) under one state root, and a restored node fast-syncs to
//!    byte-identical state.

mod common;

use ammboost::amm::tx::{AmmTx, RouteHop, RouteTx, SwapIntent, SwapTx};
use ammboost::amm::types::PoolId;
use ammboost::core::checkpoint::{catch_up, checkpoint_node};
use ammboost::core::config::{SnapshotPolicy, SystemConfig};
use ammboost::core::processor::{EpochProcessor, ExecMode};
use ammboost::core::system::System;
use ammboost::core::Node;
use ammboost::crypto::{Address, H256};
use ammboost::sidechain::block::{ExecutedTx, MetaBlock, SummaryBlock};
use ammboost::sidechain::ledger::Ledger;
use ammboost::sim::time::SimDuration;
use ammboost::state::snapshot::SectionKind;
use ammboost::state::{prune_to_snapshot, Checkpointer, RetentionPolicy, Snapshot};
use ammboost::workload::{
    GeneratedTx, GeneratorConfig, LiquidityStyle, RouteStyle, TrafficGenerator, TrafficMix,
    TrafficSkew,
};
use common::{assert_same_state, Peer};
use std::collections::HashMap;

const ROUNDS_PER_EPOCH: u64 = 4;
const SEED_LIQUIDITY: u128 = 4_000_000_000_000_000;
const DEPOSIT: u128 = 2_000_000_000_000;

fn generator(pools: u32, users: u64, seed: u64) -> TrafficGenerator {
    TrafficGenerator::new(GeneratorConfig {
        daily_volume: 400_000,
        mix: TrafficMix::uniswap_2023(),
        users,
        round_duration: SimDuration::from_secs(7),
        pools: (0..pools).map(PoolId).collect(),
        skew: TrafficSkew::Zipf { exponent: 1.0 },
        route_style: RouteStyle::default(),
        deadline_slack_rounds: 1_000_000,
        max_positions_per_user: 1,
        liquidity_style: LiquidityStyle::default(),
        quote_style: Default::default(),
        engine_mix: Default::default(),
        seed,
    })
}

fn seeded_processor(pools: u32) -> EpochProcessor {
    let mut processor = EpochProcessor::new((0..pools).map(PoolId));
    for p in 0..pools {
        processor.seed_liquidity(
            PoolId(p),
            Address::from_pubkey_bytes(b"multi-pool-genesis-lp"),
            -120_000,
            120_000,
            SEED_LIQUIDITY,
            SEED_LIQUIDITY,
        );
    }
    processor
}

fn deposits_for(gen: &TrafficGenerator) -> HashMap<Address, (u128, u128)> {
    gen.users()
        .into_iter()
        .map(|u| (u, (DEPOSIT, DEPOSIT)))
        .collect()
}

/// Pre-generates `epochs` of traffic so the N-pool node and the
/// independent per-pool nodes consume the *same* per-pool streams.
fn recorded_traffic(pools: u32, users: u64, seed: u64, epochs: u64) -> Vec<Vec<GeneratedTx>> {
    let mut gen = generator(pools, users, seed);
    let mut rounds = Vec::new();
    for round in 0..epochs * ROUNDS_PER_EPOCH {
        rounds.push(gen.next_round(round));
    }
    rounds
}

#[test]
fn sharded_system_is_byte_identical_to_independent_single_pool_systems() {
    const POOLS: u32 = 4;
    const USERS: u64 = 16;
    const EPOCHS: u64 = 3;
    let traffic = recorded_traffic(POOLS, USERS, 1717, EPOCHS);
    let gen = generator(POOLS, USERS, 1717); // only for deposits and each pool's users

    // --- the N-pool node: one ledger, one processor, one checkpoint ---
    let mut processor = seeded_processor(POOLS);
    processor.snapshot_bank(deposits_for(&gen));
    let mut ledger = Ledger::new(H256::hash(b"sharded-genesis"));
    let mut epoch_summaries: Vec<SummaryBlock> = Vec::new();
    for epoch in 1..=EPOCHS {
        if epoch > 1 {
            processor.carry_over_epoch();
        }
        for round in 0..ROUNDS_PER_EPOCH {
            let global = (epoch - 1) * ROUNDS_PER_EPOCH + round;
            let batch_src = &traffic[global as usize];
            let batch: Vec<(&AmmTx, usize)> =
                batch_src.iter().map(|g| (&g.tx, g.wire_size)).collect();
            let executed = processor.execute_batch(&batch, global, ExecMode);
            let block = MetaBlock::new(epoch, round, ledger.tip(), executed);
            ledger.append_meta(block).unwrap();
        }
        let (payouts, positions, pools) = processor.end_epoch();
        let summary = SummaryBlock {
            epoch,
            parent: ledger.tip(),
            meta_refs: ledger.meta_blocks(epoch).iter().map(|m| m.id()).collect(),
            payouts,
            positions,
            pools,
        };
        ledger.append_summary(summary.clone()).unwrap();
        epoch_summaries.push(summary);
    }
    let sharded_out = checkpoint_node(&mut Checkpointer::new(), EPOCHS, &mut processor, &ledger);
    let (sharded_snapshot, sharded_stats) = (sharded_out.snapshot, sharded_out.stats);
    assert_eq!(sharded_stats.pools_total, POOLS as usize);

    // --- N independent single-pool nodes fed the same per-pool traffic ---
    for p in 0..POOLS {
        let pool = PoolId(p);
        let mut solo = EpochProcessor::new([pool]);
        solo.seed_liquidity(
            pool,
            Address::from_pubkey_bytes(b"multi-pool-genesis-lp"),
            -120_000,
            120_000,
            SEED_LIQUIDITY,
            SEED_LIQUIDITY,
        );
        // the users that trade on the pool get the same deposits
        let deposits: HashMap<Address, (u128, u128)> = deposits_for(&gen)
            .into_iter()
            .filter(|(u, _)| gen.pool_for(u) == Some(pool))
            .collect();
        solo.snapshot_bank(deposits);
        let mut solo_effects: Vec<ExecutedTx> = Vec::new();
        let mut solo_summaries = Vec::new();
        for epoch in 1..=EPOCHS {
            if epoch > 1 {
                solo.carry_over_epoch();
            }
            for round in 0..ROUNDS_PER_EPOCH {
                let global = (epoch - 1) * ROUNDS_PER_EPOCH + round;
                for gtx in &traffic[global as usize] {
                    if gtx.tx.pool() == pool {
                        solo_effects.push(solo.execute(&gtx.tx, gtx.wire_size, global));
                    }
                }
            }
            solo_summaries.push(solo.end_epoch());
        }

        // 1. byte-identical pool state (engine and position bookkeeping),
        // and the same deposits for the pool's users
        let solo_state = solo.export_state();
        assert_eq!(
            processor.export_state().pools[p as usize],
            solo_state.pools[0],
            "{pool} state diverges"
        );
        let pool_users: Vec<_> = processor
            .deposits()
            .to_sorted_entries()
            .into_iter()
            .filter(|(u, _)| gen.pool_for(u) == Some(pool))
            .collect();
        assert_eq!(pool_users, solo_state.deposits, "{pool} deposits diverge");

        // 2. byte-identical pool section in the all-pools snapshot
        let solo_snapshot = {
            let solo_ledger = Ledger::new(H256::hash(b"solo-genesis"));
            checkpoint_node(&mut Checkpointer::new(), EPOCHS, &mut solo, &solo_ledger).snapshot
        };
        assert_eq!(
            sharded_snapshot
                .section(SectionKind::Pool(p))
                .unwrap()
                .bytes,
            solo_snapshot.section(SectionKind::Pool(p)).unwrap().bytes,
            "{pool} snapshot section diverges"
        );

        // 3. identical per-pool effects, in submission order
        let sharded_effects: Vec<&ExecutedTx> = ledger
            .meta_epochs()
            .iter()
            .flat_map(|e| ledger.meta_blocks(*e))
            .flat_map(|b| &b.txs)
            .filter(|t| t.tx.pool() == pool)
            .collect();
        assert_eq!(sharded_effects.len(), solo_effects.len());
        for (a, b) in sharded_effects.iter().zip(&solo_effects) {
            assert_eq!(a.effect, b.effect, "{pool} effect diverges");
        }

        // 4. per-epoch payouts & pool updates match the merged summaries
        for (epoch_idx, (solo_payouts, solo_positions, solo_updates)) in
            solo_summaries.iter().enumerate()
        {
            let sharded = &epoch_summaries[epoch_idx];
            let sharded_payouts: Vec<_> = sharded
                .payouts
                .iter()
                .filter(|pay| gen.pool_for(&pay.user) == Some(pool))
                .copied()
                .collect();
            assert_eq!(&sharded_payouts, solo_payouts, "{pool} payouts diverge");
            assert_eq!(
                [sharded.pools[p as usize]],
                solo_updates[..],
                "{pool} update diverges"
            );
            for entry in solo_positions {
                assert!(
                    sharded.positions.contains(entry),
                    "{pool} position entry missing from merged summary"
                );
            }
        }
    }
}

/// A user's one deposit covers a trade on any pool: a plain swap on a
/// pool other than the one the traffic generator sends the user to, and a
/// route that enters there, both execute against the same book, and every
/// token the deposit lost went into a pool.
#[test]
fn a_deposit_covers_trades_off_the_generators_pool() {
    const POOLS: u32 = 4;
    let gen = generator(POOLS, 16, 1717);
    let mut processor = seeded_processor(POOLS);
    processor.snapshot_bank(deposits_for(&gen));
    let user = gen.users()[0];
    let home = gen.pool_for(&user).expect("a generated user").0;
    let (away, next) = ((home + 1) % POOLS, (home + 2) % POOLS);
    let balances = |p: &EpochProcessor| -> Vec<(u128, u128)> {
        (0..POOLS)
            .map(|i| {
                let b = p.pool(PoolId(i)).unwrap().balances();
                (b.amount0, b.amount1)
            })
            .collect()
    };
    let before = balances(&processor);

    let swap = AmmTx::Swap(SwapTx {
        user,
        pool: PoolId(away),
        zero_for_one: true,
        intent: SwapIntent::ExactInput {
            amount_in: 1_000_000,
            min_amount_out: 0,
        },
        sqrt_price_limit: None,
        deadline_round: 1_000,
    });
    let route = AmmTx::Route(RouteTx {
        user,
        hops: vec![
            RouteHop {
                pool: PoolId(away),
                zero_for_one: false,
            },
            RouteHop {
                pool: PoolId(next),
                zero_for_one: true,
            },
        ],
        amount_in: 2_000_000,
        min_amount_out: 0,
        deadline_round: 1_000,
    });
    let out = processor.execute_batch(&[(&swap, 200), (&route, 200)], 0, ExecMode);
    assert!(out.iter().all(|tx| tx.accepted()), "{out:?}");

    // only the pools the two trades named moved
    let after = balances(&processor);
    for pool in 0..POOLS {
        let traded = pool == away || pool == next;
        let moved = after[pool as usize] != before[pool as usize];
        assert_eq!(moved, traded, "pool {pool}");
    }
    // deposit ↔ pool conservation over both trades
    let (d0, d1) = processor.deposits().get(&user);
    let pool_delta = |token: fn(&(u128, u128)) -> u128| -> i128 {
        after
            .iter()
            .zip(&before)
            .map(|(a, b)| token(a) as i128 - token(b) as i128)
            .sum()
    };
    assert_eq!(d0 as i128 - DEPOSIT as i128, -pool_delta(|b| b.0), "token0");
    assert_eq!(d1 as i128 - DEPOSIT as i128, -pool_delta(|b| b.1), "token1");
}

#[test]
fn eight_pool_system_runs_end_to_end_under_one_state_root() {
    // traffic → epochs → summaries → checkpoint → prune → restore, with
    // pool_count ≥ 8 and Zipf-skewed traffic, one root covering all pools
    let mut cfg = SystemConfig::small_test();
    cfg.pools = 8;
    cfg.users = 32;
    cfg.traffic_skew = TrafficSkew::Zipf { exponent: 1.0 };
    cfg.daily_volume = 200_000;
    cfg.snapshot = SnapshotPolicy::every_epoch();
    let mut sys = System::new(cfg.clone());
    let report = sys.run();

    assert!(report.accepted > 0, "{report:?}");
    assert_eq!(report.leftover_queue, 0);
    assert!(report.syncs_confirmed >= 3);
    assert_eq!(report.snapshots_taken, cfg.epochs);
    assert!(report.sidechain_pruned_bytes > 0, "pruning must reclaim");
    let root = report.last_state_root.expect("checkpoints taken");

    // every pool was created on the bank and carries synced reserves
    for p in 0..8u32 {
        let reserves = sys.bank().pool_reserves(&PoolId(p));
        assert!(reserves.is_some(), "pool {p} missing from TokenBank");
    }
    // every pool saw traffic across the run (Zipf head is ~37%, tail >1%)
    let summaries = sys.ledger().summaries();
    assert!(!summaries.is_empty());
    for summary in summaries {
        assert_eq!(summary.pools.len(), 8, "summary must cover all pools");
        assert!(
            summary.pools.windows(2).all(|w| w[0].pool < w[1].pool),
            "per-pool sections must be sorted"
        );
    }

    // the final checkpoint restores into a working 8-pool node
    let stats = sys.checkpoint(report.epochs + 1);
    assert_eq!(stats.pools_total, 8);
    let snapshot = sys.last_snapshot().unwrap();
    let node = Node::restore(&Snapshot::decode(&snapshot.encode()).unwrap()).unwrap();
    assert_eq!(node.processor().pool_ids().len(), 8);
    assert_eq!(
        node.processor().export_state(),
        sys.processor().export_state()
    );
    assert_eq!(node.ledger().export_state(), sys.ledger().retained_state());

    // the state commitment is reproducible bit-for-bit
    let again = System::new(cfg).run();
    assert_eq!(again.last_state_root, Some(root));
    assert_eq!(again.accepted, report.accepted);
}

/// Checkpoint → restore → prune → re-checkpoint over whole `System`
/// runs that checkpoint every epoch but keep every raw block, for one
/// pool and for eight under Zipf, uniform and routed traffic. The node
/// restored from the final checkpoint's wire bytes equals the live one;
/// pruning the live ledger to that checkpoint reclaims exactly the
/// bytes it reports and leaves the restored ledger; and the restored
/// node checkpoints back to the same root.
#[test]
fn checkpoint_restore_prune_cycle_over_every_traffic_shape() {
    let zipf = TrafficSkew::Zipf { exponent: 1.0 };
    let shapes = [
        ("1 pool", 1, zipf, RouteStyle::default()),
        ("8 Zipf pools", 8, zipf, RouteStyle::default()),
        (
            "8 uniform pools",
            8,
            TrafficSkew::Uniform,
            RouteStyle::default(),
        ),
        ("8 pools, routed", 8, zipf, RouteStyle::routed(0.35, 4)),
    ];
    for (name, pools, skew, routes) in shapes {
        let mut cfg = SystemConfig::small_test();
        cfg.pools = pools;
        cfg.users = cfg.users.max(2 * pools as u64);
        cfg.traffic_skew = skew;
        cfg.route_style = routes;
        cfg.disable_pruning = true;
        cfg.snapshot = SnapshotPolicy {
            interval_epochs: 1,
            keep_epochs: u64::MAX,
        };
        let mut sys = System::new(cfg);
        let report = sys.run();
        assert!(report.accepted > 0, "{name}: no traffic");
        assert!(report.snapshots_taken >= 3, "{name}: no checkpoints");
        if routes != RouteStyle::default() {
            assert!(report.routes_accepted > 0, "{name}: no routes");
            assert!(report.route_legs_executed >= 2 * report.routes_accepted);
        }

        let epoch = report.epochs + 1;
        let stats = sys.checkpoint(epoch);
        assert_eq!(stats.pools_total, pools as usize, "{name}");
        let wire = sys.last_snapshot().expect("checkpoint taken").encode();
        let mut node = Node::restore(&Snapshot::decode(&wire).expect("root verifies"))
            .expect("snapshot restores");
        assert_eq!(
            node.processor().export_state(),
            sys.processor().export_state(),
            "{name}: restored processor"
        );
        assert_eq!(
            node.ledger().export_state(),
            sys.ledger().retained_state(),
            "{name}: restored ledger"
        );

        let mut live = sys.ledger().clone();
        let before = live.size_bytes();
        let pruned = prune_to_snapshot(&mut live, epoch, RetentionPolicy::default());
        assert!(pruned.epochs_pruned > 0, "{name}: nothing to prune");
        assert!(pruned.reclaimed_bytes > 0, "{name}: nothing reclaimed");
        assert_eq!(live.size_bytes(), before - pruned.reclaimed_bytes, "{name}");
        assert_eq!(
            live.export_state(),
            node.ledger().export_state(),
            "{name}: the pruned live ledger is not the restored one"
        );

        assert_eq!(
            node.checkpoint(epoch).root,
            stats.root,
            "{name}: root moved"
        );
        let again = Node::restore(node.last_snapshot().expect("checkpoint taken"))
            .expect("re-checkpoint restores");
        assert_eq!(
            again.processor().export_state(),
            node.processor().export_state(),
            "{name}: re-checkpoint restore"
        );
    }
}

#[test]
fn multi_pool_fast_sync_restart() {
    // a workload-driven 8-pool node checkpoints mid-run; a late joiner
    // restores from the wire snapshot and catches up byte-identically
    const POOLS: u32 = 8;
    const USERS: u64 = 24;
    const EPOCHS: u64 = 5;
    let gen = generator(POOLS, USERS, 4242);
    let mut full = Peer::new(
        seeded_processor(POOLS),
        gen,
        b"restart-genesis",
        ROUNDS_PER_EPOCH,
    );
    let mut wire = None;
    for epoch in 1..=EPOCHS {
        full.run_epoch(epoch);
        if epoch == 2 {
            wire = Some(full.snapshot_at(epoch).encode());
            let stats = full.node.last_checkpoint().unwrap();
            assert_eq!(stats.pools_total, POOLS as usize);
        }
    }

    let snapshot = Snapshot::decode(&wire.unwrap()).expect("root verifies");
    let mut node = Node::restore(&snapshot).expect("multi-pool snapshot restores");
    assert_eq!(node.quote_view().epoch(), 2);
    assert_eq!(node.processor().pool_ids().len(), POOLS as usize);
    let applied =
        catch_up(&mut node, full.node.ledger(), ROUNDS_PER_EPOCH).expect("catch-up verifies");
    assert_eq!(applied, EPOCHS - 2);
    assert_same_state(&mut node, &mut full.node, EPOCHS);
}
