//! Multi-pool sharding acceptance tests.
//!
//! `PoolId` is a real routing key. These tests prove the two properties
//! the design rests on:
//!
//! 1. **Sharded ≡ independent** — an N-pool sharded node is
//!    byte-identical (pool section bytes, processor state, payouts, pool
//!    updates, per-pool effects) to N independent single-pool nodes fed
//!    the same per-pool traffic.
//! 2. **One checkpoint covers all shards** — a `pool_count ≥ 8` system
//!    runs end-to-end (traffic → epochs → summaries → checkpoint → prune
//!    → restore) under one state root, and a restored node fast-syncs to
//!    byte-identical state.

mod common;

use ammboost::amm::types::PoolId;
use ammboost::core::checkpoint::{catch_up, checkpoint_node, restore_node};
use ammboost::core::config::{SnapshotPolicy, SystemConfig};
use ammboost::core::processor::EpochProcessor;
use ammboost::core::shard::{ExecMode, ShardMap};
use ammboost::core::system::System;
use ammboost::crypto::{Address, H256};
use ammboost::sidechain::block::{ExecutedTx, MetaBlock, SummaryBlock};
use ammboost::sidechain::ledger::Ledger;
use ammboost::sim::time::SimDuration;
use ammboost::state::snapshot::SectionKind;
use ammboost::state::{Checkpointer, Snapshot};
use ammboost::workload::{
    GeneratedTx, GeneratorConfig, LiquidityStyle, RouteStyle, TrafficGenerator, TrafficMix,
    TrafficSkew,
};
use common::{root_of, Peer};
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

fn seeded_shards(pools: u32) -> ShardMap {
    let mut shards = ShardMap::new((0..pools).map(PoolId));
    for p in 0..pools {
        shards.seed_liquidity(
            PoolId(p),
            Address::from_pubkey_bytes(b"multi-pool-genesis-lp"),
            -120_000,
            120_000,
            SEED_LIQUIDITY,
            SEED_LIQUIDITY,
        );
    }
    shards
}

fn deposits_for(gen: &TrafficGenerator) -> HashMap<Address, (u128, u128)> {
    gen.users()
        .into_iter()
        .map(|u| (u, (DEPOSIT, DEPOSIT)))
        .collect()
}

/// Pre-generates `epochs` of traffic so the sharded node and the
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
    let gen = generator(POOLS, USERS, 1717); // only for routing/deposits

    // --- the sharded node: one ledger, one shard map, one checkpoint ---
    let mut shards = seeded_shards(POOLS);
    shards.begin_epoch(deposits_for(&gen), |u| gen.pool_for(u));
    let mut ledger = Ledger::new(H256::hash(b"sharded-genesis"));
    let mut epoch_summaries: Vec<SummaryBlock> = Vec::new();
    for epoch in 1..=EPOCHS {
        if epoch > 1 {
            shards.carry_over_epoch();
        }
        for round in 0..ROUNDS_PER_EPOCH {
            let global = (epoch - 1) * ROUNDS_PER_EPOCH + round;
            let batch_src = &traffic[global as usize];
            let batch: Vec<(&ammboost::amm::tx::AmmTx, usize)> =
                batch_src.iter().map(|g| (&g.tx, g.wire_size)).collect();
            let executed = shards.execute_batch(&batch, global, ExecMode);
            let block = MetaBlock::new(epoch, round, ledger.tip(), executed);
            ledger.append_meta(block).unwrap();
        }
        let (payouts, positions, pools) = shards.end_epoch();
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
    let sharded_out = checkpoint_node(&mut Checkpointer::new(), EPOCHS, &mut shards, &ledger);
    let (sharded_snapshot, sharded_stats) = (sharded_out.snapshot, sharded_out.stats);
    assert_eq!(sharded_stats.pools_total, POOLS as usize);

    // --- N independent single-pool nodes fed the same per-pool traffic ---
    for p in 0..POOLS {
        let pool = PoolId(p);
        let mut solo = EpochProcessor::new(pool);
        solo.seed_liquidity(
            Address::from_pubkey_bytes(b"multi-pool-genesis-lp"),
            -120_000,
            120_000,
            SEED_LIQUIDITY,
            SEED_LIQUIDITY,
        );
        // the pool's own user subset gets the same deposits
        let deposits: HashMap<Address, (u128, u128)> = deposits_for(&gen)
            .into_iter()
            .filter(|(u, _)| gen.pool_for(u) == Some(pool))
            .collect();
        solo.begin_epoch(deposits);
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

        // 1. byte-identical processor state (pool, deposits, bookkeeping)
        let shard_state = shards.get(pool).unwrap().export_state();
        assert_eq!(shard_state, solo.export_state(), "{pool} state diverges");

        // 2. byte-identical pool section in the all-shards snapshot
        let solo_map_snapshot = {
            let mut solo_map = ShardMap::from_processors(vec![solo.clone()]);
            let solo_ledger = Ledger::new(H256::hash(b"solo-genesis"));
            checkpoint_node(
                &mut Checkpointer::new(),
                EPOCHS,
                &mut solo_map,
                &solo_ledger,
            )
            .snapshot
        };
        assert_eq!(
            sharded_snapshot
                .section(SectionKind::Pool(p))
                .unwrap()
                .bytes,
            solo_map_snapshot
                .section(SectionKind::Pool(p))
                .unwrap()
                .bytes,
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
        for (epoch_idx, (solo_payouts, solo_positions, solo_update)) in
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
                sharded.pools[p as usize], *solo_update,
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

#[test]
fn eight_pool_system_runs_end_to_end_under_one_state_root() {
    // traffic → epochs → summaries → checkpoint → prune → restore, with
    // pool_count ≥ 8 and Zipf-skewed traffic, one root covering all shards
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
    // every shard saw traffic across the run (Zipf head is ~37%, tail >1%)
    let summaries = sys.ledger().summaries();
    assert!(!summaries.is_empty());
    for summary in summaries {
        assert_eq!(summary.pools.len(), 8, "summary must cover all shards");
        assert!(
            summary.pools.windows(2).all(|w| w[0].pool < w[1].pool),
            "per-pool sections must be sorted"
        );
    }

    // the final checkpoint restores into a working 8-shard node
    let stats = sys.checkpoint(report.epochs + 1);
    assert_eq!(stats.pools_total, 8);
    let snapshot = sys.last_snapshot().unwrap();
    let node = restore_node(&Snapshot::decode(&snapshot.encode()).unwrap()).unwrap();
    assert_eq!(node.shards.len(), 8);
    assert_eq!(node.shards.export_states(), sys.shards().export_states());
    assert_eq!(node.ledger.export_state(), sys.ledger().retained_state());

    // the state commitment is reproducible bit-for-bit
    let again = System::new(cfg).run();
    assert_eq!(again.last_state_root, Some(root));
    assert_eq!(again.accepted, report.accepted);
}

#[test]
fn multi_pool_fast_sync_restart() {
    // a workload-driven 8-shard node checkpoints mid-run; a late joiner
    // restores from the wire snapshot and catches up byte-identically
    const POOLS: u32 = 8;
    const USERS: u64 = 24;
    const EPOCHS: u64 = 5;
    let gen = generator(POOLS, USERS, 4242);
    let mut full = Peer::new(
        seeded_shards(POOLS),
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
    let mut node = restore_node(&snapshot).expect("multi-pool snapshot restores");
    assert_eq!(node.epoch, 2);
    assert_eq!(node.shards.len(), POOLS as usize);
    let applied =
        catch_up(&mut node, full.node.ledger(), ROUNDS_PER_EPOCH).expect("catch-up verifies");
    assert_eq!(applied, EPOCHS - 2);
    assert_eq!(
        node.shards.export_states(),
        full.node.shards().export_states()
    );
    assert_eq!(
        node.ledger.retained_state(),
        full.node.ledger().retained_state()
    );
    assert_eq!(
        root_of(&mut node, EPOCHS),
        full.node.checkpoint(EPOCHS).root,
        "state roots diverge after catch-up"
    );
}
