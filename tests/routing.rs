//! Cross-pool routing acceptance tests.
//!
//! Multi-hop routes execute as hop waves inside a two-phase epoch and
//! settle through the netting barrier. These tests prove the properties
//! the design rests on:
//!
//! 1. **Pinned settlement** — a routed epoch's state root and `SyncInput`
//!    bytes are pinned, so a change that moves any leg shows.
//! 2. **Routed ≡ legs + netting ledger** — a routed epoch is
//!    byte-identical to the same legs applied to independent bare pools
//!    in wave order, with deposits reconciled through an explicit
//!    [`NettingLedger`].
//! 3. **Netting is conservative** — per-(user, token) net deltas sum to
//!    exactly the per-hop flow sums; no token is created or destroyed
//!    (proptest over random route mixes).
//! 4. **Hop order is enforced** — a route touching the same pool twice
//!    is rejected with the typed [`RouteError::DuplicatePool`].
//! 5. **Routes replay bit-identically** — a node restored mid-run from a
//!    checkpoint catches up through routed meta-blocks to the same state
//!    root.

use ammboost::amm::pool::Pool;
use ammboost::amm::tx::{AmmTx, RouteError, RouteHop, RouteTx};
use ammboost::amm::types::{PoolId, PositionId};
use ammboost::core::checkpoint::{catch_up, checkpoint_node, restore_node};
use ammboost::core::config::{SnapshotPolicy, SystemConfig};
use ammboost::core::shard::{ExecMode, ShardMap};
use ammboost::core::system::System;
use ammboost::crypto::dkg::{run_ceremony, DkgConfig};
use ammboost::crypto::{Address, H256};
use ammboost::mainchain::contracts::token_bank::SyncInput;
use ammboost::sidechain::block::{MetaBlock, SummaryBlock, TxEffect};
use ammboost::sidechain::ledger::Ledger;
use ammboost::sidechain::summary::NettingLedger;
use ammboost::sim::time::SimDuration;
use ammboost::state::{Checkpointer, Snapshot};
use ammboost::workload::{
    GeneratedTx, GeneratorConfig, LiquidityStyle, RouteStyle, TrafficGenerator, TrafficMix,
    TrafficSkew,
};
use proptest::prelude::*;
use std::collections::HashMap;

const ROUNDS_PER_EPOCH: u64 = 4;
const SEED_LIQUIDITY: u128 = 4_000_000_000_000_000;
const DEPOSIT: u128 = 2_000_000_000_000;

fn routed_generator(pools: u32, users: u64, seed: u64, share: f64) -> TrafficGenerator {
    TrafficGenerator::new(GeneratorConfig {
        daily_volume: 400_000,
        mix: TrafficMix::uniswap_2023(),
        users,
        round_duration: SimDuration::from_secs(7),
        pools: (0..pools).map(PoolId).collect(),
        skew: TrafficSkew::Zipf { exponent: 1.0 },
        route_style: RouteStyle::routed(share, 4),
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
            Address::from_pubkey_bytes(b"routing-genesis-lp"),
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

fn user(i: u64) -> Address {
    Address::from_index(i)
}

fn route(u: Address, path: &[u32], first_dir: bool, amount: u128) -> AmmTx {
    let mut dir = first_dir;
    AmmTx::Route(RouteTx {
        user: u,
        hops: path
            .iter()
            .map(|&p| {
                let hop = RouteHop {
                    pool: PoolId(p),
                    zero_for_one: dir,
                };
                dir = !dir;
                hop
            })
            .collect(),
        amount_in: amount,
        min_amount_out: 0,
        deadline_round: 1_000_000,
    })
}

/// Runs `epochs` of routed traffic through a shard map, mining each
/// round's batch into a meta-block and sealing summaries, exactly as the
/// system does. Returns the shard map, ledger and per-epoch summaries.
fn run_routed_node(
    pools: u32,
    users: u64,
    seed: u64,
    epochs: u64,
    checkpoint_at: Option<u64>,
) -> (ShardMap, Ledger, Vec<SummaryBlock>, Option<Vec<u8>>) {
    let mut gen = routed_generator(pools, users, seed, 0.4);
    let route_gen = routed_generator(pools, users, seed, 0.4);
    let mut shards = seeded_shards(pools);
    shards.begin_epoch(deposits_for(&route_gen), |u| route_gen.pool_for(u));
    let mut ledger = Ledger::new(H256::hash(b"routing-genesis"));
    let mut cp = Checkpointer::new();
    let mut wire = None;
    let mut summaries = Vec::new();
    for epoch in 1..=epochs {
        if epoch > 1 {
            shards.carry_over_epoch();
        }
        for round in 0..ROUNDS_PER_EPOCH {
            let global = (epoch - 1) * ROUNDS_PER_EPOCH + round;
            let round_txs: Vec<GeneratedTx> = gen.next_round(global);
            let batch: Vec<(&AmmTx, usize)> =
                round_txs.iter().map(|g| (&g.tx, g.wire_size)).collect();
            let executed = shards.execute_batch(&batch, global, ExecMode);
            for out in &executed {
                if let TxEffect::Burn {
                    position, deleted, ..
                } = &out.effect
                {
                    if *deleted {
                        gen.forget_position(*position);
                    }
                }
            }
            let block = MetaBlock::new(epoch, round, ledger.tip(), executed);
            ledger.append_meta(block).unwrap();
        }
        let (payouts, positions, pool_updates) = shards.end_epoch();
        let summary = SummaryBlock {
            epoch,
            parent: ledger.tip(),
            meta_refs: ledger.meta_blocks(epoch).iter().map(|m| m.id()).collect(),
            payouts,
            positions,
            pools: pool_updates,
        };
        ledger.append_summary(summary.clone()).unwrap();
        summaries.push(summary);
        if checkpoint_at == Some(epoch) {
            let snap = checkpoint_node(&mut cp, epoch, &mut shards, &ledger).snapshot;
            wire = Some(snap.encode());
        }
    }
    (shards, ledger, summaries, wire)
}

/// The state root and each epoch's `SyncInput` ABI payload of a routed
/// run are pinned (the payload by its hash). A snapshot-format bump
/// re-pins the root, as it rewrites `tests/fixtures/snapshot_v6_mixed.*`.
#[test]
fn routed_epoch_is_scheduling_free_down_to_sync_bytes() {
    const POOLS: u32 = 6;
    const USERS: u64 = 24;
    let (mut shards, ledger, summaries, _) = run_routed_node(POOLS, USERS, 2024, 2, None);

    // routes actually flowed
    let routed: usize = ledger
        .meta_epochs()
        .iter()
        .flat_map(|e| ledger.meta_blocks(*e))
        .flat_map(|b| &b.txs)
        .filter(|t| matches!(t.effect, TxEffect::Route { .. }))
        .count();
    assert!(routed > 10, "only {routed} routes executed");

    let root = checkpoint_node(&mut Checkpointer::new(), 2, &mut shards, &ledger)
        .stats
        .root;
    assert_eq!(
        root.to_hex(),
        "7a41905816b8c38eb311199a8f6b4d8e9599ebb42d8aa86bfb0643464162dcd8",
        "state root moved"
    );

    // the SyncInput ABI payload is built from the sealed summary
    let vk = run_ceremony(DkgConfig::for_faults(1), 7).group_public_key;
    let sync_hashes: Vec<String> = summaries
        .iter()
        .map(|summary| {
            let payload = SyncInput {
                epoch: summary.epoch,
                payouts: summary.payouts.clone(),
                positions: summary.positions.clone(),
                pools: summary.pools.clone(),
                next_vk: vk,
            }
            .abi_payload();
            H256::hash(&payload).to_hex()
        })
        .collect();
    assert_eq!(
        sync_hashes,
        [
            "ceaaea40b96859841ecd17995612de7d5683bfbd5a221b28d0bcaf23bcb9aff1",
            "7efc530cfcf5885997870efac915620d23c5b565d4c9c1627ea0e54f060c4fea",
        ],
        "SyncInput bytes moved"
    );
}

#[test]
fn routed_epoch_equals_independent_legs_plus_netting_ledger() {
    // a routed-only batch on the shard map ...
    const POOLS: u32 = 4;
    let mut shards = seeded_shards(POOLS);
    let users_n = 8u64;
    let deposits: HashMap<Address, (u128, u128)> = (0..users_n)
        .map(|i| (user(i), (DEPOSIT, DEPOSIT)))
        .collect();
    shards.begin_epoch(deposits.clone(), |a| {
        (0..users_n)
            .find(|i| user(*i) == *a)
            .map(|i| PoolId((i % POOLS as u64) as u32))
    });
    let txs: Vec<AmmTx> = (0..40u64)
        .map(|i| {
            let u = i % users_n;
            let entry = (u % POOLS as u64) as u32;
            route(
                user(u),
                &[entry, (entry + 1) % POOLS, (entry + 2) % POOLS],
                i % 2 == 0,
                50_000 + i as u128 * 7,
            )
        })
        .collect();
    let batch: Vec<(&AmmTx, usize)> = txs.iter().map(|t| (t, 1072)).collect();
    let executed = shards.execute_batch(&batch, 0, ExecMode);
    assert!(executed.iter().all(|e| e.accepted()), "all routes accepted");

    // ... must equal the same legs applied to independent bare pools in
    // wave order (wave k ascending, batch order within a wave), with the
    // deposit effects reconstructed through an explicit netting ledger.
    let mut solo_pools: HashMap<u32, Pool> = (0..POOLS)
        .map(|p| {
            let mut pool = Pool::new_standard();
            let owner = Address::from_pubkey_bytes(b"routing-genesis-lp");
            let id = PositionId::derive(&[
                b"genesis-liquidity",
                owner.as_bytes(),
                &(-120_000i32).to_be_bytes(),
                &120_000i32.to_be_bytes(),
            ]);
            pool.mint(id, owner, -120_000, 120_000, SEED_LIQUIDITY, SEED_LIQUIDITY)
                .unwrap();
            (p, pool)
        })
        .collect();
    let mut ledger = NettingLedger::new();
    for out in &executed {
        if matches!(out.effect, TxEffect::Route { .. }) {
            ledger.record_route();
        }
    }
    let max_waves = executed
        .iter()
        .filter_map(|e| match &e.effect {
            TxEffect::Route { legs, .. } => Some(legs.len()),
            _ => None,
        })
        .max()
        .unwrap();
    for wave in 0..max_waves {
        for out in &executed {
            let TxEffect::Route { legs, .. } = &out.effect else {
                continue;
            };
            let Some(leg) = legs.get(wave) else { continue };
            // each leg re-executes as an independent single-pool swap
            let solo = solo_pools.get_mut(&leg.pool.0).unwrap();
            let result = solo
                .swap(
                    leg.zero_for_one,
                    ammboost::amm::pool::SwapKind::ExactInput(leg.amount_in),
                    None,
                )
                .expect("leg replays as a plain swap");
            assert_eq!(result.amount_in, leg.amount_in, "leg input diverges");
            assert_eq!(result.amount_out, leg.amount_out, "leg output diverges");
            ledger.record_leg(
                out.tx.user(),
                leg.zero_for_one,
                leg.amount_in,
                leg.amount_out,
            );
        }
    }

    // pool state byte-identical to the routed epoch's shards
    for p in 0..POOLS {
        assert_eq!(
            shards.get(PoolId(p)).unwrap().pool().export_state(),
            ammboost::amm::EngineState::Cl(solo_pools.get(&p).unwrap().export_state()),
            "pool {p} diverges from independent-leg execution"
        );
    }

    // deposits equal the initial snapshot plus the ledger's net deltas
    let nets: HashMap<Address, (i128, i128)> = ledger.net_entries().into_iter().collect();
    let final_deposits = shards.merged_deposits();
    for i in 0..users_n {
        let (initial0, initial1) = deposits[&user(i)];
        let (d0, d1) = nets.get(&user(i)).copied().unwrap_or((0, 0));
        let expect0 = (initial0 as i128 + d0) as u128;
        let expect1 = (initial1 as i128 + d1) as u128;
        assert_eq!(
            final_deposits.get(&user(i)),
            (expect0, expect1),
            "user {i} deposit does not reconcile through the netting ledger"
        );
    }

    // and the explicit ledger matches the one the epoch accumulated
    assert_eq!(&ledger, shards.epoch_netting());
}

#[test]
fn routes_replay_bit_identically_through_fast_sync() {
    const POOLS: u32 = 6;
    const USERS: u64 = 24;
    const EPOCHS: u64 = 4;
    let (mut shards, ledger, _, wire) = run_routed_node(POOLS, USERS, 99, EPOCHS, Some(2));

    let snapshot = Snapshot::decode(&wire.unwrap()).expect("root verifies");
    let mut node = restore_node(&snapshot).expect("routed snapshot restores");
    assert_eq!(node.epoch, 2);
    let applied = catch_up(&mut node, &ledger, ROUNDS_PER_EPOCH).expect("routed catch-up verifies");
    assert_eq!(applied, EPOCHS - 2);
    assert_eq!(node.shards.export_states(), shards.export_states());
    assert_eq!(node.ledger.retained_state(), ledger.retained_state());
    let a = checkpoint_node(
        &mut Checkpointer::new(),
        EPOCHS,
        &mut node.shards,
        &node.ledger,
    )
    .stats;
    let b = checkpoint_node(&mut Checkpointer::new(), EPOCHS, &mut shards, &ledger).stats;
    assert_eq!(a.root, b.root, "state roots diverge after routed catch-up");
}

#[test]
fn netted_settlement_is_strictly_smaller_per_route() {
    // for EVERY accepted route with >= 2 hops, the netted settlement
    // bytes are strictly smaller than the naive per-hop settlement
    let mut shards = seeded_shards(4);
    let gen = routed_generator(4, 16, 5150, 1.0);
    shards.begin_epoch(deposits_for(&gen), |u| gen.pool_for(u));
    let mut gen = gen;
    let round_txs = gen.next_round(0);
    let batch: Vec<(&AmmTx, usize)> = round_txs.iter().map(|g| (&g.tx, g.wire_size)).collect();
    let executed = shards.execute_batch(&batch, 0, ExecMode);
    let mut seen = 0;
    for out in executed {
        let TxEffect::Route { legs, .. } = &out.effect else {
            continue;
        };
        assert!(legs.len() >= 2);
        let mut per_route = NettingLedger::new();
        per_route.record_route();
        for leg in legs {
            per_route.record_leg(
                out.tx.user(),
                leg.zero_for_one,
                leg.amount_in,
                leg.amount_out,
            );
        }
        assert!(
            per_route.netted_settlement_bytes() < per_route.naive_settlement_bytes(),
            "route with {} hops: netted {} !< naive {}",
            legs.len(),
            per_route.netted_settlement_bytes(),
            per_route.naive_settlement_bytes()
        );
        seen += 1;
    }
    assert!(seen > 0, "no routes in the batch");
}

#[test]
fn same_pool_twice_rejected_with_typed_error() {
    // the typed shape error ...
    let tx = RouteTx {
        user: user(1),
        hops: vec![
            RouteHop {
                pool: PoolId(2),
                zero_for_one: true,
            },
            RouteHop {
                pool: PoolId(3),
                zero_for_one: false,
            },
            RouteHop {
                pool: PoolId(2),
                zero_for_one: true,
            },
        ],
        amount_in: 10_000,
        min_amount_out: 0,
        deadline_round: 100,
    };
    assert_eq!(tx.validate(), Err(RouteError::DuplicatePool(PoolId(2))));

    // ... and the execution layer surfaces it as a stateless rejection
    let mut shards = seeded_shards(4);
    shards.begin_epoch([(user(1), (DEPOSIT, DEPOSIT))], |_| Some(PoolId(0)));
    let wrapped = AmmTx::Route(tx);
    let out = shards.execute(&wrapped, 1072, 0);
    let TxEffect::Rejected { reason } = &out.effect else {
        panic!(
            "duplicate-pool route must be rejected, got {:?}",
            out.effect
        );
    };
    assert!(reason.contains("twice"), "reason: {reason}");
    assert_eq!(shards.epoch_netting().route_count(), 0);
}

#[test]
fn system_runs_routed_traffic_end_to_end() {
    let mut cfg = SystemConfig::small_test();
    cfg.pools = 4;
    cfg.users = 16;
    cfg.daily_volume = 200_000;
    cfg.route_style = RouteStyle::routed(0.35, 4);
    cfg.snapshot = SnapshotPolicy::every_epoch();
    let mut sys = System::new(cfg.clone());
    let report = sys.run();

    assert!(report.routes_accepted > 0, "{report:?}");
    assert!(
        report.route_legs_executed >= 2 * report.routes_accepted,
        "every route has at least two legs: {report:?}"
    );
    assert_eq!(report.leftover_queue, 0);
    assert!(report.syncs_confirmed >= 3, "{report:?}");
    let root = report.last_state_root.expect("checkpoints taken");

    // the routed run is deterministic bit-for-bit
    let again = System::new(cfg).run();
    assert_eq!(again.last_state_root, Some(root));
    assert_eq!(again.routes_accepted, report.routes_accepted);
    assert_eq!(again.accepted, report.accepted);

    // the final checkpoint restores into a working node
    let stats = sys.checkpoint(report.epochs + 1);
    let snapshot = sys.last_snapshot().unwrap();
    let node = restore_node(&Snapshot::decode(&snapshot.encode()).unwrap()).unwrap();
    assert_eq!(node.root, stats.root);
    assert_eq!(node.shards.export_states(), sys.shards().export_states());
}

fn arb_route(pools: u32, users: u64) -> impl Strategy<Value = AmmTx> {
    (
        0..users,
        0..pools,
        2u32..=4,
        any::<bool>(),
        1_000u128..500_000,
        any::<u32>(),
    )
        .prop_map(move |(u, entry, hops, dir, amount, stride)| {
            // distinct pools: entry, then a stride walk over the rest
            let stride = 1 + stride % (pools - 1);
            let path: Vec<u32> = (0..hops.min(pools))
                .map(|k| (entry + k * stride) % pools)
                .collect();
            // the stride walk may revisit a pool when gcd(stride, pools)
            // > 1 — dedup keeps the prefix of distinct pools
            let mut seen = Vec::new();
            for p in path {
                if !seen.contains(&p) {
                    seen.push(p);
                }
            }
            if seen.len() < 2 {
                seen = vec![entry, (entry + 1) % pools];
            }
            route(user(u), &seen, dir, amount)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Netting is conservative: for any mix of random routes, the sum of
    /// per-(user, token) net deltas equals the sum of per-hop flow
    /// deltas (no token created or destroyed by folding), and the global
    /// token movement reconciles deposits against pool balances exactly.
    #[test]
    fn netting_is_conservative_over_random_route_mixes(
        routes in proptest::collection::vec(arb_route(4, 8), 1..30),
        seed in any::<u64>(),
    ) {
        let _ = seed;
        let mut shards = seeded_shards(4);
        let users_n = 8u64;
        let deposits: HashMap<Address, (u128, u128)> = (0..users_n)
            .map(|i| (user(i), (DEPOSIT, DEPOSIT)))
            .collect();
        shards.begin_epoch(deposits.clone(), |a| {
            (0..users_n).find(|i| user(*i) == *a).map(|i| PoolId((i % 4) as u32))
        });
        let pool_before: Vec<(u128, u128)> = (0..4u32)
            .map(|p| {
                let b = shards.get(PoolId(p)).unwrap().pool().balances();
                (b.amount0, b.amount1)
            })
            .collect();
        let batch: Vec<(&AmmTx, usize)> = routes.iter().map(|t| (t, 1072)).collect();
        let executed = shards.execute_batch(&batch, 0, ExecMode);

        // (a) ledger-internal conservation: net totals == flow totals
        let ledger = shards.epoch_netting();
        prop_assert_eq!(ledger.flow_totals(), ledger.net_totals());

        // (b) independent recomputation from the recorded effects
        let mut recomputed = NettingLedger::new();
        for out in &executed {
            if let TxEffect::Route { legs, .. } = &out.effect {
                recomputed.record_route();
                for leg in legs {
                    recomputed.record_leg(
                        out.tx.user(),
                        leg.zero_for_one,
                        leg.amount_in,
                        leg.amount_out,
                    );
                }
            }
        }
        prop_assert_eq!(recomputed.net_entries(), ledger.net_entries());

        // (c) global conservation: every token a user's deposit lost went
        // into a pool and vice versa (routes only touch deposits + pools)
        let final_deposits = shards.merged_deposits();
        let mut deposit_delta0 = 0i128;
        let mut deposit_delta1 = 0i128;
        for i in 0..users_n {
            let (b0, b1) = deposits[&user(i)];
            let (a0, a1) = final_deposits.get(&user(i));
            deposit_delta0 += a0 as i128 - b0 as i128;
            deposit_delta1 += a1 as i128 - b1 as i128;
        }
        let mut pool_delta0 = 0i128;
        let mut pool_delta1 = 0i128;
        for p in 0..4u32 {
            let b = shards.get(PoolId(p)).unwrap().pool().balances();
            pool_delta0 += b.amount0 as i128 - pool_before[p as usize].0 as i128;
            pool_delta1 += b.amount1 as i128 - pool_before[p as usize].1 as i128;
        }
        prop_assert_eq!(deposit_delta0, -pool_delta0, "token0 leaked");
        prop_assert_eq!(deposit_delta1, -pool_delta1, "token1 leaked");
    }

    /// Any route that names the same pool twice is rejected with the
    /// typed duplicate-pool error before touching any state.
    #[test]
    fn duplicate_pool_routes_always_rejected(
        entry in 0u32..4,
        dup_at in 1usize..4,
        len in 2usize..5,
        dir in any::<bool>(),
    ) {
        let mut path: Vec<u32> = (0..len as u32).map(|k| (entry + k) % 4).collect();
        let dup_at = dup_at.min(path.len() - 1);
        path[dup_at] = path[0]; // force a revisit of the entry pool
        let tx = match route(user(0), &path, dir, 10_000) {
            AmmTx::Route(r) => r,
            _ => unreachable!(),
        };
        prop_assert_eq!(
            tx.validate(),
            Err(RouteError::DuplicatePool(PoolId(path[0])))
        );
    }
}
