//! Heterogeneous-fleet acceptance tests: a shard map mixing all three
//! AMM engines must route across engine boundaries bit-identically under
//! forced sequential and parallel execution, and a mixed fleet must
//! survive the full snapshot → restore → catch-up cycle to the same
//! Merkle root as a peer that replayed full history.

use ammboost::amm::engines::EngineKind;
use ammboost::amm::tx::{AmmTx, RouteHop, RouteTx};
use ammboost::amm::types::PoolId;
use ammboost::core::checkpoint::{catch_up, checkpoint_node, restore_node};
use ammboost::core::config::SystemConfig;
use ammboost::core::shard::{ExecMode, ShardMap};
use ammboost::core::system::System;
use ammboost::crypto::{Address, H256};
use ammboost::sidechain::block::{MetaBlock, SummaryBlock, TxEffect};
use ammboost::sidechain::ledger::Ledger;
use ammboost::sim::time::SimDuration;
use ammboost::state::{Checkpointer, Snapshot};
use ammboost::workload::{
    EngineMix, GeneratorConfig, LiquidityStyle, RouteStyle, TrafficGenerator, TrafficMix,
};
use std::collections::HashMap;

const ROUNDS_PER_EPOCH: u64 = 5;

/// The canonical mixed fleet: pool 0 concentrated-liquidity, pool 1
/// constant-product, pool 2 weighted.
const FLEET: [(PoolId, EngineKind); 3] = [
    (PoolId(0), EngineKind::ConcentratedLiquidity),
    (PoolId(1), EngineKind::ConstantProduct),
    (PoolId(2), EngineKind::Weighted),
];

fn mixed_shards() -> ShardMap {
    let mut shards = ShardMap::new_with_engines(FLEET);
    for (pool, _) in FLEET {
        shards.seed_liquidity(
            pool,
            Address::from_pubkey_bytes(b"fleet-genesis-lp"),
            -120_000,
            120_000,
            4_000_000_000_000_000,
            4_000_000_000_000_000,
        );
    }
    shards
}

fn trader(i: u64) -> Address {
    Address::from_index(0xF1EE7 + i)
}

fn cross_engine_routes(n: u64) -> Vec<AmmTx> {
    (0..n)
        .map(|i| {
            let mut dir = i % 2 == 0;
            AmmTx::Route(RouteTx {
                user: trader(i % 8),
                // every route hops CL → constant-product → weighted
                hops: (0..3u32)
                    .map(|k| {
                        let hop = RouteHop {
                            pool: PoolId(k),
                            zero_for_one: dir,
                        };
                        dir = !dir;
                        hop
                    })
                    .collect(),
                amount_in: 50_000 + i as u128 * 977,
                min_amount_out: 0,
                deadline_round: 1_000_000,
            })
        })
        .collect()
}

/// A route that hops CL → constant-product → weighted executes
/// bit-identically under forced sequential and parallel modes: same
/// per-leg effects, same netting, same final engine states.
#[test]
fn cross_engine_route_is_exec_mode_invariant() {
    let mut ready = mixed_shards();
    let deposits: HashMap<Address, (u128, u128)> = (0..8)
        .map(|i| (trader(i), (2_000_000_000_000u128, 2_000_000_000_000u128)))
        .collect();
    ready.begin_epoch(deposits, |a| {
        (0..8)
            .find(|i| trader(*i) == *a)
            .map(|i| PoolId(i as u32 % 3))
    });
    assert_eq!(ready.engine_kinds(), FLEET.to_vec());

    let txs = cross_engine_routes(48);
    let batch: Vec<(&AmmTx, usize)> = txs.iter().map(|t| (t, t.mainnet_size_bytes())).collect();

    let mut seq = ready.clone();
    let mut par = ready.clone();
    let fx_seq = seq.execute_batch(&batch, 0, ExecMode::Sequential);
    let fx_par = par.execute_batch(&batch, 0, ExecMode::Parallel);

    // every route accepted, every leg walked all three engine kinds
    for out in &fx_seq {
        let TxEffect::Route { legs, .. } = &out.effect else {
            panic!("route rejected: {:?}", out.effect);
        };
        assert_eq!(legs.len(), 3);
        assert!(legs.iter().all(|l| l.amount_out > 0));
    }
    // bit-identical across modes: effects, netting, engine states
    assert_eq!(fx_seq, fx_par, "route effects diverge across exec modes");
    assert_eq!(
        seq.epoch_netting().netted_settlement_bytes(),
        par.epoch_netting().netted_settlement_bytes()
    );
    assert_eq!(seq.export_states(), par.export_states());
}

/// A peer node running routed traffic over the mixed fleet.
struct Node {
    shards: ShardMap,
    ledger: Ledger,
    generator: TrafficGenerator,
}

impl Node {
    fn new(seed: u64) -> Node {
        let mut shards = mixed_shards();
        let generator = TrafficGenerator::new(GeneratorConfig {
            daily_volume: 200_000,
            mix: TrafficMix::uniswap_2023(),
            users: 12,
            round_duration: SimDuration::from_secs(7),
            pools: FLEET.iter().map(|(id, _)| *id).collect(),
            skew: ammboost::workload::TrafficSkew::Zipf { exponent: 1.0 },
            route_style: RouteStyle::routed(0.35, 3),
            deadline_slack_rounds: 1_000_000,
            max_positions_per_user: 1,
            liquidity_style: LiquidityStyle::default(),
            quote_style: Default::default(),
            engine_mix: EngineMix::of(1, 1, 1),
            seed,
        });
        assert_eq!(generator.fleet(), FLEET.to_vec());
        let mut deposits = HashMap::new();
        for user in generator.users() {
            deposits.insert(user, (2_000_000_000_000u128, 2_000_000_000_000u128));
        }
        let route = |user: &Address| generator.pool_for(user);
        shards.begin_epoch(deposits, route);
        Node {
            shards,
            ledger: Ledger::new(H256::hash(b"engine-fleet-genesis")),
            generator,
        }
    }

    fn run_epoch(&mut self, epoch: u64) {
        if epoch > 1 {
            self.shards.carry_over_epoch();
        }
        for round in 0..ROUNDS_PER_EPOCH {
            let global = (epoch - 1) * ROUNDS_PER_EPOCH + round;
            // mine the whole round as one batch so routed transactions go
            // through the same wave schedule `catch_up` replays them under
            let gtxs = self.generator.next_round(global);
            let batch: Vec<(&AmmTx, usize)> = gtxs.iter().map(|g| (&g.tx, g.wire_size)).collect();
            let txs = self.shards.execute_batch(&batch, global, ExecMode::Auto);
            for out in &txs {
                if let TxEffect::Burn {
                    position, deleted, ..
                } = &out.effect
                {
                    if *deleted {
                        self.generator.forget_position(*position);
                    }
                }
            }
            let block = MetaBlock::new(epoch, round, self.ledger.tip(), txs);
            self.ledger.append_meta(block).expect("block chains");
        }
        let (payouts, positions, pools) = self.shards.end_epoch();
        let summary = SummaryBlock {
            epoch,
            parent: self.ledger.tip(),
            meta_refs: self
                .ledger
                .meta_blocks(epoch)
                .iter()
                .map(|m| m.id())
                .collect(),
            payouts,
            positions,
            pools,
        };
        self.ledger.append_summary(summary).expect("summary chains");
    }
}

/// The fast-sync differential over a heterogeneous fleet: a node
/// restored from a mid-run snapshot with engine-tagged sections and
/// caught up from the peer's blocks is byte-identical to the peer —
/// engine kinds, shard states, ledger, Merkle root.
#[test]
fn mixed_fleet_survives_snapshot_restore_catch_up() {
    let mut full = Node::new(4242);
    let mut cp = Checkpointer::new();
    let mut wire = None;
    for epoch in 1..=6 {
        full.run_epoch(epoch);
        if epoch == 3 {
            let out = checkpoint_node(&mut cp, epoch, &mut full.shards, &full.ledger);
            assert_eq!(out.stats.pools_total, 3);
            wire = Some(out.snapshot.encode());
        }
    }
    let stats = full.shards.stats();
    assert!(stats.accepted > 0, "traffic must flow");

    let snapshot = Snapshot::decode(&wire.unwrap()).expect("root verifies");
    // the snapshot's pool sections carry the engine tags
    for ((_, kind), (_, section)) in FLEET.iter().zip(snapshot.pool_sections()) {
        assert_eq!(section.bytes[0], kind.tag(), "section tag mismatch");
    }

    let mut node = restore_node(&snapshot).expect("tagged snapshot restores");
    assert_eq!(node.epoch, 3);
    assert_eq!(node.shards.engine_kinds(), FLEET.to_vec());
    let applied = catch_up(&mut node, &full.ledger, ROUNDS_PER_EPOCH).expect("catch-up verifies");
    assert_eq!(applied, 3);

    assert_eq!(node.shards.export_states(), full.shards.export_states());
    assert_eq!(node.ledger.export_state(), full.ledger.export_state());
    let restored =
        checkpoint_node(&mut Checkpointer::new(), 99, &mut node.shards, &node.ledger).stats;
    let replayed =
        checkpoint_node(&mut Checkpointer::new(), 99, &mut full.shards, &full.ledger).stats;
    assert_eq!(restored.root, replayed.root, "state roots diverge");
}

/// Full-system determinism over a mixed fleet: the same config produces
/// byte-identical shard states on every run. (That the batch schedule
/// cannot change them either is `System`'s own unit test,
/// `batch_schedule_is_unobservable_in_a_faulted_mixed_fleet`.)
#[test]
fn mixed_fleet_system_runs_deterministically() {
    let config = || {
        let mut cfg = SystemConfig::small_test();
        cfg.pools = 6;
        cfg.users = 24;
        cfg.engine_mix = EngineMix::of(2, 2, 2);
        cfg.route_style = RouteStyle::routed(0.25, 3);
        cfg.seed = 99;
        cfg
    };
    let mut a = System::new(config());
    let mut b = System::new(config());
    let ra = a.run();
    let rb = b.run();
    assert!(ra.accepted > 0);
    assert!(ra.routes_accepted > 0, "routes must cross the mixed fleet");
    assert_eq!(ra.accepted, rb.accepted);
    assert_eq!(
        a.shards().engine_kinds(),
        vec![
            (PoolId(0), EngineKind::ConcentratedLiquidity),
            (PoolId(1), EngineKind::ConcentratedLiquidity),
            (PoolId(2), EngineKind::ConstantProduct),
            (PoolId(3), EngineKind::ConstantProduct),
            (PoolId(4), EngineKind::Weighted),
            (PoolId(5), EngineKind::Weighted),
        ]
    );
    assert_eq!(a.shards().export_states(), b.shards().export_states());
}
