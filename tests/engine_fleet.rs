//! Heterogeneous-fleet acceptance tests: a shard map mixing all three
//! AMM engines must route across engine boundaries, and a mixed fleet
//! must survive the full snapshot → restore → catch-up cycle to the same
//! Merkle root as a peer that replayed full history.

mod common;

use ammboost::amm::engines::EngineKind;
use ammboost::amm::tx::{AmmTx, RouteHop, RouteTx};
use ammboost::amm::types::PoolId;
use ammboost::core::checkpoint::{catch_up, restore_node};
use ammboost::core::config::SystemConfig;
use ammboost::core::shard::{ExecMode, ShardMap};
use ammboost::core::system::System;
use ammboost::crypto::Address;
use ammboost::sidechain::block::TxEffect;
use ammboost::sidechain::ledger::LedgerState;
use ammboost::sim::time::SimDuration;
use ammboost::state::{prune_to_snapshot, Decode, RetentionPolicy, SectionKind, Snapshot};
use ammboost::workload::{
    EngineMix, GeneratorConfig, LiquidityStyle, RouteStyle, TrafficGenerator, TrafficMix,
};
use common::{root_of, Peer};
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

/// Routes that hop CL → constant-product → weighted are all accepted,
/// and every one of them walks the three engine kinds.
#[test]
fn cross_engine_route_is_exec_mode_invariant() {
    let mut shards = mixed_shards();
    let deposits: HashMap<Address, (u128, u128)> = (0..8)
        .map(|i| (trader(i), (2_000_000_000_000u128, 2_000_000_000_000u128)))
        .collect();
    shards.begin_epoch(deposits, |a| {
        (0..8)
            .find(|i| trader(*i) == *a)
            .map(|i| PoolId(i as u32 % 3))
    });
    assert_eq!(shards.engine_kinds(), FLEET.to_vec());

    let txs = cross_engine_routes(48);
    let batch: Vec<(&AmmTx, usize)> = txs.iter().map(|t| (t, t.mainnet_size_bytes())).collect();

    // every route accepted, every leg walked all three engine kinds
    for out in shards.execute_batch(&batch, 0, ExecMode) {
        let TxEffect::Route { legs, .. } = &out.effect else {
            panic!("route rejected: {:?}", out.effect);
        };
        assert_eq!(legs.len(), 3);
        assert!(legs.iter().all(|l| l.amount_out > 0));
        let kinds: Vec<EngineKind> = legs
            .iter()
            .map(|l| shards.get(l.pool).expect("leg pool").engine_kind())
            .collect();
        assert_eq!(kinds, FLEET.map(|(_, kind)| kind));
    }
}

/// A peer running routed traffic over the mixed fleet.
fn peer(seed: u64) -> Peer {
    peer_of(seed, 12)
}

/// [`peer`] over `users` traders.
fn peer_of(seed: u64, users: u64) -> Peer {
    let generator = TrafficGenerator::new(GeneratorConfig {
        daily_volume: 200_000,
        mix: TrafficMix::uniswap_2023(),
        users,
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
    Peer::new(
        mixed_shards(),
        generator,
        b"engine-fleet-genesis",
        ROUNDS_PER_EPOCH,
    )
}

/// The fast-sync differential over a heterogeneous fleet: a node
/// restored from a mid-run snapshot with engine-tagged sections and
/// caught up from the peer's blocks is byte-identical to the peer —
/// engine kinds, shard states, ledger, Merkle root.
#[test]
fn mixed_fleet_survives_snapshot_restore_catch_up() {
    let mut full = peer(4242);
    let mut wire = None;
    let mut live_at_3 = None;
    for epoch in 1..=6 {
        full.run_epoch(epoch);
        if epoch == 3 {
            wire = Some(full.snapshot_at(epoch).encode());
            assert_eq!(full.node.last_checkpoint().unwrap().pools_total, 3);
            live_at_3 = Some(full.node.shards().clone());
        }
    }
    let stats = full.node.shards().stats();
    assert!(stats.accepted > 0, "traffic must flow");

    let snapshot = Snapshot::decode(&wire.unwrap()).expect("root verifies");
    // the snapshot's pool sections carry the engine tags
    for ((_, kind), (_, section)) in FLEET.iter().zip(snapshot.pool_sections()) {
        assert_eq!(section.bytes[0], kind.tag(), "section tag mismatch");
    }

    let mut node = restore_node(&snapshot).expect("tagged snapshot restores");
    assert_eq!(node.epoch, 3);
    assert_eq!(node.shards.engine_kinds(), FLEET.to_vec());
    // shard membership comes back as the live node held it: every shard's
    // deposits, and every depositor's home shard
    let live = live_at_3.unwrap();
    for (restored, shard) in node.shards.iter().zip(live.iter()) {
        assert_eq!(restored.deposits(), shard.deposits(), "{}", shard.pool_id());
        for (user, _) in shard.deposits().iter() {
            assert_eq!(node.shards.home_shard_of(&user), Some(shard.pool_id()));
            assert_eq!(live.home_shard_of(&user), Some(shard.pool_id()));
        }
    }
    let applied =
        catch_up(&mut node, full.node.ledger(), ROUNDS_PER_EPOCH).expect("catch-up verifies");
    assert_eq!(applied, 3);

    assert_eq!(
        node.shards.export_states(),
        full.node.shards().export_states()
    );
    assert_eq!(
        node.ledger.retained_state(),
        full.node.ledger().retained_state()
    );
    assert_eq!(
        root_of(&mut node, 99),
        full.node.checkpoint(99).root,
        "state roots diverge"
    );
}

/// A routed mixed fleet checkpointed every epoch on `System`'s schedule
/// (checkpoint, then retention prune). Every in-run snapshot holds state,
/// not history: no meta-block of a summarised epoch, whatever margin of
/// them the node keeps, and each delta no larger than its snapshot. A
/// node restored from any of them and caught up lands on the ledger and
/// the root of the live node after its retention prune.
#[test]
fn in_run_snapshots_hold_state_not_history() {
    const EPOCHS: u64 = 5;
    // `lean` keeps no margin; `audit` keeps every summarised epoch's
    // blocks, so it can serve catch-up from any snapshot. A delta pays
    // 40 B per page it ships, so it can only undercut its snapshot when an
    // epoch rewrites part of the state, not all of it: 400 traders under
    // Zipf traffic leave most deposits untouched each epoch
    let mut lean = peer_of(77, 400);
    let mut audit = peer_of(77, 400);
    let mut snapshots = Vec::new();
    for epoch in 1..=EPOCHS {
        for (peer, keep_epochs) in [(&mut lean, 0), (&mut audit, u64::MAX)] {
            peer.run_epoch(epoch);
            peer.node.checkpoint(epoch);
            peer.node
                .prune_to_snapshot(epoch, RetentionPolicy { keep_epochs });
        }
        let snapshot = lean.node.last_snapshot().unwrap().clone();
        assert_eq!(
            audit.node.last_snapshot().unwrap().encode(),
            snapshot.encode(),
            "epoch {epoch}: the margin is node-local"
        );
        let ledger =
            LedgerState::decode_all(&snapshot.section(SectionKind::Ledger).unwrap().bytes).unwrap();
        assert!(ledger.meta.is_empty(), "epoch {epoch} commits history");
        assert_eq!(ledger.summaries.len() as u64, epoch);
        match lean.node.last_delta() {
            Some(delta) => assert!(
                delta.encoded_len() <= snapshot.encoded_len(),
                "epoch {epoch}: delta {} > snapshot {}",
                delta.encoded_len(),
                snapshot.encoded_len()
            ),
            None => assert_eq!(epoch, 1, "only the first checkpoint has no base"),
        }
        snapshots.push(snapshot);
    }
    assert!(
        audit.node.shards().stats().accepted > 0,
        "traffic must flow"
    );
    assert_eq!(lean.node.ledger().meta_block_count(), 0);
    assert!(audit.node.ledger().meta_block_count() > 0);

    let live_root = lean.node.last_checkpoint().unwrap().root;
    for snapshot in &snapshots[..snapshots.len() - 1] {
        let mut node = restore_node(snapshot).expect("in-run snapshot restores");
        let applied =
            catch_up(&mut node, audit.node.ledger(), ROUNDS_PER_EPOCH).expect("catch-up verifies");
        assert_eq!(node.epoch, EPOCHS);
        assert_eq!(applied, EPOCHS - snapshot.epoch());
        prune_to_snapshot(&mut node.ledger, EPOCHS, RetentionPolicy::default());
        assert_eq!(
            node.ledger.export_state(),
            lean.node.ledger().export_state()
        );
        assert_eq!(
            node.shards.export_states(),
            lean.node.shards().export_states()
        );
        assert_eq!(
            root_of(&mut node, EPOCHS),
            live_root,
            "from {}",
            snapshot.epoch()
        );
    }
}

/// Full-system determinism over a mixed fleet: the same config produces
/// byte-identical shard states on every run. (That the batch schedule
/// cannot change them either is the node's own unit test,
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
