//! Fast-sync differential — the snapshot subsystem's acceptance test:
//! a node restored from a mid-run snapshot and caught up from a peer's
//! retained blocks must be **byte-identical** to the peer that replayed
//! full history — same processor state, same ledger as retention leaves it,
//! same Merkle state root — and must execute subsequent traffic
//! identically.

mod common;

use ammboost::amm::pool::SwapKind;
use ammboost::amm::tx::AmmTx;
use ammboost::amm::types::PoolId;
use ammboost::core::checkpoint::catch_up;
use ammboost::core::processor::EpochProcessor;
use ammboost::core::Node;
use ammboost::crypto::Address;
use ammboost::sim::time::SimDuration;
use ammboost::state::Snapshot;
use ammboost::workload::{GeneratorConfig, LiquidityStyle, TrafficGenerator, TrafficMix};
use common::{assert_same_state, Peer};

const ROUNDS_PER_EPOCH: u64 = 5;

fn generator_config(seed: u64) -> GeneratorConfig {
    GeneratorConfig {
        daily_volume: 200_000,
        mix: TrafficMix::uniswap_2023(),
        users: 8,
        round_duration: SimDuration::from_secs(7),
        pools: vec![PoolId(0)],
        skew: ammboost::workload::TrafficSkew::default(),
        route_style: ammboost::workload::RouteStyle::default(),
        deadline_slack_rounds: 1_000_000,
        max_positions_per_user: 1,
        liquidity_style: LiquidityStyle::default(),
        quote_style: Default::default(),
        engine_mix: Default::default(),
        seed,
    }
}

/// A single-pool peer fed by the Uniswap-2023-calibrated traffic
/// generator — the restart-and-catch-up scenario harness.
fn peer(seed: u64) -> Peer {
    let mut processor = EpochProcessor::new([PoolId(0)]);
    processor.seed_liquidity(
        PoolId(0),
        Address::from_pubkey_bytes(b"drill-genesis-lp"),
        -120_000,
        120_000,
        4_000_000_000_000_000,
        4_000_000_000_000_000,
    );
    let generator = TrafficGenerator::new(generator_config(seed));
    Peer::new(processor, generator, b"fast-sync-genesis", ROUNDS_PER_EPOCH)
}

#[test]
fn restored_node_is_byte_identical_to_full_replay() {
    // the uninterrupted node runs 6 epochs, checkpointing after epoch 3
    let mut full = peer(42);
    let mut snapshot_bytes = None;
    for epoch in 1..=6 {
        full.run_epoch(epoch);
        if epoch == 3 {
            let snapshot = full.snapshot_at(epoch);
            assert!(full.node.last_checkpoint().unwrap().snapshot_bytes > 0);
            // ship the snapshot through its serialized (verified) form
            snapshot_bytes = Some(snapshot.encode());
        }
    }
    assert!(
        full.node.processor().stats().accepted > 0,
        "traffic must flow"
    );

    // the late joiner restores from the wire snapshot…
    let snapshot = Snapshot::decode(&snapshot_bytes.unwrap()).expect("root verifies");
    let mut node = Node::restore(&snapshot).expect("snapshot restores");
    assert_eq!(node.quote_view().epoch(), 3);
    // …and fast-syncs the remaining epochs from the peer's blocks
    let applied =
        catch_up(&mut node, full.node.ledger(), ROUNDS_PER_EPOCH).expect("catch-up verifies");
    assert_eq!(applied, 3);

    // byte-identical state, identical state roots
    assert_same_state(&mut node, &mut full.node, 6);

    // identical behaviour for the *next* epoch's traffic: the same round
    // mines the same meta-block on both
    let round = 6 * ROUNDS_PER_EPOCH;
    let txs = TrafficGenerator::new(generator_config(1234)).next_round(round);
    let batch: Vec<(&AmmTx, usize)> = txs.iter().map(|g| (&g.tx, g.wire_size)).collect();
    for n in [&mut node, &mut full.node] {
        n.begin_epoch(None);
        n.step_round(7, 0, round, &batch);
    }
    assert_eq!(
        node.ledger().meta_blocks(7),
        full.node.ledger().meta_blocks(7)
    );
    assert_eq!(
        node.processor().export_state(),
        full.node.processor().export_state()
    );
}

#[test]
fn snapshot_plus_pruned_peer_still_serves_recent_epochs() {
    // the peer prunes everything its epoch-4 snapshot covers; a node
    // restored from that same snapshot needs only epochs > 4, which the
    // peer still has
    let mut full = peer(7);
    let mut snapshot = None;
    for epoch in 1..=5 {
        full.run_epoch(epoch);
        if epoch == 4 {
            let snap = full.snapshot_at(epoch);
            let report = full
                .node
                .prune_to_snapshot(epoch, ammboost::state::RetentionPolicy::default());
            assert_eq!(report.epochs_pruned, 4);
            assert!(report.reclaimed_bytes > 0);
            snapshot = Some(snap);
        }
    }
    let mut node = Node::restore(&snapshot.unwrap()).unwrap();
    let applied = catch_up(&mut node, full.node.ledger(), ROUNDS_PER_EPOCH).unwrap();
    assert_eq!(applied, 1);
    assert_eq!(
        node.processor().export_state(),
        full.node.processor().export_state()
    );
}

#[test]
fn positions_survive_restore() {
    // positions created by workload mints exist in the restored pool with
    // identical fee accounting
    let mut full = peer(99);
    for epoch in 1..=3 {
        full.run_epoch(epoch);
    }
    let node = Node::restore(&full.snapshot_at(3)).unwrap();
    let full_pool = full.node.processor().pool(PoolId(0)).unwrap();
    let restored_pool = node.processor().pool(PoolId(0)).unwrap();
    assert_eq!(restored_pool.position_count(), full_pool.position_count());
    for id in full_pool.position_ids() {
        assert_eq!(
            restored_pool.position_info(&id),
            full_pool.position_info(&id),
            "position {id}"
        );
    }
}

#[test]
fn restored_node_checkpoints_on_as_the_live_node_does() {
    // two peers on one seed reach epoch 2; one checkpoints there and the
    // other's node is swapped for the node that checkpoint restores
    let (mut live, mut twin) = (peer(5), peer(5));
    for epoch in 1..=2 {
        live.run_epoch(epoch);
        twin.run_epoch(epoch);
    }
    let snapshot = live.snapshot_at(2);
    twin.node = Node::restore(&snapshot).expect("snapshot restores");

    // epoch 3 on both, then a checkpoint: the restored node's first one
    // re-encodes, hashes and ships exactly what the live node's does
    let [a, b] = [&mut live, &mut twin].map(|peer| {
        peer.run_epoch(3);
        peer.node.checkpoint(3)
    });
    assert_eq!(b.root, a.root);
    assert_eq!(b.pages_dirty, a.pages_dirty);
    assert!(b.delta_bytes > 0);
    assert_eq!(b.delta_bytes, a.delta_bytes);
    assert_eq!(b.pools_reencoded, a.pools_reencoded);
    let delta = twin.node.last_delta().expect("the snapshot is the base");
    assert_eq!(delta.base_root, snapshot.root());
    assert_eq!(Some(delta), live.node.last_delta());

    // and its quote view, sealed at epoch 3, answers as the live one does
    let quote = |peer: &Peer| {
        let view = peer.node.quote_view();
        assert_eq!(view.epoch(), 3);
        view.quote_swap(PoolId(0), true, SwapKind::ExactInput(1_000_000), None)
            .expect("pool 0 quotes")
    };
    assert_eq!(quote(&twin), quote(&live));
}
