//! The snapshot format across commits: a committed v6 fixture (a routed
//! run over four pools of all three engine kinds, page-root section
//! leaves, a counted header, shard membership stored once, the ledger as
//! retention leaves it, no tick-price table) must keep decoding to its
//! recorded root and restoring into a working node. `write_v6_fixture`
//! rewrites it from the same run, so a diff of the fixture shows a commit
//! that moved a snapshot byte or the root — a check across commits rather
//! than inside one process.

use ammboost::amm::engines::EngineKind;
use ammboost::amm::pool::SwapKind;
use ammboost::amm::types::PoolId;
use ammboost::core::checkpoint::restore_node;
use ammboost::core::config::{SnapshotPolicy, SystemConfig};
use ammboost::core::system::System;
use ammboost::state::{CodecError, Snapshot};
use ammboost::workload::{EngineMix, RouteStyle};

const V6_FIXTURE: &[u8] = include_bytes!("fixtures/snapshot_v6_mixed.bin");
const V6_FIXTURE_ROOT: &str = include_str!("fixtures/snapshot_v6_mixed.root");

/// Writes `fixtures/snapshot_v6_mixed.{bin,root}`: the last scheduled
/// checkpoint of a run over four pools (CL, CL, constant-product,
/// weighted) with a quarter of the swaps routed. Run on purpose only
/// (`cargo test --test snapshot_compat -- --ignored write_v6_fixture`;
/// CI runs it and fails on a `git diff` of the fixture): a diff shows the
/// commit changed a snapshot byte or the root.
#[test]
#[ignore = "rewrites the committed v6 fixture"]
fn write_v6_fixture() {
    let mut cfg = SystemConfig::small_test();
    cfg.pools = 4;
    cfg.users = 16;
    cfg.engine_mix = EngineMix::of(2, 1, 1);
    cfg.route_style = RouteStyle::routed(0.25, 3);
    cfg.snapshot = SnapshotPolicy::every_epoch();
    cfg.seed = 20;
    let mut sys = System::new(cfg);
    let report = sys.run();
    assert!(report.routes_accepted > 0, "the fixture run must route");
    let snapshot = sys.last_snapshot().expect("checkpoints every epoch");
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures");
    std::fs::write(format!("{dir}/snapshot_v6_mixed.bin"), snapshot.encode()).unwrap();
    std::fs::write(
        format!("{dir}/snapshot_v6_mixed.root"),
        format!("{}\n", snapshot.root()),
    )
    .unwrap();
}

#[test]
fn v6_fixture_decodes_reencodes_and_restores_to_its_root() {
    let snapshot = Snapshot::decode(V6_FIXTURE).expect("committed v6 fixture decodes");
    assert_eq!(snapshot.epoch(), 3);
    assert_eq!(format!("{}", snapshot.root()), V6_FIXTURE_ROOT.trim());
    assert_eq!(
        snapshot.encode(),
        V6_FIXTURE,
        "decode → encode is the identity"
    );
    assert_restores_mixed_fleet(&snapshot, V6_FIXTURE_ROOT);
}

#[test]
fn v4_header_is_refused_not_misparsed() {
    // the fixture's bytes under the retired versions: v4 stored a copy of
    // every depositor's address per shard, and v5 a ledger section with
    // every unpruned meta-block and pool sections with a tick-price
    // table, so a v6 decoder must read neither
    for version in [4, 5] {
        let mut bytes = V6_FIXTURE.to_vec();
        bytes[4..6].copy_from_slice(&u16::to_be_bytes(version));
        assert_eq!(
            Snapshot::decode(&bytes),
            Err(CodecError::UnsupportedVersion(version))
        );
    }
}

/// Restores a fixture of the four-pool mixed run and checks the node's
/// root and that every pool of every engine kind quotes.
fn assert_restores_mixed_fleet(snapshot: &Snapshot, root: &str) {
    let node = restore_node(snapshot).expect("fixture restores");
    assert_eq!(format!("{}", node.root), root.trim());
    assert_eq!(
        node.shards.engine_kinds(),
        vec![
            (PoolId(0), EngineKind::ConcentratedLiquidity),
            (PoolId(1), EngineKind::ConcentratedLiquidity),
            (PoolId(2), EngineKind::ConstantProduct),
            (PoolId(3), EngineKind::Weighted),
        ]
    );
    // pools of all three engine kinds come back live
    for (id, kind) in node.shards.engine_kinds() {
        let quote = node
            .shards
            .get(id)
            .expect("restored shard")
            .pool()
            .quote_swap(true, SwapKind::ExactInput(1_000_000), None)
            .unwrap_or_else(|e| panic!("{kind:?} pool {id:?} must quote: {e:?}"));
        assert!(quote.amount_out > 0, "{kind:?} pool {id:?}");
    }
}
