//! Backward compatibility of the tagged-section snapshot codec: a
//! committed pre-bump (v2, CL-only) snapshot fixture must keep decoding,
//! keep its original Merkle root bit-for-bit, and restore into a working
//! heterogeneous-capable node whose pools all come back as CL engines.
//!
//! The fixture bytes were produced by the v2 codec (untagged `PoolState`
//! pool sections) and are never regenerated — this test is the contract
//! that a node upgraded across the format bump can still fast-sync from
//! snapshots its peers took before the upgrade.
//!
//! Beside it sits a v3 fixture (tagged sections, all three engines, a
//! routed run) that `write_v3_fixture` wrote at commit aa6ab53 (PR 18):
//! the same contract for the current format, and a check across commits
//! rather than inside one process that snapshot bytes have not moved.

use ammboost::amm::engines::EngineKind;
use ammboost::amm::pool::SwapKind;
use ammboost::amm::types::PoolId;
use ammboost::core::checkpoint::restore_node;
use ammboost::core::config::{SnapshotPolicy, SystemConfig};
use ammboost::core::system::System;
use ammboost::state::{SectionKind, Snapshot, LEGACY_SNAPSHOT_VERSION, SNAPSHOT_VERSION};
use ammboost::workload::{EngineMix, RouteStyle};

const FIXTURE: &[u8] = include_bytes!("fixtures/snapshot_v2_cl.bin");
const FIXTURE_ROOT: &str = include_str!("fixtures/snapshot_v2_cl.root");
const V3_FIXTURE: &[u8] = include_bytes!("fixtures/snapshot_v3_mixed.bin");
const V3_FIXTURE_ROOT: &str = include_str!("fixtures/snapshot_v3_mixed.root");

#[test]
fn v2_fixture_decodes_with_original_root() {
    let snapshot = Snapshot::decode(FIXTURE).expect("committed v2 fixture decodes");
    assert_eq!(snapshot.version, LEGACY_SNAPSHOT_VERSION);
    assert!(
        snapshot.version < SNAPSHOT_VERSION,
        "fixture predates the bump"
    );
    assert_eq!(snapshot.epoch, 5);
    // the root is version-salted, so re-rooting the decoded sections
    // under the new codec must reproduce the committed v2 root exactly
    assert_eq!(format!("{}", snapshot.root()), FIXTURE_ROOT.trim());
}

#[test]
fn v2_fixture_restores_as_all_cl_fleet() {
    let snapshot = Snapshot::decode(FIXTURE).expect("committed v2 fixture decodes");
    let node = restore_node(&snapshot).expect("v2 snapshot restores on the v3 codec");
    assert_eq!(format!("{}", node.root), FIXTURE_ROOT.trim());
    assert_eq!(node.epoch, 5);
    assert_eq!(node.shards.len(), 3);
    // untagged v2 pool sections can only describe the CL engine
    for (id, kind) in node.shards.engine_kinds() {
        assert_eq!(kind, EngineKind::ConcentratedLiquidity, "pool {id:?}");
    }
    // the restored fleet is live: every pool serves quotes
    for p in 0..3u32 {
        let pool = node.shards.get(PoolId(p)).expect("restored shard").pool();
        let quote = pool
            .quote_swap(true, SwapKind::ExactInput(1_000_000), None)
            .expect("restored pool quotes");
        assert!(quote.amount_out > 0);
    }
}

#[test]
fn v2_sections_are_untagged_pool_states() {
    // belt and braces: the fixture's pool sections must NOT lead with an
    // engine tag — they are raw `PoolState` bytes, which is exactly what
    // the version dispatch keys on
    let snapshot = Snapshot::decode(FIXTURE).expect("committed v2 fixture decodes");
    let pool_sections: Vec<_> = snapshot.pool_sections().collect();
    assert_eq!(pool_sections.len(), 3);
    for (id, section) in pool_sections {
        assert!(!section.bytes.is_empty(), "pool {id} section empty");
        assert!(
            matches!(section.kind, SectionKind::Pool(_)),
            "pool sections keep their kind"
        );
    }
}

/// Writes `fixtures/snapshot_v3_mixed.{bin,root}`: the last scheduled
/// checkpoint of a run over four pools (CL, CL, constant-product,
/// weighted) with a quarter of the swaps routed. Run on purpose only
/// (`cargo test --test snapshot_compat -- --ignored write_v3_fixture`):
/// a `git diff` of the fixture afterwards shows whether the commit
/// changed a snapshot byte.
#[test]
#[ignore = "rewrites the committed v3 fixture"]
fn write_v3_fixture() {
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
    std::fs::write(format!("{dir}/snapshot_v3_mixed.bin"), snapshot.encode()).unwrap();
    std::fs::write(
        format!("{dir}/snapshot_v3_mixed.root"),
        format!("{}\n", snapshot.root()),
    )
    .unwrap();
}

#[test]
fn v3_fixture_decodes_reencodes_and_restores_to_its_root() {
    let snapshot = Snapshot::decode(V3_FIXTURE).expect("committed v3 fixture decodes");
    assert_eq!(snapshot.version, SNAPSHOT_VERSION);
    assert_eq!(snapshot.epoch, 3);
    assert_eq!(format!("{}", snapshot.root()), V3_FIXTURE_ROOT.trim());
    assert_eq!(
        snapshot.encode(),
        V3_FIXTURE,
        "decode → encode is the identity"
    );

    let node = restore_node(&snapshot).expect("v3 snapshot restores");
    assert_eq!(format!("{}", node.root), V3_FIXTURE_ROOT.trim());
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
