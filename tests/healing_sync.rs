//! Self-healing fast-sync and crash-consistent checkpoints, end to end:
//! a late-joiner syncing from one dishonest and one honest provider must
//! quarantine every bad page, heal it within the retry budget, and
//! catch up to a state **byte-identical** to the peer that replayed full
//! history; a checkpoint commit torn at any point must recover to the
//! last committed snapshot and catch up to the same root.

mod common;

use ammboost::amm::engines::EngineKind;
use ammboost::amm::types::PoolId;
use ammboost::core::checkpoint::{catch_up, recover_node};
use ammboost::core::processor::EpochProcessor;
use ammboost::core::Node;
use ammboost::crypto::Address;
use ammboost::sim::time::SimDuration;
use ammboost::sim::{FaultInjector, FaultKind, FaultSpec, InjectionPoint};
use ammboost::state::heal::{
    delta_sync, fetch_manifest, heal_restore, RetryPolicy, SectionProvider, SimProvider, SyncError,
};
use ammboost::state::pages::page_count;
use ammboost::state::store::{CheckpointStore, CrashPoint, RecoveryOutcome};
use ammboost::state::{Snapshot, PAGE_SIZE};
use ammboost::workload::{
    EngineMix, GeneratorConfig, LiquidityStyle, TrafficGenerator, TrafficMix,
};
use common::{assert_same_state, Peer};
use std::sync::{Arc, Mutex};

const ROUNDS_PER_EPOCH: u64 = 5;

/// The heterogeneous fleet the mixed-engine healing scenarios run over:
/// its snapshot pool sections carry three different engine tags.
const MIXED_FLEET: [(PoolId, EngineKind); 3] = [
    (PoolId(0), EngineKind::ConcentratedLiquidity),
    (PoolId(1), EngineKind::ConstantProduct),
    (PoolId(2), EngineKind::Weighted),
];

fn generator_config(
    seed: u64,
    fleet: &[(PoolId, EngineKind)],
    engine_mix: EngineMix,
) -> GeneratorConfig {
    GeneratorConfig {
        daily_volume: 200_000,
        mix: TrafficMix::uniswap_2023(),
        users: 8,
        round_duration: SimDuration::from_secs(7),
        pools: fleet.iter().map(|(id, _)| *id).collect(),
        skew: ammboost::workload::TrafficSkew::default(),
        route_style: ammboost::workload::RouteStyle::default(),
        deadline_slack_rounds: 1_000_000,
        max_positions_per_user: 1,
        liquidity_style: LiquidityStyle::default(),
        quote_style: Default::default(),
        engine_mix,
        seed,
    }
}

/// A two-pool peer fed by the calibrated traffic generator — the peer
/// whose snapshots the healing scenarios sync from.
fn peer(seed: u64) -> Peer {
    let fleet = [
        (PoolId(0), EngineKind::ConcentratedLiquidity),
        (PoolId(1), EngineKind::ConcentratedLiquidity),
    ];
    peer_with_fleet(seed, &fleet, EngineMix::default())
}

fn mixed_peer(seed: u64) -> Peer {
    peer_with_fleet(seed, &MIXED_FLEET, EngineMix::of(1, 1, 1))
}

fn peer_with_fleet(seed: u64, fleet: &[(PoolId, EngineKind)], engine_mix: EngineMix) -> Peer {
    let mut processor = EpochProcessor::new_with_engines(fleet.iter().copied());
    for (pool, _) in fleet {
        processor.seed_liquidity(
            *pool,
            Address::from_pubkey_bytes(b"heal-genesis-lp"),
            -120_000,
            120_000,
            4_000_000_000_000_000,
            4_000_000_000_000_000,
        );
    }
    let generator = TrafficGenerator::new(generator_config(seed, fleet, engine_mix));
    Peer::new(
        processor,
        generator,
        b"healing-sync-genesis",
        ROUNDS_PER_EPOCH,
    )
}

/// Runs a peer for 6 epochs, checkpointing after `stale_epoch` and
/// `snap_epoch`; returns the peer plus both snapshots.
fn peer_with_snapshots(seed: u64, stale_epoch: u64, snap_epoch: u64) -> (Peer, Snapshot, Snapshot) {
    peer_with_snapshots_from(peer(seed), stale_epoch, snap_epoch)
}

fn peer_with_snapshots_from(
    mut full: Peer,
    stale_epoch: u64,
    snap_epoch: u64,
) -> (Peer, Snapshot, Snapshot) {
    let mut stale = None;
    let mut snap = None;
    for epoch in 1..=6 {
        full.run_epoch(epoch);
        if epoch == stale_epoch {
            stale = Some(full.snapshot_at(epoch));
        }
        if epoch == snap_epoch {
            snap = Some(full.snapshot_at(epoch));
        }
    }
    assert!(
        full.node.processor().stats().accepted > 0,
        "traffic must flow"
    );
    (full, stale.unwrap(), snap.unwrap())
}

/// Provider 0's occurrence index of each section's first page in a cold
/// sync that accepted its manifest at occurrence `manifest_at`: the sync
/// asks that provider for every page first, in canonical order.
fn first_page_occurrences(snapshot: &Snapshot, manifest_at: u64) -> Vec<u64> {
    let mut next = manifest_at + 1;
    (snapshot.sections().iter())
        .map(|s| {
            let at = next;
            next += page_count(s.bytes.len()) as u64;
            at
        })
        .collect()
}

#[test]
fn healed_fast_sync_is_byte_identical_to_full_replay() {
    let (mut full, stale_snap, snapshot) = peer_with_snapshots(42, 1, 3);
    let trusted_root = snapshot.root();

    // the dishonest provider serves a stale manifest (occurrence 0), then
    // an honest one for the sync itself (occurrence 1), so it is asked
    // for every page first: it serves stale, drops, corrupts and cuts the
    // first page of four sections (a pool header page, which the stale
    // epoch does not share, takes the stale-root fault)
    assert_ne!(
        stale_snap.sections()[0].bytes.chunks(PAGE_SIZE).next(),
        snapshot.sections()[0].bytes.chunks(PAGE_SIZE).next(),
        "the stale pool header page must differ"
    );
    let first_pages = first_page_occurrences(&snapshot, 1);
    let mut faults = FaultInjector::new(0xD15);
    faults.schedule(FaultSpec {
        point: InjectionPoint::Provider(0),
        occurrence: 0,
        kind: FaultKind::StaleRoot,
    });
    faults.schedule_all(
        [
            FaultKind::StaleRoot,
            FaultKind::Drop,
            FaultKind::BitFlip,
            FaultKind::Truncate,
        ]
        .into_iter()
        .zip(&first_pages)
        .map(|(kind, &occurrence)| FaultSpec {
            point: InjectionPoint::Provider(0),
            occurrence,
            kind,
        }),
    );
    let mut dishonest = SimProvider::faulty(0, snapshot.clone(), Arc::new(Mutex::new(faults)))
        .with_stale(stale_snap);
    let mut honest = SimProvider::honest(1, snapshot.clone());
    let mut providers: Vec<&mut dyn SectionProvider> = vec![&mut dishonest, &mut honest];

    // manifest: the dishonest provider's stale copy is rejected, the
    // honest provider's accepted
    let (manifest, slot) =
        fetch_manifest(&mut providers, trusted_root).expect("honest manifest found");
    assert_eq!((manifest.root(), slot), (trusted_root, 1));

    // page fetch: every bad copy quarantined, healed from the peer
    let policy = RetryPolicy::default();
    let (healed, report) =
        delta_sync(None, &mut providers, trusted_root, &policy).expect("heal succeeds");
    assert_eq!(
        healed.root(),
        trusted_root,
        "healed snapshot re-derives the root"
    );
    assert_eq!(
        report.quarantined.len(),
        4,
        "drop, bit-flip, stale-root and truncate must each quarantine: {:?}",
        report.quarantined
    );
    for q in &report.quarantined {
        assert!(
            report.healed_sections.contains(&q.section),
            "section {} quarantined but never healed",
            q.section
        );
        assert_eq!(q.provider, 0, "only the dishonest provider quarantines");
    }
    assert!(report.retries >= 4);
    assert!(report.sim_elapsed > SimDuration::ZERO, "retries back off");

    // the healed snapshot fast-syncs exactly like a clean one
    let mut node = Node::restore(&healed).expect("healed snapshot restores");
    assert_eq!(node.quote_view().epoch(), 3);
    let applied =
        catch_up(&mut node, full.node.ledger(), ROUNDS_PER_EPOCH).expect("catch-up verifies");
    assert_eq!(applied, 3);
    assert_same_state(&mut node, &mut full.node, 99);
}

#[test]
fn torn_commit_recovers_to_last_checkpoint_and_catches_up() {
    let (mut full, snap3, snap5) = peer_with_snapshots(7, 3, 5);
    let full_root = full.node.checkpoint(99).root;

    let wire_len = snap5.encode().len();
    for crash in [
        CrashPoint::DuringStage { offset: 0 },
        CrashPoint::DuringStage {
            offset: wire_len / 2,
        },
        CrashPoint::DuringStage {
            offset: wire_len - 1,
        },
        CrashPoint::BeforeMark,
    ] {
        let mut store = CheckpointStore::new();
        store.commit(&snap3, None).expect("clean commit");
        store.commit(&snap5, Some(crash)).unwrap_err();
        // the restarted node: recover the journal, restore the last
        // committed snapshot, replay the missing epochs from the peer
        let (mut node, outcome, applied) =
            recover_node(&mut store, full.node.ledger(), ROUNDS_PER_EPOCH).expect("node recovers");
        assert!(
            matches!(outcome, RecoveryOutcome::DiscardedTorn { .. }),
            "torn write must be discarded ({crash:?}), got {outcome:?}"
        );
        assert_eq!(applied, 3, "epochs 4..=6 replayed from the peer");
        assert_eq!(
            node.checkpoint(99).root,
            full_root,
            "recovery after {crash:?} diverged"
        );
        assert_eq!(
            node.processor().export_state(),
            full.node.processor().export_state()
        );
    }

    // staged and marked but not installed: recovery rolls forward to the
    // newer snapshot and replays one epoch less
    let mut store = CheckpointStore::new();
    store.commit(&snap3, None).expect("clean commit");
    store
        .commit(&snap5, Some(CrashPoint::BeforeInstall))
        .unwrap_err();
    let (mut node, outcome, applied) =
        recover_node(&mut store, full.node.ledger(), ROUNDS_PER_EPOCH).expect("node recovers");
    assert_eq!(outcome, RecoveryOutcome::RolledForward { epoch: 5 });
    assert_eq!(applied, 1, "only epoch 6 left to replay");
    assert_eq!(node.checkpoint(99).root, full_root);
}

#[test]
fn exhausted_heal_fails_closed_with_typed_error() {
    let (_, _, snapshot) = peer_with_snapshots(11, 1, 3);
    let trusted_root = snapshot.root();

    // a single provider that drops every page fetch: the manifest is
    // served honestly, but no page ever arrives — the sync must fail
    // with a typed error after the retry budget, never hang or panic
    let policy = RetryPolicy::default();
    let mut faults = FaultInjector::new(0xDEAD);
    faults.schedule_all(
        (1..=policy.max_attempts as u64).map(|occurrence| FaultSpec {
            point: InjectionPoint::Provider(0),
            occurrence,
            kind: FaultKind::Drop,
        }),
    );
    let mut lonely = SimProvider::faulty(0, snapshot.clone(), Arc::new(Mutex::new(faults)));
    let mut providers: Vec<&mut dyn SectionProvider> = vec![&mut lonely];
    let err = heal_restore(None, &mut providers, trusted_root, &policy).unwrap_err();
    assert!(
        matches!(
            err,
            SyncError::HealExhausted {
                section: 0,
                attempts
            } if attempts == policy.max_attempts
        ),
        "expected HealExhausted on section 0, got {err}"
    );
}

/// Self-healing fast-sync over a heterogeneous fleet: the snapshot's
/// pool sections carry three different engine tags, a dishonest provider
/// tampers with every one of them, and the healed snapshot must still
/// restore the exact engine mix and catch up byte-identically.
#[test]
fn mixed_fleet_heals_tampered_engine_sections() {
    let (mut full, stale_snap, snapshot) = peer_with_snapshots_from(mixed_peer(23), 1, 3);
    let trusted_root = snapshot.root();
    for ((_, kind), (_, section)) in MIXED_FLEET.iter().zip(snapshot.pool_sections()) {
        assert_eq!(
            section.bytes[0],
            kind.tag(),
            "sections must be engine-tagged"
        );
    }

    // occurrence 0 is the manifest; the three pool sections come first
    // in canonical order — corrupt the first page of each engine-tagged
    // section differently
    let first_pages = first_page_occurrences(&snapshot, 0);
    let mut faults = FaultInjector::new(0xE16);
    faults.schedule_all(
        [
            FaultKind::BitFlip,
            FaultKind::Truncate,
            FaultKind::StaleRoot,
        ]
        .into_iter()
        .zip(&first_pages)
        .map(|(kind, &occurrence)| FaultSpec {
            point: InjectionPoint::Provider(0),
            occurrence,
            kind,
        }),
    );
    let mut dishonest = SimProvider::faulty(0, snapshot.clone(), Arc::new(Mutex::new(faults)))
        .with_stale(stale_snap);
    let mut honest = SimProvider::honest(1, snapshot.clone());
    let mut providers: Vec<&mut dyn SectionProvider> = vec![&mut dishonest, &mut honest];

    let policy = RetryPolicy::default();
    let (healed, report) =
        delta_sync(None, &mut providers, trusted_root, &policy).expect("heal succeeds");
    assert_eq!(healed.root(), trusted_root);
    assert_eq!(
        report.quarantined.len(),
        3,
        "every tampered engine section quarantines: {:?}",
        report.quarantined
    );

    let mut node = Node::restore(&healed).expect("healed mixed snapshot restores");
    assert_eq!(node.processor().engine_kinds(), MIXED_FLEET.to_vec());
    let applied =
        catch_up(&mut node, full.node.ledger(), ROUNDS_PER_EPOCH).expect("catch-up verifies");
    assert_eq!(applied, 3);
    assert_same_state(&mut node, &mut full.node, 99);
}

/// Torn-commit recovery over a heterogeneous fleet: a crash mid-commit
/// of an engine-tagged snapshot discards the torn write, restores the
/// last committed mixed-fleet snapshot, and replays to the peer's root.
#[test]
fn mixed_fleet_torn_commit_recovers_and_catches_up() {
    let (mut full, snap3, snap5) = peer_with_snapshots_from(mixed_peer(31), 3, 5);
    let full_root = full.node.checkpoint(99).root;
    let wire_len = snap5.encode().len();

    let mut store = CheckpointStore::new();
    store.commit(&snap3, None).expect("clean commit");
    store
        .commit(
            &snap5,
            Some(CrashPoint::DuringStage {
                offset: wire_len / 2,
            }),
        )
        .unwrap_err();
    let (mut node, outcome, applied) =
        recover_node(&mut store, full.node.ledger(), ROUNDS_PER_EPOCH).expect("node recovers");
    assert!(matches!(outcome, RecoveryOutcome::DiscardedTorn { .. }));
    assert_eq!(applied, 3, "epochs 4..=6 replayed from the peer");
    assert_eq!(node.processor().engine_kinds(), MIXED_FLEET.to_vec());
    assert_eq!(node.checkpoint(99).root, full_root);
    assert_eq!(
        node.processor().export_state(),
        full.node.processor().export_state()
    );

    // staged and marked but not installed: roll forward to the newer
    // engine-tagged snapshot instead
    let mut store = CheckpointStore::new();
    store.commit(&snap3, None).expect("clean commit");
    store
        .commit(&snap5, Some(CrashPoint::BeforeInstall))
        .unwrap_err();
    let (mut node, outcome, applied) =
        recover_node(&mut store, full.node.ledger(), ROUNDS_PER_EPOCH).expect("node recovers");
    assert_eq!(outcome, RecoveryOutcome::RolledForward { epoch: 5 });
    assert_eq!(applied, 1, "only epoch 6 left to replay");
    assert_eq!(node.processor().engine_kinds(), MIXED_FLEET.to_vec());
    assert_eq!(node.checkpoint(99).root, full_root);
}
