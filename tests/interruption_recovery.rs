//! Interruption handling (paper §IV-C): the system must preserve safety
//! and liveness under a silent round leader, a leader proposing invalid
//! blocks, a leader submitting invalid sync inputs, and mainchain
//! rollbacks — recovering via view changes and mass-syncing.

use ammboost_core::config::{FaultPlan, SystemConfig};
use ammboost_core::system::System;

fn cfg(faults: FaultPlan, seed: u64) -> SystemConfig {
    SystemConfig {
        epochs: 4,
        faults,
        seed,
        ..SystemConfig::small_test()
    }
}

/// The clean-run yardstick the fault runs are compared against.
fn clean_report() -> ammboost_core::system::SystemReport {
    System::new(cfg(FaultPlan::default(), 42)).run()
}

#[test]
fn silent_leader_costs_view_change_not_traffic() {
    let clean = clean_report();
    let faulty = System::new(cfg(
        FaultPlan {
            silent_leader_epochs: [2].into(),
            ..FaultPlan::default()
        },
        42,
    ))
    .run();
    assert!(faulty.view_changes >= 1);
    // the same traffic is processed
    assert_eq!(faulty.submitted, clean.submitted);
    assert_eq!(faulty.leftover_queue, 0);
    assert!(faulty.syncs_confirmed >= clean.syncs_confirmed);
}

#[test]
fn invalid_proposal_is_rejected_and_leader_replaced() {
    let faulty = System::new(cfg(
        FaultPlan {
            invalid_proposal_epochs: [2, 3].into(),
            ..FaultPlan::default()
        },
        42,
    ))
    .run();
    assert!(faulty.view_changes >= 2);
    assert_eq!(faulty.leftover_queue, 0);
}

#[test]
fn invalid_sync_recovers_by_mass_sync() {
    let clean = clean_report();
    let faulty = System::new(cfg(
        FaultPlan {
            invalid_sync_epochs: [2].into(),
            ..FaultPlan::default()
        },
        42,
    ))
    .run();
    assert!(faulty.mass_syncs >= 1, "mass-sync must fire");
    // one fewer sync transaction overall (epochs 2+3 share one)
    assert!(faulty.syncs_confirmed < clean.syncs_confirmed);
    // but all payouts still delivered
    assert_eq!(faulty.leftover_queue, 0);
    assert!(faulty.avg_payout_latency_secs > clean.avg_payout_latency_secs);
}

#[test]
fn rollback_recovers_by_mass_sync() {
    let faulty = System::new(cfg(
        FaultPlan {
            rollback_epochs: [2].into(),
            ..FaultPlan::default()
        },
        42,
    ))
    .run();
    assert!(faulty.mass_syncs >= 1);
    assert_eq!(faulty.leftover_queue, 0);
    assert!(faulty.syncs_confirmed >= 3);
}

#[test]
fn back_to_back_faults_still_recover() {
    let faulty = System::new(cfg(
        FaultPlan {
            silent_leader_epochs: [2].into(),
            invalid_sync_epochs: [2, 3].into(),
            rollback_epochs: [4].into(),
            ..FaultPlan::default()
        },
        42,
    ))
    .run();
    assert!(faulty.mass_syncs >= 1);
    assert_eq!(faulty.leftover_queue, 0);
    // state still reached the mainchain in the end
    assert!(faulty.syncs_confirmed >= 1);
    assert!(faulty.avg_payout_latency_secs > 0.0);
}

#[test]
fn worker_panics_are_contained_and_execution_is_identical() {
    // a shard job that panics mid-epoch poisons only its own shard: the
    // shard map rolls it back, re-executes it sequentially, and the run
    // completes with a checkpoint root byte-identical to a clean run.
    // `small_test()`'s ≈ 4 transactions per round always execute inline;
    // the second volume puts ≥ 64 in every round, where the node hands
    // shards to the worker pool on any host with more than one hardware
    // thread, so containment is also checked inside pooled jobs.
    for (daily_volume, per_round) in [(50_000, 1), (1_000_000, 64)] {
        let sharded = |faults: FaultPlan| SystemConfig {
            pools: 4,
            users: 16,
            daily_volume,
            ..cfg(faults, 42)
        };
        let mut clean_sys = System::new(sharded(FaultPlan::default()));
        let clean = clean_sys.run();
        let rounds = clean.epochs * SystemConfig::small_test().rounds_per_epoch;
        assert!(clean.submitted / rounds >= per_round, "{clean:?}");
        let mut faulty_sys = System::new(sharded(FaultPlan {
            worker_panic_points: vec![(0, 1), (1, 3), (3, 2)],
            ..FaultPlan::default()
        }));
        let faulty = faulty_sys.run();
        assert_eq!(
            faulty.worker_panics_contained, 3,
            "every scheduled worker panic must fire and be contained"
        );
        assert_eq!(clean.worker_panics_contained, 0);
        assert_eq!(faulty.submitted, clean.submitted);
        assert_eq!(faulty.accepted, clean.accepted);
        assert_eq!(faulty.rejected, clean.rejected);
        assert_eq!(faulty.leftover_queue, 0);
        let epoch = clean.epochs + 1;
        assert_eq!(
            faulty_sys.checkpoint(epoch).root,
            clean_sys.checkpoint(epoch).root,
            "containment diverged from the clean run"
        );
    }
}

#[test]
fn faults_do_not_change_processed_traffic() {
    // safety: the sidechain's execution is identical with and without
    // sync-layer faults (they only delay mainchain settlement)
    let clean = clean_report();
    let faulty = System::new(cfg(
        FaultPlan {
            invalid_sync_epochs: [2].into(),
            rollback_epochs: [3].into(),
            ..FaultPlan::default()
        },
        42,
    ))
    .run();
    assert_eq!(faulty.submitted, clean.submitted);
    assert_eq!(faulty.accepted, clean.accepted);
    assert_eq!(faulty.rejected, clean.rejected);
}
