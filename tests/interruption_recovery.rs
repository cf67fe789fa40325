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

/// Liveness under each interruption §IV-C handles, alone and all at
/// once in back-to-back epochs: every plan costs the view changes and
/// mass-syncs its faults call for, drains the queue and still confirms
/// state on the mainchain.
#[test]
fn every_fault_plan_drains_the_queue_and_reaches_the_mainchain() {
    let at = |epoch: u64| [epoch].into();
    // (plan, its faults, view changes and mass-syncs it must at least cost)
    let plans = [
        (
            "silent leader",
            FaultPlan {
                silent_leader_epochs: at(2),
                ..FaultPlan::default()
            },
            1,
            0,
        ),
        (
            "invalid proposal",
            FaultPlan {
                invalid_proposal_epochs: at(2),
                ..FaultPlan::default()
            },
            1,
            0,
        ),
        (
            "invalid sync inputs",
            FaultPlan {
                invalid_sync_epochs: at(2),
                ..FaultPlan::default()
            },
            0,
            1,
        ),
        (
            "mainchain rollback",
            FaultPlan {
                rollback_epochs: at(2),
                ..FaultPlan::default()
            },
            0,
            1,
        ),
        (
            "everything at once",
            FaultPlan {
                silent_leader_epochs: at(2),
                invalid_proposal_epochs: at(3),
                invalid_sync_epochs: at(2),
                rollback_epochs: at(3),
            },
            2,
            1,
        ),
    ];
    for (name, faults, view_changes, mass_syncs) in plans {
        let report = System::new(cfg(faults, 42)).run();
        assert!(report.view_changes >= view_changes, "{name}: {report:?}");
        assert!(report.mass_syncs >= mass_syncs, "{name}: {report:?}");
        assert_eq!(report.leftover_queue, 0, "{name}: queue drained");
        assert!(
            report.syncs_confirmed > 0,
            "{name}: state reached the mainchain"
        );
    }
}
