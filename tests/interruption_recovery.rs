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
