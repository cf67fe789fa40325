//! Failure drill: injects every interruption the paper handles (§IV-C) —
//! a silent leader, a leader proposing invalid blocks, invalid sync
//! inputs, and a mainchain rollback — and shows the system recovering via
//! view changes and mass-syncing with no transactions lost.
//!
//! ```sh
//! cargo run --release --example failure_drill
//! ```

use ammboost_core::config::{FaultPlan, SystemConfig};
use ammboost_core::system::System;

fn drill(name: &str, faults: FaultPlan) {
    let mut cfg = SystemConfig::small_test();
    cfg.epochs = 4;
    cfg.faults = faults;
    let report = System::new(cfg).run();
    println!(
        "{name:<28} accepted {:>5}, leftover {:>2}, syncs {:>2}, \
         mass-syncs {:>2}, view-changes {:>2}, payout latency {:.1}s",
        report.accepted,
        report.leftover_queue,
        report.syncs_confirmed,
        report.mass_syncs,
        report.view_changes,
        report.avg_payout_latency_secs,
    );
    assert_eq!(report.leftover_queue, 0, "liveness: queue drained");
    assert!(
        report.syncs_confirmed > 0,
        "liveness: state reached the mainchain"
    );
}

fn main() {
    println!("fault drills (4 epochs each, epoch 2 is faulty):");
    println!();

    drill("baseline (no faults)", FaultPlan::default());
    drill(
        "silent leader",
        FaultPlan {
            silent_leader_epochs: [2].into(),
            ..FaultPlan::default()
        },
    );
    drill(
        "invalid proposal",
        FaultPlan {
            invalid_proposal_epochs: [2].into(),
            ..FaultPlan::default()
        },
    );
    drill(
        "invalid sync inputs",
        FaultPlan {
            invalid_sync_epochs: [2].into(),
            ..FaultPlan::default()
        },
    );
    drill(
        "mainchain rollback",
        FaultPlan {
            rollback_epochs: [2].into(),
            ..FaultPlan::default()
        },
    );
    drill(
        "everything at once",
        FaultPlan {
            silent_leader_epochs: [2].into(),
            invalid_proposal_epochs: [3].into(),
            invalid_sync_epochs: [2].into(),
            rollback_epochs: [3].into(),
        },
    );

    println!();
    println!(
        "every drill drained its queue and reached the mainchain: faults \
         cost view-changes and delayed (mass-)syncs, never safety."
    );
}
