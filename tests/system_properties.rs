//! Property-based integration tests: random volumes, mixes, epoch shapes
//! and fault plans must never violate the system's core invariants
//! (accounting consistency, queue drain, payout delivery, pruning
//! safety), and the latency means every report quotes must equal the
//! plain sample mean.

use ammboost_core::config::{FaultPlan, SystemConfig};
use ammboost_core::system::System;
use ammboost_sim::metrics::LatencyStats;
use ammboost_sim::time::SimDuration;
use ammboost_workload::TrafficMix;
use proptest::prelude::*;

fn arb_mix() -> impl Strategy<Value = TrafficMix> {
    (50.0..95.0f64, 1.0..20.0f64, 1.0..20.0f64, 1.0..20.0f64)
        .prop_map(|(s, m, b, c)| TrafficMix::from_tuple((s, m, b, c)))
}

fn arb_faults() -> impl Strategy<Value = FaultPlan> {
    (
        proptest::collection::btree_set(2u64..4, 0..2),
        proptest::collection::btree_set(2u64..4, 0..2),
        proptest::collection::btree_set(2u64..4, 0..2),
    )
        .prop_map(|(silent, bad_sync, rollback)| FaultPlan {
            silent_leader_epochs: silent,
            invalid_proposal_epochs: Default::default(),
            invalid_sync_epochs: bad_sync,
            rollback_epochs: rollback,
        })
}

proptest! {
    // full-system runs are expensive: keep the case count modest
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn invariants_hold_for_random_configs(
        volume in 20_000u64..400_000,
        mix in arb_mix(),
        rounds in 3u64..8,
        seed in 0u64..1000,
        faults in arb_faults(),
    ) {
        let cfg = SystemConfig {
            daily_volume: volume,
            mix,
            rounds_per_epoch: rounds,
            epochs: 4,
            faults,
            seed,
            ..SystemConfig::small_test()
        };
        let mut sys = System::new(cfg);
        let report = sys.run();

        // accounting closes
        prop_assert_eq!(report.accepted + report.rejected, report.submitted);
        prop_assert_eq!(report.leftover_queue, 0);
        prop_assert_eq!(report.mainchain_gas, report.deposit_gas + report.sync_gas);

        // liveness: state reached the mainchain and payouts flowed
        prop_assert!(report.syncs_confirmed >= 1);
        if report.accepted > 0 {
            prop_assert!(report.avg_payout_latency_secs > 0.0);
        }

        // pruning safety: whatever remains is at most peak
        prop_assert!(report.sidechain_bytes <= report.sidechain_peak_bytes);
        // permanent summaries exist for every epoch
        prop_assert!(sys.ledger().summaries().len() as u64 >= report.epochs);

        // TokenBank is ahead of all processed epochs
        prop_assert!(sys.bank().expected_epoch() > report.epochs);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    // `LatencyStats` keeps a count and a sum; its mean must be the one
    // the old every-sample `Vec` computed, bit for bit
    #[test]
    fn latency_mean_matches_the_sample_mean(
        wide in proptest::collection::vec(any::<u64>(), 0..300),
        narrow in proptest::collection::vec(0u64..10_000_000, 0..300),
    ) {
        for samples in [wide, narrow] {
            let mut stats = LatencyStats::new();
            for &ms in &samples {
                stats.record(SimDuration::from_millis(ms));
            }
            let expected = if samples.is_empty() {
                0.0
            } else {
                let sum: u128 = samples.iter().map(|&x| x as u128).sum();
                sum as f64 / samples.len() as f64 / 1000.0
            };
            prop_assert_eq!(stats.count(), samples.len());
            prop_assert_eq!(stats.mean_secs().to_bits(), expected.to_bits());
        }
    }
}
