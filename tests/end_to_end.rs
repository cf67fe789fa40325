//! End-to-end integration: full ammBoost lifecycles — deposits on the
//! mainchain, trading on the sidechain, TSQC-authenticated sync, payouts
//! from TokenBank — under both deposit policies. The tests check what a
//! run reports and leaves behind: traffic accounted and drained, an
//! epoch synced for every epoch run, latencies ordered, synced
//! meta-blocks pruned, mainchain gas split into its deposit and sync
//! charges, runs reproducible per seed, and every sync certificate
//! verifiable from public state. No test here reads a token balance:
//! token conservation across the two chains is ROADMAP item 26.

use ammboost_core::config::{DepositPolicy, SystemConfig};
use ammboost_core::system::System;
use ammboost_crypto::H256;
use ammboost_mainchain::contracts::token_bank::SyncInput;

fn small(seed: u64) -> SystemConfig {
    SystemConfig {
        seed,
        ..SystemConfig::small_test()
    }
}

#[test]
fn full_lifecycle_delivers_payouts() {
    let mut sys = System::new(small(1));
    let report = sys.run();

    assert!(report.accepted > 50, "too little traffic: {report:?}");
    assert_eq!(report.leftover_queue, 0, "queue must drain");
    assert_eq!(report.accepted + report.rejected, report.submitted);
    // every epoch synced (+1 drain sync at most)
    assert!(report.syncs_confirmed >= report.epochs);
    // every accepted transaction eventually reached payout
    assert!(report.avg_payout_latency_secs > 0.0);
    // payouts wait for the epoch end: payout latency exceeds sc latency
    // by a sizable margin
    assert!(report.avg_payout_latency_secs > report.avg_sc_latency_secs + 5.0);
}

#[test]
fn token_bank_is_the_single_source_of_truth() {
    let mut sys = System::new(small(2));
    let report = sys.run();
    let bank = sys.bank();
    // bank state advanced one epoch past the last sync
    assert!(bank.expected_epoch() > report.epochs);
    // sidechain's permanent summaries cover every epoch
    assert!(sys.ledger().summaries().len() as u64 >= report.epochs);
    // all temporary meta-blocks of synced epochs were pruned
    assert!(report.sidechain_pruned_bytes > 0);
    assert!(
        sys.ledger().meta_block_count() < 10,
        "stale meta-blocks kept"
    );
}

#[test]
fn per_epoch_deposits_also_work() {
    let mut cfg = small(3);
    cfg.deposit_policy = DepositPolicy::PerEpoch;
    let mut sys = System::new(cfg);
    let report = sys.run();
    assert_eq!(report.leftover_queue, 0);
    assert!(report.syncs_confirmed >= report.epochs);
    assert!(report.deposit_gas > 0);
}

#[test]
fn mainchain_gas_split_is_consistent() {
    let mut sys = System::new(small(4));
    let report = sys.run();
    // chain-accounted gas equals the sum of deposit-side and sync-side
    // charges (all confirmed)
    assert_eq!(
        report.mainchain_gas,
        report.deposit_gas + report.sync_gas,
        "unaccounted mainchain gas"
    );
}

#[test]
fn reports_are_reproducible_across_runs() {
    let a = System::new(small(5)).run();
    let b = System::new(small(5)).run();
    assert_eq!(a.accepted, b.accepted);
    assert_eq!(a.mainchain_gas, b.mainchain_gas);
    assert_eq!(a.mainchain_growth_bytes, b.mainchain_growth_bytes);
    assert_eq!(a.sidechain_peak_bytes, b.sidechain_peak_bytes);
    assert_eq!(a.avg_payout_latency_secs, b.avg_payout_latency_secs);
}

#[test]
fn different_seeds_give_different_traffic() {
    let a = System::new(small(6)).run();
    let b = System::new(small(7)).run();
    // same volumes, different draws
    assert_eq!(a.submitted, b.submitted);
    assert_ne!(a.mainchain_gas, b.mainchain_gas);
}

#[test]
fn run_certificates_verify_through_the_byte_slice_api() {
    // `System::run` certifies and the bank verifies over a streamed
    // digest; the same certificates must hold for a verifier that
    // materialises the ABI payload and uses the byte-slice API.
    let mut sys = System::new(small(7));
    let report = sys.run();
    let certs = sys.sync_certificates();
    assert_eq!(
        certs.len() as u64,
        report.epochs + 1,
        "one per epoch + the drain"
    );

    // what the committee certified for each regular epoch, rebuilt from
    // public state: the epoch's sealed summary, and the key that sync
    // recorded — the one the next certificate was issued under
    for (summary, pair) in sys.ledger().summaries().iter().zip(certs.windows(2)) {
        let ((vk, qc), (next_vk, _)) = (&pair[0], &pair[1]);
        assert_eq!(qc.epoch, summary.epoch);
        let input = SyncInput {
            epoch: summary.epoch,
            payouts: summary.payouts.clone(),
            positions: summary.positions.clone(),
            pools: summary.pools.clone(),
            next_vk: *next_vk,
        };
        let payload = input.abi_payload();
        assert_eq!(qc.payload_hash, H256::hash(&payload));
        assert!(qc.verify(vk, &payload));
        // the audit list names exactly the 2f + 2 combined shares
        assert_eq!(qc.signers, vec![1, 2, 3, 4]);
    }
}
