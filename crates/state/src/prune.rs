//! Snapshot-aware retention pruning.
//!
//! The sidechain already suppresses an epoch's meta-blocks once its sync
//! confirms on the mainchain (paper §IV-C). A snapshot strengthens the
//! invariant: any epoch covered by **both** a sealed summary block and a
//! committed snapshot needs no raw history at all — a restarting node
//! restores from the snapshot instead of replaying. [`RetentionPolicy`]
//! expresses how much raw history to keep beyond that point, and
//! [`prune_to_snapshot`] applies it, reporting the bytes reclaimed.

use ammboost_sidechain::ledger::Ledger;

/// How much raw meta-block history to retain behind the latest snapshot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RetentionPolicy {
    /// Number of fully-covered epochs whose meta-blocks are kept anyway
    /// (a safety margin for auditors replaying recent history). `0`
    /// (the default) prunes everything the snapshot covers. The margin is
    /// node-local: a snapshot never commits those blocks.
    pub keep_epochs: u64,
}

/// What a pruning pass reclaimed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PruneReport {
    /// Epochs whose meta-blocks were dropped in this pass.
    pub epochs_pruned: u64,
    /// Bytes reclaimed in this pass.
    pub reclaimed_bytes: u64,
    /// The cutoff applied: meta-blocks of epochs `<=` this were eligible.
    pub cutoff_epoch: u64,
}

/// Drops the meta-blocks of every epoch that is covered by a sealed
/// summary **and** by the snapshot taken at `snapshot_epoch`, minus the
/// policy's safety margin. Epochs without a summary are never touched (a
/// summary-less epoch has no durable record yet). With no margin and a
/// snapshot at the last summary, the ledger is left as its snapshot
/// committed it ([`Ledger::retained_meta`]).
pub fn prune_to_snapshot(
    ledger: &mut Ledger,
    snapshot_epoch: u64,
    policy: RetentionPolicy,
) -> PruneReport {
    let cutoff = snapshot_epoch
        .min(ledger.last_summary_epoch())
        .saturating_sub(policy.keep_epochs);
    let (epochs_pruned, reclaimed_bytes) = ledger.prune_covered(cutoff);
    PruneReport {
        epochs_pruned,
        reclaimed_bytes,
        cutoff_epoch: cutoff,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ammboost_amm::tx::{AmmTx, SwapIntent, SwapTx};
    use ammboost_amm::types::PoolId;
    use ammboost_crypto::{Address, H256};
    use ammboost_sidechain::block::{ExecutedTx, MetaBlock, SummaryBlock, TxEffect};
    use ammboost_sidechain::summary::PoolUpdate;

    fn tx(i: u64) -> ExecutedTx {
        ExecutedTx {
            tx: AmmTx::Swap(SwapTx {
                user: Address::from_index(i),
                pool: PoolId(0),
                zero_for_one: true,
                intent: SwapIntent::ExactInput {
                    amount_in: 10,
                    min_amount_out: 0,
                },
                sqrt_price_limit: None,
                deadline_round: 100,
            }),
            wire_size: 1000,
            effect: TxEffect::Swap {
                amount_in: 10,
                amount_out: 9,
                zero_for_one: true,
            },
        }
    }

    /// A ledger with `epochs` closed epochs of 2 meta-blocks each.
    fn ledger_with(epochs: u64) -> Ledger {
        let mut l = Ledger::new(H256::hash(b"genesis"));
        for e in 1..=epochs {
            for round in 0..2 {
                let b = MetaBlock::new(e, round, l.tip(), vec![tx(e * 10 + round)]);
                l.append_meta(b).unwrap();
            }
            let s = SummaryBlock {
                epoch: e,
                parent: l.tip(),
                meta_refs: l.meta_blocks(e).iter().map(|m| m.id()).collect(),
                payouts: vec![],
                positions: vec![],
                pools: vec![PoolUpdate {
                    pool: PoolId(0),
                    reserve0: 0,
                    reserve1: 0,
                }],
            };
            l.append_summary(s).unwrap();
        }
        l
    }

    #[test]
    fn prunes_everything_snapshot_covers() {
        let mut l = ledger_with(4);
        let before = l.size_bytes();
        let report = prune_to_snapshot(&mut l, 4, RetentionPolicy::default());
        assert_eq!(report.epochs_pruned, 4);
        assert!(report.reclaimed_bytes > 0);
        assert_eq!(l.size_bytes(), before - report.reclaimed_bytes);
        assert!(l.meta_epochs().is_empty());
        // permanent summaries survive
        assert_eq!(l.summaries().len(), 4);
    }

    #[test]
    fn keep_epochs_retains_a_margin() {
        let mut l = ledger_with(5);
        let report = prune_to_snapshot(&mut l, 5, RetentionPolicy { keep_epochs: 2 });
        assert_eq!(report.cutoff_epoch, 3);
        assert_eq!(report.epochs_pruned, 3);
        assert_eq!(l.meta_epochs(), vec![4, 5]);
    }

    #[test]
    fn snapshot_epoch_bounds_the_cutoff() {
        // snapshot only covers epoch 2; epochs 3..5 keep their history
        let mut l = ledger_with(5);
        let report = prune_to_snapshot(&mut l, 2, RetentionPolicy::default());
        assert_eq!(report.epochs_pruned, 2);
        assert_eq!(l.meta_epochs(), vec![3, 4, 5]);
    }

    #[test]
    fn summary_less_epoch_is_never_pruned() {
        // epoch 3 is still open (no summary yet): a snapshot claiming to
        // cover it must not destroy its only record
        let mut l = ledger_with(2);
        let open = MetaBlock::new(3, 0, l.tip(), vec![tx(999)]);
        l.append_meta(open).unwrap();
        let report = prune_to_snapshot(&mut l, 3, RetentionPolicy::default());
        assert_eq!(report.epochs_pruned, 2, "only the sealed epochs go");
        assert_eq!(l.meta_epochs(), vec![3]);
    }

    #[test]
    fn second_pass_is_a_noop() {
        let mut l = ledger_with(3);
        prune_to_snapshot(&mut l, 3, RetentionPolicy::default());
        let again = prune_to_snapshot(&mut l, 3, RetentionPolicy::default());
        assert_eq!(again.epochs_pruned, 0);
        assert_eq!(again.reclaimed_bytes, 0);
    }
}
