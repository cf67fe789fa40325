//! The sidechain ledger: appends meta- and summary-blocks, validates
//! their chaining, and implements **block suppression** — meta-blocks of
//! an epoch are pruned once that epoch's sync-transaction is confirmed on
//! the mainchain (paper §IV-C "Sidechain pruning"). Summary-blocks are
//! permanent checkpoints.

use crate::block::{MetaBlock, SummaryBlock};
use ammboost_crypto::H256;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Why a block failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockError {
    /// The parent hash does not match the ledger tip.
    BadParent {
        /// Expected tip id.
        expected: H256,
        /// Parent carried by the block.
        got: H256,
    },
    /// Epoch/round does not follow the tip.
    BadSequence {
        /// Message describing the violation.
        detail: String,
    },
    /// The transaction Merkle root is inconsistent with the block body.
    BadTxRoot,
    /// A summary references meta-blocks that are not the epoch's blocks.
    BadMetaRefs,
    /// Pruning requested for an epoch with no summary block.
    NoSummaryForEpoch(u64),
}

impl std::fmt::Display for BlockError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlockError::BadParent { expected, got } => {
                write!(f, "bad parent: expected {expected}, got {got}")
            }
            BlockError::BadSequence { detail } => write!(f, "bad sequence: {detail}"),
            BlockError::BadTxRoot => write!(f, "tx merkle root mismatch"),
            BlockError::BadMetaRefs => write!(f, "summary references wrong meta-blocks"),
            BlockError::NoSummaryForEpoch(e) => {
                write!(f, "cannot prune epoch {e}: no summary block")
            }
        }
    }
}

impl std::error::Error for BlockError {}

/// The persistent state of a [`Ledger`], exported for snapshotting and
/// re-imported on restore. Meta-blocks are keyed by epoch in sorted order
/// so the same ledger always exports byte-identical state.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LedgerState {
    /// Unpruned meta-blocks, `(epoch, blocks)` ascending by epoch.
    pub meta: Vec<(u64, Vec<MetaBlock>)>,
    /// Permanent summary blocks, in epoch order.
    pub summaries: Vec<SummaryBlock>,
    /// Current tip id.
    pub tip: H256,
    /// Epoch the tip belongs to.
    pub tip_epoch: u64,
    /// Round of the tip meta-block (`None` right after a summary).
    pub tip_round: Option<u64>,
    /// Current (unpruned) size in bytes.
    pub current_bytes: u64,
    /// Peak size ever reached.
    pub peak_bytes: u64,
    /// Total bytes reclaimed by pruning.
    pub pruned_bytes_total: u64,
}

/// The sidechain ledger.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Ledger {
    /// Unpruned meta-blocks, keyed by epoch.
    meta: BTreeMap<u64, Vec<MetaBlock>>,
    /// Permanent summary blocks, in epoch order.
    summaries: Vec<SummaryBlock>,
    tip: H256,
    tip_epoch: u64,
    tip_round: Option<u64>,
    current_bytes: u64,
    peak_bytes: u64,
    pruned_bytes_total: u64,
}

impl Ledger {
    /// A fresh ledger whose genesis references the mainchain block that
    /// deployed TokenBank (paper Fig. 2).
    pub fn new(genesis_ref: H256) -> Ledger {
        Ledger {
            tip: genesis_ref,
            tip_epoch: 1,
            tip_round: None,
            ..Ledger::default()
        }
    }

    /// Current tip block id.
    pub fn tip(&self) -> H256 {
        self.tip
    }

    /// Current (unpruned) ledger size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.current_bytes
    }

    /// The largest size the ledger ever reached (Table XI's
    /// "max sc growth").
    pub fn peak_bytes(&self) -> u64 {
        self.peak_bytes
    }

    /// Total bytes reclaimed by pruning so far.
    pub fn pruned_bytes(&self) -> u64 {
        self.pruned_bytes_total
    }

    /// Number of unpruned meta-blocks.
    pub fn meta_block_count(&self) -> usize {
        self.meta.values().map(|v| v.len()).sum()
    }

    /// The permanent summary blocks.
    pub fn summaries(&self) -> &[SummaryBlock] {
        &self.summaries
    }

    /// Unpruned meta-blocks of an epoch.
    pub fn meta_blocks(&self, epoch: u64) -> &[MetaBlock] {
        self.meta.get(&epoch).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Every epoch that still holds unpruned meta-blocks with those
    /// blocks, ascending by epoch — [`LedgerState::meta`] by reference.
    pub fn meta_by_epoch(&self) -> impl ExactSizeIterator<Item = (u64, &[MetaBlock])> {
        self.meta.iter().map(|(e, b)| (*e, b.as_slice()))
    }

    /// Epoch the tip belongs to.
    pub fn tip_epoch(&self) -> u64 {
        self.tip_epoch
    }

    /// Round of the tip meta-block (`None` right after a summary).
    pub fn tip_round(&self) -> Option<u64> {
        self.tip_round
    }

    /// Epochs that still hold unpruned meta-blocks, ascending.
    pub fn meta_epochs(&self) -> Vec<u64> {
        self.meta.keys().copied().collect()
    }

    /// `true` when `epoch` has a sealed summary block.
    pub fn has_summary(&self, epoch: u64) -> bool {
        self.summaries.iter().any(|s| s.epoch == epoch)
    }

    /// Epoch of the latest sealed summary (0 when none).
    pub fn last_summary_epoch(&self) -> u64 {
        self.summaries.last().map(|s| s.epoch).unwrap_or(0)
    }

    /// Exports the ledger's full state for snapshotting.
    pub fn export_state(&self) -> LedgerState {
        LedgerState {
            meta: self.meta.iter().map(|(e, b)| (*e, b.clone())).collect(),
            summaries: self.summaries.clone(),
            tip: self.tip,
            tip_epoch: self.tip_epoch,
            tip_round: self.tip_round,
            current_bytes: self.current_bytes,
            peak_bytes: self.peak_bytes,
            pruned_bytes_total: self.pruned_bytes_total,
        }
    }

    /// Reconstructs a ledger from exported state. The restored ledger
    /// accepts exactly the blocks the exported one would have.
    pub fn from_state(state: LedgerState) -> Ledger {
        Ledger {
            meta: state.meta.into_iter().collect(),
            summaries: state.summaries,
            tip: state.tip,
            tip_epoch: state.tip_epoch,
            tip_round: state.tip_round,
            current_bytes: state.current_bytes,
            peak_bytes: state.peak_bytes,
            pruned_bytes_total: state.pruned_bytes_total,
        }
    }

    /// Validates a meta-block against the tip (the `VerifyBlock` predicate
    /// for `btype = meta`).
    ///
    /// # Errors
    /// Returns the specific chaining/content violation.
    #[doc(alias = "VerifyBlock")]
    pub fn verify_meta(&self, block: &MetaBlock) -> Result<(), BlockError> {
        if block.parent != self.tip {
            return Err(BlockError::BadParent {
                expected: self.tip,
                got: block.parent,
            });
        }
        if block.epoch != self.tip_epoch {
            return Err(BlockError::BadSequence {
                detail: format!(
                    "meta-block epoch {} but ledger is in epoch {}",
                    block.epoch, self.tip_epoch
                ),
            });
        }
        let expected_round = self.tip_round.map_or(0, |r| r + 1);
        if block.round != expected_round {
            return Err(BlockError::BadSequence {
                detail: format!(
                    "meta-block round {} but expected {}",
                    block.round, expected_round
                ),
            });
        }
        if MetaBlock::compute_tx_root(&block.txs) != block.tx_root {
            return Err(BlockError::BadTxRoot);
        }
        Ok(())
    }

    /// Appends a validated meta-block.
    ///
    /// # Errors
    /// Propagates [`Ledger::verify_meta`] failures.
    pub fn append_meta(&mut self, block: MetaBlock) -> Result<(), BlockError> {
        self.verify_meta(&block)?;
        self.tip = block.id();
        self.tip_round = Some(block.round);
        self.add_bytes(block.size_bytes() as u64);
        self.meta.entry(block.epoch).or_default().push(block);
        Ok(())
    }

    /// Validates a summary-block for the current epoch (the `VerifyBlock`
    /// predicate for `btype = summary`): it must chain to the tip and
    /// reference exactly the epoch's meta-blocks in order.
    ///
    /// # Errors
    /// Returns the specific violation.
    #[doc(alias = "VerifyBlock")]
    pub fn verify_summary(&self, block: &SummaryBlock) -> Result<(), BlockError> {
        if block.parent != self.tip {
            return Err(BlockError::BadParent {
                expected: self.tip,
                got: block.parent,
            });
        }
        if block.epoch != self.tip_epoch {
            return Err(BlockError::BadSequence {
                detail: format!(
                    "summary epoch {} but ledger is in epoch {}",
                    block.epoch, self.tip_epoch
                ),
            });
        }
        let metas = self.meta_blocks(block.epoch);
        let expected: Vec<H256> = metas.iter().map(|m| m.id()).collect();
        if block.meta_refs != expected {
            return Err(BlockError::BadMetaRefs);
        }
        Ok(())
    }

    /// Appends a validated summary-block, closing the epoch: subsequent
    /// meta-blocks belong to the next epoch, round 0.
    ///
    /// # Errors
    /// Propagates [`Ledger::verify_summary`] failures.
    pub fn append_summary(&mut self, block: SummaryBlock) -> Result<(), BlockError> {
        self.verify_summary(&block)?;
        self.tip = block.id();
        self.tip_epoch = block.epoch + 1;
        self.tip_round = None;
        self.add_bytes(block.size_bytes() as u64);
        self.summaries.push(block);
        Ok(())
    }

    /// Prunes (suppresses) the meta-blocks of `epoch`. Callers invoke this
    /// only after the epoch's sync-transaction is confirmed on the
    /// mainchain. Returns the bytes reclaimed.
    ///
    /// # Errors
    /// Refuses when the epoch has no summary block yet — pruning before
    /// the summary exists would destroy the only record of the epoch.
    #[doc(alias = "Prune")]
    pub fn prune_epoch(&mut self, epoch: u64) -> Result<u64, BlockError> {
        if !self.summaries.iter().any(|s| s.epoch == epoch) {
            return Err(BlockError::NoSummaryForEpoch(epoch));
        }
        let freed: u64 = self
            .meta
            .remove(&epoch)
            .map(|blocks| blocks.iter().map(|b| b.size_bytes() as u64).sum())
            .unwrap_or(0);
        self.current_bytes -= freed;
        self.pruned_bytes_total += freed;
        Ok(freed)
    }

    fn add_bytes(&mut self, bytes: u64) {
        self.current_bytes += bytes;
        self.peak_bytes = self.peak_bytes.max(self.current_bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{ExecutedTx, TxEffect};
    use crate::summary::{PayoutEntry, PoolUpdate};
    use ammboost_amm::tx::{AmmTx, SwapIntent, SwapTx};
    use ammboost_amm::types::PoolId;
    use ammboost_crypto::Address;

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

    fn summary_for(ledger: &Ledger, epoch: u64) -> SummaryBlock {
        SummaryBlock {
            epoch,
            parent: ledger.tip(),
            meta_refs: ledger.meta_blocks(epoch).iter().map(|m| m.id()).collect(),
            payouts: vec![PayoutEntry {
                user: Address::from_index(1),
                amount0: 1,
                amount1: 2,
            }],
            positions: vec![],
            pools: vec![PoolUpdate {
                pool: PoolId(0),
                reserve0: 0,
                reserve1: 0,
            }],
        }
    }

    fn ledger_with_epoch() -> Ledger {
        let mut l = Ledger::new(H256::hash(b"genesis-mainchain-ref"));
        for round in 0..3 {
            let b = MetaBlock::new(1, round, l.tip(), vec![tx(round)]);
            l.append_meta(b).unwrap();
        }
        l
    }

    #[test]
    fn append_and_verify_chain() {
        let l = ledger_with_epoch();
        assert_eq!(l.meta_block_count(), 3);
        assert!(l.size_bytes() > 3000);
        // `VerifyBlock` alone: an empty block on the tip verifies
        assert_eq!(
            l.verify_meta(&MetaBlock::new(1, 3, l.tip(), vec![])),
            Ok(())
        );
    }

    #[test]
    fn wrong_parent_rejected() {
        let mut l = ledger_with_epoch();
        let bad = MetaBlock::new(1, 3, H256::hash(b"fork"), vec![tx(9)]);
        assert!(matches!(
            l.verify_meta(&bad),
            Err(BlockError::BadParent { .. })
        ));
        assert!(matches!(
            l.append_meta(bad),
            Err(BlockError::BadParent { .. })
        ));
    }

    #[test]
    fn wrong_round_rejected() {
        let mut l = ledger_with_epoch();
        let bad = MetaBlock::new(1, 5, l.tip(), vec![tx(9)]);
        assert!(matches!(
            l.append_meta(bad),
            Err(BlockError::BadSequence { .. })
        ));
    }

    #[test]
    fn tampered_tx_root_rejected() {
        let mut l = ledger_with_epoch();
        let mut bad = MetaBlock::new(1, 3, l.tip(), vec![tx(9)]);
        bad.tx_root = H256::hash(b"forged");
        assert_eq!(l.append_meta(bad), Err(BlockError::BadTxRoot));
    }

    #[test]
    fn summary_closes_epoch() {
        let mut l = ledger_with_epoch();
        let s = summary_for(&l, 1);
        l.append_summary(s).unwrap();
        // next meta-block starts epoch 2, round 0
        let next = MetaBlock::new(2, 0, l.tip(), vec![tx(1)]);
        l.append_meta(next).unwrap();
        assert_eq!(l.summaries().len(), 1);
    }

    #[test]
    fn summary_with_wrong_refs_rejected() {
        let mut l = ledger_with_epoch();
        let mut s = summary_for(&l, 1);
        s.meta_refs.pop();
        assert_eq!(l.append_summary(s), Err(BlockError::BadMetaRefs));
    }

    #[test]
    fn prune_requires_summary() {
        let mut l = ledger_with_epoch();
        assert_eq!(l.prune_epoch(1), Err(BlockError::NoSummaryForEpoch(1)));
        let s = summary_for(&l, 1);
        l.append_summary(s).unwrap();
        let before = l.size_bytes();
        let freed = l.prune_epoch(1).unwrap();
        assert!(freed > 3000);
        assert_eq!(l.size_bytes(), before - freed);
        assert_eq!(l.meta_block_count(), 0);
        assert_eq!(l.pruned_bytes(), freed);
        // summaries survive pruning
        assert_eq!(l.summaries().len(), 1);
    }

    #[test]
    fn export_restore_roundtrip() {
        let mut l = ledger_with_epoch();
        let s = summary_for(&l, 1);
        l.append_summary(s).unwrap();
        let state = l.export_state();
        assert_eq!(state, l.export_state(), "export is deterministic");
        let mut restored = Ledger::from_state(state);
        assert_eq!(restored.tip(), l.tip());
        assert_eq!(restored.size_bytes(), l.size_bytes());
        assert_eq!(restored.meta_epochs(), l.meta_epochs());
        // both ledgers accept the same continuation
        let next = MetaBlock::new(2, 0, l.tip(), vec![tx(5)]);
        l.append_meta(next.clone()).unwrap();
        restored.append_meta(next).unwrap();
        assert_eq!(restored.export_state(), l.export_state());
    }

    #[test]
    fn summary_bookkeeping_accessors() {
        let mut l = ledger_with_epoch();
        assert!(!l.has_summary(1));
        assert_eq!(l.last_summary_epoch(), 0);
        let s = summary_for(&l, 1);
        l.append_summary(s).unwrap();
        assert!(l.has_summary(1));
        assert_eq!(l.last_summary_epoch(), 1);
        assert_eq!(l.meta_epochs(), vec![1]);
        l.prune_epoch(1).unwrap();
        assert!(l.meta_epochs().is_empty());
    }

    #[test]
    fn peak_tracks_maximum() {
        let mut l = ledger_with_epoch();
        let s = summary_for(&l, 1);
        l.append_summary(s).unwrap();
        let peak_before_prune = l.peak_bytes();
        l.prune_epoch(1).unwrap();
        assert_eq!(l.peak_bytes(), peak_before_prune, "peak is sticky");
        assert!(l.size_bytes() < peak_before_prune);
    }

    #[test]
    fn double_prune_is_noop() {
        let mut l = ledger_with_epoch();
        let s = summary_for(&l, 1);
        l.append_summary(s).unwrap();
        l.prune_epoch(1).unwrap();
        assert_eq!(l.prune_epoch(1).unwrap(), 0);
    }
}
