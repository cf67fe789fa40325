//! The sidechain ledger: appends meta- and summary-blocks, validates
//! their chaining, and implements **block suppression** — meta-blocks of
//! an epoch are pruned once that epoch's sync-transaction is confirmed on
//! the mainchain (paper §IV-C "Sidechain pruning"). Summary-blocks are
//! permanent checkpoints.
//!
//! A meta-block is appended as a [`VerifiedMeta`]: the miner's
//! [`MetaBlock::seal`] or a receiver's [`Ledger::verify_meta`] has hashed
//! its body once, so [`Ledger::append`] checks only where it goes in the
//! chain. [`Ledger::append_meta`] verifies and appends in one call.

use crate::block::{MetaBlock, SummaryBlock, VerifiedMeta};
use ammboost_crypto::H256;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::OnceLock;

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

/// Why an exported [`LedgerState`] is not a ledger [`Ledger::from_state`]
/// can rebuild. A snapshot's ledger section decodes to a `LedgerState`;
/// these are the ways its fields can contradict each other.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LedgerStateError {
    /// Summary `index` seals `epoch`, but the summaries must seal epochs
    /// 1, 2, 3, … in order, so it should seal `expected`.
    SummaryOutOfSequence {
        /// Position of the summary in the list.
        index: usize,
        /// The epoch it seals.
        epoch: u64,
        /// The epoch its position requires.
        expected: u64,
    },
    /// A meta-block outside the open epoch. One of an epoch a summary
    /// already covers is history that retention drops; one past the open
    /// epoch cannot exist yet.
    MetaOutsideOpenEpoch {
        /// The block's epoch.
        epoch: u64,
        /// The open epoch: the one after the last summary.
        open_epoch: u64,
    },
    /// A genesis reference beside blocks, whose last one is the tip, or
    /// none for a ledger that holds no block.
    MisplacedGenesis,
    /// `current_bytes` is not the size of the summaries plus the retained
    /// meta-blocks.
    SizeMismatch {
        /// The size the state declares.
        declared: u64,
        /// The size its blocks add up to.
        computed: u64,
    },
}

impl std::fmt::Display for LedgerStateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LedgerStateError::SummaryOutOfSequence {
                index,
                epoch,
                expected,
            } => write!(
                f,
                "summary {index} seals epoch {epoch}, expected {expected}"
            ),
            LedgerStateError::MetaOutsideOpenEpoch { epoch, open_epoch } => write!(
                f,
                "meta-block of epoch {epoch} outside the open epoch {open_epoch}"
            ),
            LedgerStateError::MisplacedGenesis => {
                write!(
                    f,
                    "genesis reference present beside blocks or missing without"
                )
            }
            LedgerStateError::SizeMismatch { declared, computed } => write!(
                f,
                "ledger declares {declared} bytes, its blocks add up to {computed}"
            ),
        }
    }
}

impl std::error::Error for LedgerStateError {}

/// The persistent state of a [`Ledger`]. Meta-blocks are keyed by epoch
/// in sorted order, so the same ledger always exports byte-identical
/// state.
///
/// [`Ledger::export_state`] exports everything the node holds, including
/// the meta-blocks of summarised epochs its retention margin still keeps.
/// [`Ledger::from_state`] accepts only the ledger as retention leaves it
/// ([`Ledger::retained_meta`], [`Ledger::retained_bytes`]), which is what
/// a snapshot commits.
///
/// What follows from the blocks is not stored: the tip is the last
/// block's id, its epoch the one after the last summary, its round the
/// last meta-block's. Nor is the peak size, which records when this node
/// pruned, not what the ledger holds.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LedgerState {
    /// Unpruned meta-blocks, `(epoch, blocks)` ascending by epoch.
    pub meta: Vec<(u64, Vec<MetaBlock>)>,
    /// Permanent summary blocks, in epoch order.
    pub summaries: Vec<SummaryBlock>,
    /// The genesis reference: the tip while the ledger holds no block.
    pub genesis: Option<H256>,
    /// Current (unpruned) size in bytes.
    pub current_bytes: u64,
    /// Total bytes reclaimed by pruning.
    pub pruned_bytes_total: u64,
}

/// The byte counters of a [`Ledger`] as retention leaves it: the
/// meta-blocks of summarised epochs counted as pruned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetainedBytes {
    /// The summaries plus the open epoch's meta-blocks.
    pub current: u64,
    /// Everything pruned so far plus the summarised epochs' meta-blocks
    /// this node still holds.
    pub pruned_total: u64,
}

/// The open epoch of a ledger whose summaries are `summaries`: the one
/// after the last summary. Its meta-blocks are the only ones retention
/// keeps, since every earlier epoch is covered by a summary.
fn open_epoch_after(summaries: &[SummaryBlock]) -> u64 {
    summaries.last().map_or(0, |s| s.epoch) + 1
}

/// The sidechain ledger.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Ledger {
    /// Unpruned meta-blocks, keyed by epoch.
    meta: BTreeMap<u64, Vec<MetaBlock>>,
    /// Permanent summary blocks, in epoch order.
    summaries: Vec<SummaryBlock>,
    /// The tip id. A ledger restored at an epoch boundary derives it from
    /// its last summary on first use: that id hashes the whole summary,
    /// megabytes at 50 000 users, which a fast sync need not wait for.
    tip: OnceLock<H256>,
    /// Round of the tip meta-block (`None` right after a summary).
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
            meta: BTreeMap::new(),
            summaries: Vec::new(),
            tip: OnceLock::from(genesis_ref),
            tip_round: None,
            current_bytes: 0,
            peak_bytes: 0,
            pruned_bytes_total: 0,
        }
    }

    /// Current tip block id.
    pub fn tip(&self) -> H256 {
        // only a ledger restored at an epoch boundary leaves it unset,
        // and that ledger holds a summary
        *self.tip.get_or_init(|| {
            self.summaries
                .last()
                .expect("an unset tip follows a summary")
                .id()
        })
    }

    /// The genesis reference while the ledger holds no block, when it is
    /// the tip; `None` once it holds one.
    pub fn genesis(&self) -> Option<H256> {
        (self.summaries.is_empty() && self.meta.is_empty()).then(|| self.tip())
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

    /// Epoch the tip belongs to: the open epoch.
    pub fn tip_epoch(&self) -> u64 {
        self.open_epoch()
    }

    /// Epochs that still hold unpruned meta-blocks, ascending.
    pub fn meta_epochs(&self) -> Vec<u64> {
        self.meta.keys().copied().collect()
    }

    /// `true` when `epoch` has a sealed summary block.
    fn has_summary(&self, epoch: u64) -> bool {
        self.summaries.iter().any(|s| s.epoch == epoch)
    }

    /// Epoch of the latest sealed summary (0 when none).
    pub fn last_summary_epoch(&self) -> u64 {
        self.summaries.last().map(|s| s.epoch).unwrap_or(0)
    }

    /// The epoch after the last summary, which no summary covers yet.
    pub fn open_epoch(&self) -> u64 {
        open_epoch_after(&self.summaries)
    }

    /// The meta-blocks retention keeps: those of the open epoch, which its
    /// summary's `meta_refs` will name. Every other block this node holds
    /// belongs to a summarised epoch. A snapshot commits these and no
    /// others; at an epoch boundary there are none.
    pub fn retained_meta(&self) -> &[MetaBlock] {
        self.meta_blocks(self.open_epoch())
    }

    /// The byte counters once the summarised epochs' meta-blocks are
    /// pruned, whatever margin this node keeps of them.
    pub fn retained_bytes(&self) -> RetainedBytes {
        let covered: u64 = self
            .meta
            .range(..self.open_epoch())
            .flat_map(|(_, blocks)| blocks)
            .map(|b| b.size_bytes() as u64)
            .sum();
        RetainedBytes {
            current: self.current_bytes - covered,
            pruned_total: self.pruned_bytes_total + covered,
        }
    }

    /// The state a snapshot commits: the ledger as retention leaves it
    /// ([`Ledger::retained_meta`], [`Ledger::retained_bytes`]), whatever
    /// margin of summarised epochs this node keeps.
    pub fn retained_state(&self) -> LedgerState {
        let open = self.retained_meta();
        let bytes = self.retained_bytes();
        LedgerState {
            meta: if open.is_empty() {
                Vec::new()
            } else {
                vec![(self.open_epoch(), open.to_vec())]
            },
            summaries: self.summaries.clone(),
            genesis: self.genesis(),
            current_bytes: bytes.current,
            pruned_bytes_total: bytes.pruned_total,
        }
    }

    /// Exports everything the ledger holds, including the meta-blocks of
    /// summarised epochs not pruned yet (see [`LedgerState`]).
    pub fn export_state(&self) -> LedgerState {
        LedgerState {
            meta: self.meta.iter().map(|(e, b)| (*e, b.clone())).collect(),
            summaries: self.summaries.clone(),
            genesis: self.genesis(),
            current_bytes: self.current_bytes,
            pruned_bytes_total: self.pruned_bytes_total,
        }
    }

    /// Rebuilds a ledger from the state retention leaves: the summaries
    /// of epochs 1, 2, … in order, meta-blocks of the open epoch only, a
    /// genesis reference exactly when there is no block, and a size that
    /// is what the blocks add up to. The restored ledger accepts exactly
    /// the blocks the exported one would have. Its peak size starts at its
    /// current size.
    ///
    /// # Errors
    /// The [`LedgerStateError`] of the first of those checks that fails.
    pub fn from_state(state: LedgerState) -> Result<Ledger, LedgerStateError> {
        for (index, summary) in state.summaries.iter().enumerate() {
            let expected = index as u64 + 1;
            if summary.epoch != expected {
                return Err(LedgerStateError::SummaryOutOfSequence {
                    index,
                    epoch: summary.epoch,
                    expected,
                });
            }
        }
        let open_epoch = open_epoch_after(&state.summaries);
        let mut retained = Vec::new();
        for (key, blocks) in state.meta {
            for block in blocks {
                // the key first, then the block's own epoch
                if let Some(epoch) = [key, block.epoch].into_iter().find(|&e| e != open_epoch) {
                    return Err(LedgerStateError::MetaOutsideOpenEpoch { epoch, open_epoch });
                }
                retained.push(block);
            }
        }
        let holds_blocks = !state.summaries.is_empty() || !retained.is_empty();
        if holds_blocks == state.genesis.is_some() {
            return Err(LedgerStateError::MisplacedGenesis);
        }
        let computed: u64 = state
            .summaries
            .iter()
            .map(|s| s.size_bytes() as u64)
            .chain(retained.iter().map(|b| b.size_bytes() as u64))
            .sum();
        if computed != state.current_bytes {
            return Err(LedgerStateError::SizeMismatch {
                declared: state.current_bytes,
                computed,
            });
        }
        let tip = match (state.genesis, retained.last()) {
            (Some(genesis), _) => OnceLock::from(genesis),
            (None, Some(block)) => OnceLock::from(block.id()),
            // the last summary's id, derived on first use
            (None, None) => OnceLock::new(),
        };
        let tip_round = retained.last().map(|block| block.round);
        let mut meta = BTreeMap::new();
        if !retained.is_empty() {
            meta.insert(open_epoch, retained);
        }
        Ok(Ledger {
            meta,
            summaries: state.summaries,
            tip,
            tip_round,
            current_bytes: state.current_bytes,
            peak_bytes: state.current_bytes,
            pruned_bytes_total: state.pruned_bytes_total,
        })
    }

    /// Validates a received meta-block against the tip (the `VerifyBlock`
    /// predicate for `btype = meta`): it must chain onto the tip, and its
    /// root must be the root of its body. The block comes back as the
    /// [`VerifiedMeta`] [`Ledger::append`] takes.
    ///
    /// # Errors
    /// Returns the specific chaining/content violation.
    #[doc(alias = "VerifyBlock")]
    pub fn verify_meta(&self, block: MetaBlock) -> Result<VerifiedMeta, BlockError> {
        self.check_chain(&block)?;
        VerifiedMeta::check(block).ok_or(BlockError::BadTxRoot)
    }

    /// Checks that `block` is the next meta-block of the tip's epoch: its
    /// parent is the tip, its epoch the open one, its round the one after
    /// the tip's.
    fn check_chain(&self, block: &MetaBlock) -> Result<(), BlockError> {
        if block.parent != self.tip() {
            return Err(BlockError::BadParent {
                expected: self.tip(),
                got: block.parent,
            });
        }
        if block.epoch != self.tip_epoch() {
            return Err(BlockError::BadSequence {
                detail: format!(
                    "meta-block epoch {} but ledger is in epoch {}",
                    block.epoch,
                    self.tip_epoch()
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
        Ok(())
    }

    /// Appends a meta-block whose root is known to be right. Its place in
    /// the chain is checked again, since the tip may have moved since the
    /// block was sealed or verified; its body is not hashed again.
    ///
    /// # Errors
    /// [`BlockError::BadParent`] or [`BlockError::BadSequence`] when the
    /// block does not chain onto the tip.
    pub fn append(&mut self, block: VerifiedMeta) -> Result<(), BlockError> {
        let block = block.into_block();
        self.check_chain(&block)?;
        self.tip = OnceLock::from(block.id());
        self.tip_round = Some(block.round);
        self.add_bytes(block.size_bytes() as u64);
        self.meta.entry(block.epoch).or_default().push(block);
        Ok(())
    }

    /// [`Ledger::verify_meta`], then [`Ledger::append`].
    ///
    /// # Errors
    /// Propagates [`Ledger::verify_meta`] failures.
    pub fn append_meta(&mut self, block: MetaBlock) -> Result<(), BlockError> {
        let verified = self.verify_meta(block)?;
        self.append(verified)
    }

    /// Validates a summary-block for the current epoch (the `VerifyBlock`
    /// predicate for `btype = summary`): it must chain to the tip and
    /// reference exactly the epoch's meta-blocks in order.
    ///
    /// # Errors
    /// Returns the specific violation.
    #[doc(alias = "VerifyBlock")]
    pub fn verify_summary(&self, block: &SummaryBlock) -> Result<(), BlockError> {
        if block.parent != self.tip() {
            return Err(BlockError::BadParent {
                expected: self.tip(),
                got: block.parent,
            });
        }
        if block.epoch != self.tip_epoch() {
            return Err(BlockError::BadSequence {
                detail: format!(
                    "summary epoch {} but ledger is in epoch {}",
                    block.epoch,
                    self.tip_epoch()
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
        self.tip = OnceLock::from(block.id());
        self.tip_round = None;
        self.add_bytes(block.size_bytes() as u64);
        self.summaries.push(block);
        Ok(())
    }

    /// Prunes the meta-blocks of every summarised epoch `<= through`, the
    /// blocks [`Ledger::retained_meta`] leaves out; with `through` at or
    /// past the last summary, what is left is exactly the retained view.
    /// Returns the epochs pruned and the bytes reclaimed.
    pub fn prune_covered(&mut self, through: u64) -> (u64, u64) {
        let first_kept = through.saturating_add(1).min(self.open_epoch());
        let kept = self.meta.split_off(&first_kept);
        let pruned = std::mem::replace(&mut self.meta, kept);
        let freed: u64 = pruned
            .values()
            .flatten()
            .map(|b| b.size_bytes() as u64)
            .sum();
        self.current_bytes -= freed;
        self.pruned_bytes_total += freed;
        (pruned.len() as u64, freed)
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
        if !self.has_summary(epoch) {
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
        let empty = MetaBlock::new(1, 3, l.tip(), vec![]);
        assert_eq!(
            l.verify_meta(empty.clone()).map(VerifiedMeta::into_block),
            Ok(empty)
        );
    }

    #[test]
    fn wrong_parent_rejected() {
        let mut l = ledger_with_epoch();
        let bad = MetaBlock::new(1, 3, H256::hash(b"fork"), vec![tx(9)]);
        assert!(matches!(
            l.verify_meta(bad.clone()),
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
        assert_eq!(l.verify_meta(bad.clone()), Err(BlockError::BadTxRoot));
        assert_eq!(l.append_meta(bad), Err(BlockError::BadTxRoot));
    }

    #[test]
    fn tampered_body_rejected() {
        let mut l = ledger_with_epoch();
        let mut bad = MetaBlock::new(1, 3, l.tip(), vec![tx(9), tx(10)]);
        bad.txs[1] = tx(11);
        let before = l.export_state();
        assert_eq!(l.verify_meta(bad.clone()), Err(BlockError::BadTxRoot));
        assert_eq!(l.append_meta(bad), Err(BlockError::BadTxRoot));
        assert_eq!(l.export_state(), before, "nothing appended");
    }

    #[test]
    fn verified_block_is_refused_once_the_tip_moves() {
        let mut l = ledger_with_epoch();
        let (tip, round) = (l.tip(), 3);
        let first = MetaBlock::seal(1, round, tip, vec![tx(9)]);
        let received = l.verify_meta(MetaBlock::new(1, round, tip, vec![tx(10)]));
        let (sealed, received) = (
            MetaBlock::seal(1, round, tip, vec![tx(11)]),
            received.unwrap(),
        );
        l.append(first).unwrap();
        // both were right for the old tip: chaining is checked on append
        assert!(matches!(
            l.append(sealed),
            Err(BlockError::BadParent { .. })
        ));
        assert!(matches!(
            l.append(received),
            Err(BlockError::BadParent { .. })
        ));
        assert_eq!(l.meta_block_count(), 4);
        // a block sealed for the wrong round is refused as well
        let skipped = MetaBlock::seal(1, round + 2, l.tip(), vec![tx(12)]);
        assert!(matches!(
            l.append(skipped),
            Err(BlockError::BadSequence { .. })
        ));
    }

    /// Keccak-f permutations `f` runs on this thread.
    fn permutations_of<R>(f: impl FnOnce() -> R) -> (u64, R) {
        let before = ammboost_crypto::keccak::permutations();
        let out = f();
        (ammboost_crypto::keccak::permutations() - before, out)
    }

    #[test]
    fn a_block_body_is_hashed_once_per_path() {
        let mut l = ledger_with_epoch();
        let body: Vec<ExecutedTx> = (0..13).map(tx).collect();
        let (root, _) = permutations_of(|| MetaBlock::compute_tx_root(&body));
        // thirteen single-block ids, then 7 + 4 + 2 + 1 parent nodes
        assert_eq!(root, 13 + 14);
        let mut probe = MetaBlock::new(1, 3, l.tip(), vec![]);
        let (id, _) = permutations_of(|| probe.id());
        assert_eq!(id, 1);
        // the miner: one root pass to seal, the id on append
        let (sealing, sealed) = permutations_of(|| MetaBlock::seal(1, 3, l.tip(), body.clone()));
        assert_eq!(sealing, root);
        let (appending, ok) = permutations_of(|| l.append(sealed));
        assert_eq!((appending, ok), (id, Ok(())));
        // a receiver: one root pass to verify, the id on append
        probe = MetaBlock::new(1, 4, l.tip(), body);
        let (verifying, verified) = permutations_of(|| l.verify_meta(probe));
        assert_eq!(verifying, root);
        let (appending, ok) = permutations_of(|| l.append(verified.unwrap()));
        assert_eq!((appending, ok), (id, Ok(())));
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
        // mid-epoch: the open epoch's blocks are the retained view
        let mid = Ledger::from_state(l.export_state()).unwrap();
        assert_eq!(mid.export_state(), l.export_state());
        assert_eq!((mid.tip(), mid.tip_round), (l.tip(), Some(2)));
        let s = summary_for(&l, 1);
        l.append_summary(s).unwrap();
        // epoch 1's blocks are summarised: retention drops them, and a
        // state that still holds them is not one a snapshot commits
        assert_eq!(
            Ledger::from_state(l.export_state()).err(),
            Some(LedgerStateError::MetaOutsideOpenEpoch {
                epoch: 1,
                open_epoch: 2
            })
        );
        let retained = l.retained_bytes();
        assert_eq!(l.prune_covered(u64::MAX), (1, retained.pruned_total));
        assert_eq!(l.size_bytes(), retained.current);
        let state = l.export_state();
        assert_eq!(state, l.export_state(), "export is deterministic");
        let mut restored = Ledger::from_state(state).unwrap();
        assert_eq!(restored.tip(), l.tip(), "derived from the last summary");
        assert_eq!(restored.tip_epoch(), 2);
        assert_eq!(restored.tip_round, None);
        assert_eq!(restored.size_bytes(), l.size_bytes());
        assert_eq!(restored.peak_bytes(), l.size_bytes(), "peak is node-local");
        assert_eq!(restored.meta_epochs(), l.meta_epochs());
        // both ledgers accept the same continuation
        let next = MetaBlock::new(2, 0, l.tip(), vec![tx(5)]);
        l.append_meta(next.clone()).unwrap();
        restored.append_meta(next).unwrap();
        assert_eq!(restored.export_state(), l.export_state());
    }

    #[test]
    fn retained_view_keeps_only_the_open_epoch() {
        let mut l = ledger_with_epoch();
        assert_eq!(l.retained_meta().len(), 3, "the open epoch is retained");
        let s = summary_for(&l, 1);
        l.append_summary(s).unwrap();
        assert_eq!(l.open_epoch(), 2);
        assert!(l.retained_meta().is_empty(), "nothing at a boundary");
        let covered: u64 = l.meta_blocks(1).iter().map(|b| b.size_bytes() as u64).sum();
        assert_eq!(
            l.retained_bytes(),
            RetainedBytes {
                current: l.size_bytes() - covered,
                pruned_total: covered,
            }
        );
        l.append_meta(MetaBlock::new(2, 0, l.tip(), vec![tx(7)]))
            .unwrap();
        assert_eq!(l.retained_meta(), l.meta_blocks(2));
        // a prune bounded below the last summary keeps the rest
        assert_eq!(l.prune_covered(0), (0, 0));
        assert_eq!(l.meta_epochs(), vec![1, 2]);
        let retained = l.retained_state();
        assert_eq!(l.prune_covered(u64::MAX), (1, covered));
        assert_eq!(l.meta_epochs(), vec![2], "the open epoch survives");
        assert_eq!(l.export_state(), retained, "the prune leaves the view");
    }

    #[test]
    fn from_state_rejects_inconsistent_ledgers() {
        let mut l = ledger_with_epoch();
        let s = summary_for(&l, 1);
        l.append_summary(s).unwrap();
        l.prune_covered(1);
        for round in 0..2 {
            l.append_meta(MetaBlock::new(2, round, l.tip(), vec![tx(round)]))
                .unwrap();
        }
        let good = l.export_state();
        assert!(Ledger::from_state(good.clone()).is_ok());
        let rejected = |edit: &dyn Fn(&mut LedgerState)| {
            let mut state = good.clone();
            edit(&mut state);
            Ledger::from_state(state).err()
        };
        assert_eq!(
            rejected(&|s| s.summaries[0].epoch = 2),
            Some(LedgerStateError::SummaryOutOfSequence {
                index: 0,
                epoch: 2,
                expected: 1
            })
        );
        assert_eq!(
            rejected(&|s| s.meta[0].0 = 1),
            Some(LedgerStateError::MetaOutsideOpenEpoch {
                epoch: 1,
                open_epoch: 2
            })
        );
        assert_eq!(
            rejected(&|s| s.meta[0].1[1].epoch = 3),
            Some(LedgerStateError::MetaOutsideOpenEpoch {
                epoch: 3,
                open_epoch: 2
            })
        );
        let misplaced = Some(LedgerStateError::MisplacedGenesis);
        assert_eq!(
            rejected(&|s| s.genesis = Some(H256::hash(b"fork"))),
            misplaced
        );
        let empty = Ledger::new(H256::hash(b"genesis")).export_state();
        assert_eq!(empty.genesis, Some(H256::hash(b"genesis")));
        let restored = Ledger::from_state(empty.clone()).unwrap();
        assert_eq!(restored.tip(), H256::hash(b"genesis"));
        assert_eq!(
            Ledger::from_state(LedgerState {
                genesis: None,
                ..empty
            })
            .err(),
            misplaced
        );
        assert_eq!(
            rejected(&|s| s.current_bytes += 1),
            Some(LedgerStateError::SizeMismatch {
                declared: good.current_bytes + 1,
                computed: good.current_bytes
            })
        );
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
