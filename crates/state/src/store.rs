//! Crash-consistent checkpoint persistence.
//!
//! [`CheckpointStore`] models the durable medium a node writes snapshots
//! to, with a **stage → mark → install** journal:
//!
//! ```text
//!        encode            stage              mark              install
//!   Snapshot ──► bytes ──► staged slot ──► commit mark ──► committed slot
//!                              │   (epoch, root, len)  │
//!             crash here ──────┘ torn/unmarked: DISCARD │
//!                              crash here ──────────────┘ marked+complete:
//!                                                         ROLL FORWARD
//! ```
//!
//! The full snapshot encoding is first written to a *staging* slot; only
//! once it is completely down is a small **commit mark** — epoch, root and
//! exact length, an atomic rename-equivalent — recorded; installing into
//! the committed slot happens last. A simulated crash ([`CrashPoint`])
//! can tear the staged write at any byte offset or kill the process
//! between any two steps. [`CheckpointStore::recover`] then restores the
//! invariant the rest of the system relies on: the store always exposes
//! the **last committed** snapshot — a marked *and* byte-complete staged
//! write rolls forward, anything torn or unmarked is discarded. The node
//! catches back up from the committed epoch by following the meta-blocks
//! sealed since (`catch_up`), landing on a bit-identical state root.
//!
//! The journal is **delta-aware**: [`CheckpointStore::commit_delta`]
//! pushes a [`DeltaSnapshot`] through the same stage→mark→install dance
//! (the staged bytes' magic distinguishes full `ABSS` from delta `ABDS`
//! writes, including during recovery). Installed deltas form a *chain*
//! on top of the last full snapshot; [`CheckpointStore::latest`] folds
//! the chain — every link re-verified — and once the chain reaches the
//! compaction threshold the store folds it into a new full snapshot in
//! the committed slot. Per-epoch durable bytes therefore scale with the
//! dirty pages, while reads always see one verified tip.

use crate::codec::CodecError;
use crate::delta::{DeltaError, DeltaSnapshot, DELTA_MAGIC};
use crate::snapshot::Snapshot;
use ammboost_crypto::H256;
use std::fmt;

/// Delta-chain links after which the store folds the chain into a new
/// full snapshot.
pub const DEFAULT_COMPACTION_THRESHOLD: usize = 8;

/// Where a simulated crash interrupts a checkpoint commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// The process dies mid-stage: only `offset` bytes of the snapshot
    /// encoding reach the staging slot (a torn write).
    DuringStage {
        /// Bytes of the encoding that made it down before the crash.
        offset: usize,
    },
    /// The stage completed but the commit mark was never written.
    BeforeMark,
    /// Staged and marked, but the install into the committed slot never
    /// ran — the one case recovery rolls *forward*.
    BeforeInstall,
}

/// Checkpoint store failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The simulated process died at this point of the commit. The store
    /// is left exactly as the crash tore it; call
    /// [`CheckpointStore::recover`] as the restarted process would.
    SimulatedCrash(CrashPoint),
    /// No snapshot has ever been committed.
    NothingCommitted,
    /// The committed slot failed to decode (cannot happen through this
    /// API; guards external corruption of the committed bytes).
    Corrupt(CodecError),
    /// A delta-chain link failed to decode or apply.
    CorruptDelta(DeltaError),
    /// A delta was committed against a tip other than the store's.
    DeltaBaseMismatch {
        /// The store's current tip root, if any.
        tip: Option<H256>,
        /// The base root the delta expects.
        base: H256,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::SimulatedCrash(p) => write!(f, "simulated crash at {p:?}"),
            StoreError::NothingCommitted => write!(f, "no committed checkpoint"),
            StoreError::Corrupt(e) => write!(f, "committed checkpoint corrupt: {e}"),
            StoreError::CorruptDelta(e) => write!(f, "delta chain corrupt: {e}"),
            StoreError::DeltaBaseMismatch { tip, base } => {
                write!(f, "delta base {base:?} does not match store tip {tip:?}")
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// What [`CheckpointStore::recover`] found and did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryOutcome {
    /// No interrupted commit; nothing to do.
    Clean,
    /// A marked, byte-complete staged write was installed.
    RolledForward {
        /// Epoch of the snapshot that was rolled forward.
        epoch: u64,
    },
    /// A torn or unmarked staged write was discarded; the store still
    /// exposes the previous committed snapshot.
    DiscardedTorn {
        /// Bytes found in the staging slot.
        staged_bytes: usize,
        /// Whether a commit mark was present (a marked-but-torn write is
        /// still discarded — the mark's length/root check failed).
        marked: bool,
    },
}

/// The commit mark: the small atomic record that makes a staged write
/// eligible to roll forward.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CommitMark {
    epoch: u64,
    root: H256,
    len: usize,
}

/// A simulated durable checkpoint store with a stage→mark→install
/// commit journal. See the module docs for the protocol and crash
/// semantics.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    committed: Option<Vec<u8>>,
    committed_epoch: Option<u64>,
    /// Encoded delta links on top of `committed`, oldest first.
    chain: Vec<Vec<u8>>,
    /// Root of the folded tip (committed + chain).
    tip_root: Option<H256>,
    staged: Option<Vec<u8>>,
    mark: Option<CommitMark>,
    compaction_threshold: usize,
    compactions: u64,
}

impl Default for CheckpointStore {
    fn default() -> CheckpointStore {
        CheckpointStore::new()
    }
}

impl CheckpointStore {
    /// An empty store (nothing committed) with the default compaction
    /// threshold.
    pub fn new() -> CheckpointStore {
        CheckpointStore::with_compaction_threshold(DEFAULT_COMPACTION_THRESHOLD)
    }

    /// An empty store folding its delta chain after `threshold` links.
    ///
    /// # Panics
    /// Panics on a zero threshold.
    pub fn with_compaction_threshold(threshold: usize) -> CheckpointStore {
        assert!(threshold > 0, "compaction threshold must be positive");
        CheckpointStore {
            committed: None,
            committed_epoch: None,
            chain: Vec::new(),
            tip_root: None,
            staged: None,
            mark: None,
            compaction_threshold: threshold,
            compactions: 0,
        }
    }

    /// Commits `snapshot` through the journal, optionally dying at
    /// `crash`. On success the snapshot is installed (resetting any
    /// delta chain) and its epoch returned; on a simulated crash the
    /// store is left torn exactly as the crash point dictates and
    /// [`StoreError::SimulatedCrash`] is returned — the caller then
    /// restarts via [`CheckpointStore::recover`].
    ///
    /// # Errors
    /// Only [`StoreError::SimulatedCrash`], and only when `crash` is set.
    pub fn commit(
        &mut self,
        snapshot: &Snapshot,
        crash: Option<CrashPoint>,
    ) -> Result<u64, StoreError> {
        let bytes = snapshot.encode();
        let mark = CommitMark {
            epoch: snapshot.epoch(),
            root: snapshot.root(),
            len: bytes.len(),
        };
        self.journal(bytes, mark, crash)?;
        Ok(snapshot.epoch())
    }

    /// Commits a [`DeltaSnapshot`] link through the same journal. The
    /// delta must extend the store's current tip (base root and epoch
    /// both agreeing); on install it joins the chain, and once the chain
    /// reaches the compaction threshold it is folded into a new full
    /// snapshot in the committed slot.
    ///
    /// # Errors
    /// [`StoreError::NothingCommitted`] on an empty store,
    /// [`StoreError::DeltaBaseMismatch`] when the delta does not extend
    /// the tip, [`StoreError::SimulatedCrash`] when `crash` is set.
    pub fn commit_delta(
        &mut self,
        delta: &DeltaSnapshot,
        crash: Option<CrashPoint>,
    ) -> Result<u64, StoreError> {
        if self.committed.is_none() {
            return Err(StoreError::NothingCommitted);
        }
        if self.tip_root != Some(delta.base_root) || self.committed_epoch != Some(delta.base_epoch)
        {
            return Err(StoreError::DeltaBaseMismatch {
                tip: self.tip_root,
                base: delta.base_root,
            });
        }
        let bytes = delta.encode();
        let mark = CommitMark {
            epoch: delta.epoch,
            root: delta.root,
            len: bytes.len(),
        };
        self.journal(bytes, mark, crash)?;
        Ok(delta.epoch)
    }

    /// The shared stage→mark→install dance over already-encoded bytes.
    fn journal(
        &mut self,
        bytes: Vec<u8>,
        mark: CommitMark,
        crash: Option<CrashPoint>,
    ) -> Result<(), StoreError> {
        if let Some(CrashPoint::DuringStage { offset }) = crash {
            let cut = offset.min(bytes.len());
            self.staged = Some(bytes[..cut].to_vec());
            return Err(StoreError::SimulatedCrash(CrashPoint::DuringStage {
                offset: cut,
            }));
        }
        self.staged = Some(bytes);
        if let Some(CrashPoint::BeforeMark) = crash {
            return Err(StoreError::SimulatedCrash(CrashPoint::BeforeMark));
        }
        self.mark = Some(mark);
        if let Some(CrashPoint::BeforeInstall) = crash {
            return Err(StoreError::SimulatedCrash(CrashPoint::BeforeInstall));
        }
        self.install();
        Ok(())
    }

    /// Restores the journal invariant after a (possible) crash: a marked
    /// *and* byte-complete staged write — length, decode and root all
    /// agreeing with the mark (and, for a staged delta, its base
    /// agreeing with the store's tip) — is installed; anything else in
    /// the staging area is discarded. Idempotent; safe to call on a
    /// clean store.
    pub fn recover(&mut self) -> RecoveryOutcome {
        match (&self.staged, &self.mark) {
            (None, None) => RecoveryOutcome::Clean,
            (Some(staged), Some(mark)) if staged.len() == mark.len => {
                if staged.get(..4) == Some(DELTA_MAGIC.as_slice()) {
                    match DeltaSnapshot::decode(staged) {
                        Ok(delta)
                            if delta.epoch == mark.epoch
                                && delta.root == mark.root
                                && self.tip_root == Some(delta.base_root)
                                && self.committed_epoch == Some(delta.base_epoch) =>
                        {
                            let epoch = mark.epoch;
                            self.install();
                            RecoveryOutcome::RolledForward { epoch }
                        }
                        _ => self.discard_staged(),
                    }
                } else {
                    match Snapshot::decode(staged) {
                        Ok(snap) if snap.epoch() == mark.epoch && snap.root() == mark.root => {
                            let epoch = mark.epoch;
                            self.install();
                            RecoveryOutcome::RolledForward { epoch }
                        }
                        _ => self.discard_staged(),
                    }
                }
            }
            _ => self.discard_staged(),
        }
    }

    fn install(&mut self) {
        if let (Some(bytes), Some(mark)) = (self.staged.take(), self.mark.take()) {
            if bytes.get(..4) == Some(DELTA_MAGIC.as_slice()) {
                self.chain.push(bytes);
            } else {
                self.committed = Some(bytes);
                self.chain.clear();
            }
            self.committed_epoch = Some(mark.epoch);
            self.tip_root = Some(mark.root);
            if self.chain.len() >= self.compaction_threshold {
                self.compact();
            }
        }
    }

    /// Folds the delta chain into a new full snapshot in the committed
    /// slot. On a fold error the chain is left untouched — the
    /// corruption then fails loud at the next [`CheckpointStore::latest`]
    /// instead of being papered over.
    fn compact(&mut self) {
        if let Ok(snapshot) = self.fold() {
            self.committed = Some(snapshot.encode());
            self.chain.clear();
            self.compactions += 1;
        }
    }

    /// Decodes the committed slot and re-applies (re-verifying) every
    /// chain link.
    fn fold(&self) -> Result<Snapshot, StoreError> {
        let bytes = self
            .committed
            .as_ref()
            .ok_or(StoreError::NothingCommitted)?;
        let mut snapshot = Snapshot::decode(bytes).map_err(StoreError::Corrupt)?;
        for link in &self.chain {
            let delta = DeltaSnapshot::decode(link).map_err(StoreError::CorruptDelta)?;
            snapshot = delta.apply(&snapshot).map_err(StoreError::CorruptDelta)?;
        }
        Ok(snapshot)
    }

    fn discard_staged(&mut self) -> RecoveryOutcome {
        let staged_bytes = self.staged.take().map_or(0, |b| b.len());
        let marked = self.mark.take().is_some();
        RecoveryOutcome::DiscardedTorn {
            staged_bytes,
            marked,
        }
    }

    /// Decodes (and root-verifies) the store's tip: the last committed
    /// full snapshot with every installed delta link applied and
    /// re-verified on top.
    ///
    /// # Errors
    /// [`StoreError::NothingCommitted`] on an empty store;
    /// [`StoreError::Corrupt`]/[`StoreError::CorruptDelta`] if any
    /// committed bytes fail verification.
    pub fn latest(&self) -> Result<Snapshot, StoreError> {
        self.fold()
    }

    /// Times the delta chain was folded into a full snapshot.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{Section, SectionKind};

    fn sections() -> Vec<Section> {
        vec![
            Section {
                kind: SectionKind::Pool(0),
                bytes: (0..64).map(|i| (i as u8).wrapping_mul(7)).collect(),
            },
            Section {
                kind: SectionKind::Ledger,
                bytes: vec![1, 2, 3],
            },
        ]
    }

    fn snap(epoch: u64) -> Snapshot {
        Snapshot::seal(epoch, sections()).unwrap()
    }

    /// `snap(epoch)` with one pool byte varied per epoch, so consecutive
    /// epochs differ by exactly one page.
    fn evolving(epoch: u64) -> Snapshot {
        let mut sections = sections();
        sections[0].bytes[0] = epoch as u8;
        Snapshot::seal(epoch, sections).unwrap()
    }

    fn delta(from: u64, to: u64) -> DeltaSnapshot {
        DeltaSnapshot::diff(&evolving(from), &evolving(to))
    }

    /// Whether an interrupted commit is pending recovery.
    fn is_torn(store: &CheckpointStore) -> bool {
        store.staged.is_some() || store.mark.is_some()
    }

    #[test]
    fn clean_commit_installs() {
        let mut store = CheckpointStore::new();
        assert_eq!(store.latest().err(), Some(StoreError::NothingCommitted));
        assert_eq!(store.commit(&snap(1), None).unwrap(), 1);
        assert_eq!(store.committed_epoch, Some(1));
        assert_eq!(store.latest().unwrap(), snap(1));
        assert!(!is_torn(&store));
        assert_eq!(store.recover(), RecoveryOutcome::Clean);
    }

    #[test]
    fn crash_at_every_byte_offset_recovers_to_last_committed() {
        let base = snap(1);
        let next = snap(2);
        let encoded_len = next.encode().len();
        for offset in 0..encoded_len {
            let mut store = CheckpointStore::new();
            store.commit(&base, None).unwrap();
            let err = store
                .commit(&next, Some(CrashPoint::DuringStage { offset }))
                .unwrap_err();
            assert_eq!(
                err,
                StoreError::SimulatedCrash(CrashPoint::DuringStage { offset })
            );
            assert!(is_torn(&store));
            assert_eq!(
                store.recover(),
                RecoveryOutcome::DiscardedTorn {
                    staged_bytes: offset,
                    marked: false
                }
            );
            assert_eq!(store.latest().unwrap(), base, "crash at byte {offset}");
        }
    }

    #[test]
    fn crash_before_mark_discards_complete_stage() {
        let mut store = CheckpointStore::new();
        store.commit(&snap(1), None).unwrap();
        let staged_len = snap(2).encode().len();
        store
            .commit(&snap(2), Some(CrashPoint::BeforeMark))
            .unwrap_err();
        assert_eq!(
            store.recover(),
            RecoveryOutcome::DiscardedTorn {
                staged_bytes: staged_len,
                marked: false
            }
        );
        assert_eq!(store.committed_epoch, Some(1));
    }

    #[test]
    fn crash_before_install_rolls_forward() {
        let mut store = CheckpointStore::new();
        store.commit(&snap(1), None).unwrap();
        store
            .commit(&snap(2), Some(CrashPoint::BeforeInstall))
            .unwrap_err();
        assert_eq!(store.recover(), RecoveryOutcome::RolledForward { epoch: 2 });
        assert_eq!(store.latest().unwrap(), snap(2));
        assert!(!is_torn(&store));
    }

    #[test]
    fn recovery_is_idempotent() {
        let mut store = CheckpointStore::new();
        store.commit(&snap(1), None).unwrap();
        store
            .commit(&snap(2), Some(CrashPoint::BeforeInstall))
            .unwrap_err();
        store.recover();
        assert_eq!(store.recover(), RecoveryOutcome::Clean);
        assert_eq!(store.latest().unwrap(), snap(2));
    }

    #[test]
    fn delta_commits_chain_and_fold_to_the_tip() {
        let mut store = CheckpointStore::new();
        store.commit(&evolving(1), None).unwrap();
        store.commit_delta(&delta(1, 2), None).unwrap();
        store.commit_delta(&delta(2, 3), None).unwrap();
        assert_eq!(store.chain.len(), 2);
        assert_eq!(store.committed_epoch, Some(3));
        assert_eq!(store.tip_root, Some(evolving(3).root()));
        assert_eq!(store.latest().unwrap(), evolving(3));
        assert!(store.chain.iter().all(|link| !link.is_empty()));
    }

    #[test]
    fn delta_against_wrong_tip_rejected() {
        let mut store = CheckpointStore::new();
        assert_eq!(
            store.commit_delta(&delta(1, 2), None).unwrap_err(),
            StoreError::NothingCommitted
        );
        store.commit(&evolving(1), None).unwrap();
        assert!(matches!(
            store.commit_delta(&delta(2, 3), None).unwrap_err(),
            StoreError::DeltaBaseMismatch { .. }
        ));
        // the failed commit left no trace
        assert!(!is_torn(&store));
        assert_eq!(store.latest().unwrap(), evolving(1));
    }

    #[test]
    fn chain_compacts_at_threshold() {
        let mut store = CheckpointStore::with_compaction_threshold(3);
        store.commit(&evolving(1), None).unwrap();
        store.commit_delta(&delta(1, 2), None).unwrap();
        store.commit_delta(&delta(2, 3), None).unwrap();
        assert_eq!(store.chain.len(), 2);
        assert_eq!(store.compactions(), 0);
        store.commit_delta(&delta(3, 4), None).unwrap();
        assert_eq!(store.chain.len(), 0, "threshold reached, chain folded");
        assert_eq!(store.compactions(), 1);
        // the committed slot now holds the folded full snapshot
        assert_eq!(
            Snapshot::decode(store.committed.as_deref().unwrap()).unwrap(),
            evolving(4)
        );
        // and the chain keeps growing from the new base
        store.commit_delta(&delta(4, 5), None).unwrap();
        assert_eq!(store.latest().unwrap(), evolving(5));
    }

    #[test]
    fn full_commit_resets_the_chain() {
        let mut store = CheckpointStore::new();
        store.commit(&evolving(1), None).unwrap();
        store.commit_delta(&delta(1, 2), None).unwrap();
        store.commit(&evolving(7), None).unwrap();
        assert_eq!(store.chain.len(), 0);
        assert_eq!(store.latest().unwrap(), evolving(7));
    }

    #[test]
    fn delta_crash_at_every_byte_offset_recovers_to_tip() {
        let d = delta(2, 3);
        let encoded_len = d.encode().len();
        for offset in 0..encoded_len {
            let mut store = CheckpointStore::new();
            store.commit(&evolving(1), None).unwrap();
            store.commit_delta(&delta(1, 2), None).unwrap();
            store
                .commit_delta(&d, Some(CrashPoint::DuringStage { offset }))
                .unwrap_err();
            assert_eq!(
                store.recover(),
                RecoveryOutcome::DiscardedTorn {
                    staged_bytes: offset,
                    marked: false
                }
            );
            assert_eq!(store.latest().unwrap(), evolving(2), "crash at {offset}");
        }
    }

    #[test]
    fn marked_delta_rolls_forward_on_recovery() {
        let mut store = CheckpointStore::new();
        store.commit(&evolving(1), None).unwrap();
        store
            .commit_delta(&delta(1, 2), Some(CrashPoint::BeforeInstall))
            .unwrap_err();
        assert_eq!(store.recover(), RecoveryOutcome::RolledForward { epoch: 2 });
        assert_eq!(store.latest().unwrap(), evolving(2));
        assert_eq!(store.chain.len(), 1);
    }
}
