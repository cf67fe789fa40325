//! Node-level checkpoint, restore and fast-sync catch-up.
//!
//! A sidechain node's durable state is its [`EpochProcessor`] (every pool,
//! the one deposit book and the epoch's bookkeeping) and its [`Ledger`].
//! This module maps that state onto the `ammboost-state` snapshot format:
//!
//! - [`checkpoint_node`] — builds one Merkle-committed [`Snapshot`]
//!   covering **all pools** through a [`Checkpointer`] (clean pools
//!   reuse their cached encoding; only dirty pools are re-encoded);
//! - [`restore_node`] — rebuilds a working processor + ledger from a
//!   snapshot, with each pool's derived tick index regenerated;
//!   [`Node::restore`] makes a [`Node`] of them;
//! - [`catch_up`] — fast-sync: a node restored at epoch *k* follows the
//!   epochs sealed after *k* from a peer's ledger, block by block, with
//!   the paper's `VerifyBlock` + `UpdateState` — the same steps, through
//!   the same code, as the node that mined them ([`Node::follow_round`],
//!   [`Node::follow_epoch`]) — ending byte-identical to a node that
//!   replayed full history.

use crate::node::Node;
use crate::processor::{EpochProcessor, PoolSlot, ProcessorStats};
use ammboost_amm::types::{PoolId, PositionId};
use ammboost_crypto::Address;
use ammboost_sidechain::ledger::Ledger;
use ammboost_sidechain::summary::Deposits;
use ammboost_state::codec::{
    ensure_sorted_keys, ByteReader, ByteWriter, CodecError, Decode, Encode,
};
use ammboost_state::snapshot::{SectionKind, Snapshot};
use ammboost_state::store::{CheckpointStore, RecoveryOutcome, StoreError};
use ammboost_state::sync::RestoreError;
use ammboost_state::{CheckpointOutput, Checkpointer};
use std::fmt;

/// Aux-section tag carrying the node's processor meta: everything in a
/// [`crate::processor::ProcessorState`] not already covered by the pool
/// and deposits sections.
pub const AUX_PROCESSOR_META: u8 = 1;

/// The processor-meta aux section: the epoch's counters and first-touch
/// record, then one record per pool. The fixed-width counters come first,
/// so a change in length of the lists behind them never shifts them.
#[derive(Clone, Debug, PartialEq, Eq)]
struct ProcessorMeta {
    accepted: u64,
    rejected: u64,
    /// While an epoch is open, its first-touch record
    /// ([`Deposits::opening_balances`]), ascending by address; empty at
    /// an epoch boundary, where the next epoch's start drops it anyway.
    opening: Vec<(Address, (u128, u128))>,
    /// One record per pool, strictly ascending by pool id — the order of
    /// the pool sections.
    pools: Vec<PoolMeta>,
}

impl Encode for ProcessorMeta {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(self.accepted);
        w.put_u64(self.rejected);
        self.opening.encode(w);
        self.pools.encode(w);
    }
}

impl Decode for ProcessorMeta {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let meta = ProcessorMeta {
            accepted: r.take_u64()?,
            rejected: r.take_u64()?,
            opening: r.get()?,
            pools: r.get()?,
        };
        ensure_sorted_keys(&meta.opening)?;
        Ok(meta)
    }
}

/// One pool's epoch bookkeeping, riding next to its pool section.
#[derive(Clone, Debug, PartialEq, Eq)]
struct PoolMeta {
    pool_id: PoolId,
    touched: Vec<PositionId>,
    deleted: Vec<(PositionId, Address)>,
    preexisting: Vec<PositionId>,
}

impl Encode for PoolMeta {
    fn encode(&self, w: &mut ByteWriter) {
        self.pool_id.encode(w);
        self.touched.encode(w);
        self.deleted.encode(w);
        self.preexisting.encode(w);
    }
}

impl Decode for PoolMeta {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(PoolMeta {
            pool_id: r.get()?,
            touched: r.get()?,
            deleted: r.get()?,
            preexisting: r.get()?,
        })
    }
}

/// Why a node restore or catch-up failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeRestoreError {
    /// The snapshot failed to restore.
    Restore(RestoreError),
    /// The snapshot has no pool section for a pool named in the processor
    /// meta, in the meta's order (a meta repeated or out of order names a
    /// section already paired).
    MissingPool(PoolId),
    /// The snapshot carries a pool section no pool meta claims, in the
    /// meta's order — restoring would silently drop that pool's state.
    UnclaimedPool(PoolId),
    /// The first-touch record names a user with no deposit.
    OpeningWithoutDeposit {
        /// The user.
        user: Address,
    },
    /// A followed transaction's effect diverged from the one recorded in
    /// the meta-block — the snapshot or the block stream is inconsistent.
    EffectMismatch {
        /// Epoch of the divergent block.
        epoch: u64,
        /// Round of the divergent block.
        round: u64,
    },
    /// A followed epoch's summary diverged from the sealed summary block.
    SummaryMismatch {
        /// The divergent epoch.
        epoch: u64,
    },
    /// A block did not chain onto the restored ledger.
    BadChain(String),
    /// The checkpoint store had nothing usable to restore from.
    Store(StoreError),
}

impl fmt::Display for NodeRestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeRestoreError::Restore(e) => write!(f, "{e}"),
            NodeRestoreError::MissingPool(id) => {
                write!(f, "snapshot has no section for {id}")
            }
            NodeRestoreError::UnclaimedPool(id) => {
                write!(f, "snapshot section for {id} is claimed by no pool meta")
            }
            NodeRestoreError::OpeningWithoutDeposit { user } => {
                write!(f, "the epoch opened for {user}, who has no deposit")
            }
            NodeRestoreError::EffectMismatch { epoch, round } => {
                write!(f, "followed effect diverges in epoch {epoch} round {round}")
            }
            NodeRestoreError::SummaryMismatch { epoch } => {
                write!(f, "followed summary diverges in epoch {epoch}")
            }
            NodeRestoreError::BadChain(detail) => write!(f, "block does not chain: {detail}"),
            NodeRestoreError::Store(e) => write!(f, "checkpoint store: {e}"),
        }
    }
}

impl std::error::Error for NodeRestoreError {}

impl From<RestoreError> for NodeRestoreError {
    fn from(e: RestoreError) -> Self {
        NodeRestoreError::Restore(e)
    }
}

impl From<CodecError> for NodeRestoreError {
    fn from(e: CodecError) -> Self {
        NodeRestoreError::Restore(RestoreError::Codec(e))
    }
}

impl From<StoreError> for NodeRestoreError {
    fn from(e: StoreError) -> Self {
        NodeRestoreError::Store(e)
    }
}

/// The parts [`restore_node`] rebuilds from a snapshot. It stays public
/// only because nodebench's replica (`benchmark/src/{e2e,traced}.rs`)
/// reads its fields; ROADMAP item 1(b0) deletes it. Everything else
/// restores a [`Node`] through [`Node::restore`].
#[derive(Debug)]
pub struct NodeRestore {
    /// The epoch the snapshot covered.
    pub epoch: u64,
    /// The restored processor (all pools and the deposit book). The field
    /// keeps its former name only for nodebench's replica; ROADMAP item
    /// 1(b0) renames it.
    pub shards: EpochProcessor,
    /// The restored ledger.
    pub ledger: Ledger,
    /// The verified state root the node was restored from.
    pub root: ammboost_crypto::H256,
}

/// Takes one Merkle-committed checkpoint of a node (all pools + ledger)
/// at `epoch`. Each pool section is re-encoded only when the processor
/// reports that pool dirty; clean pools reuse the checkpointer's cached
/// bytes, so the per-epoch snapshot cost scales with the *touched* pools,
/// not the fleet size. From the second checkpoint on, the output also
/// carries the page-granular [`ammboost_state::DeltaSnapshot`] against
/// the previous one, ready for a [`CheckpointStore::commit_delta`]
/// journal append.
pub fn checkpoint_node(
    checkpointer: &mut Checkpointer,
    epoch: u64,
    processor: &mut EpochProcessor,
    ledger: &Ledger,
) -> CheckpointOutput {
    let output = stage_node(checkpointer, epoch, processor, ledger).commit();
    checkpointer.note_committed(output.stats.epoch, output.stats.root);
    output
}

/// The observing half of [`checkpoint_node`]: reads the node's state at
/// the epoch boundary (dirty flags, section encodings, processor meta)
/// and returns a [`StagedCheckpoint`] that owns every byte the
/// Merkle-hashing `commit()` needs, which makes the commit a pure
/// function of those bytes and the checkpointer's page-hash cache. The
/// node commits at once; the split exists so a caller (the benchmark's
/// traced replica) can time the two halves as separate spans.
///
/// [`StagedCheckpoint`]: ammboost_state::StagedCheckpoint
pub fn stage_node<'a>(
    checkpointer: &'a mut Checkpointer,
    epoch: u64,
    processor: &mut EpochProcessor,
    ledger: &Ledger,
) -> ammboost_state::StagedCheckpoint<'a> {
    for pool in processor.take_dirty_pools() {
        checkpointer.mark_dirty(pool);
    }
    // an epoch is open once its first meta-block is in; its summary will
    // need the first-touch record
    let epoch_open = !ledger.retained_meta().is_empty();
    let stats = processor.stats();
    // bookkeeping only — no pool clone, so a clean pool's checkpoint cost
    // stays proportional to its (small) epoch metadata
    let meta = ProcessorMeta {
        accepted: stats.accepted,
        rejected: stats.rejected,
        opening: if epoch_open {
            processor.deposits().opening_balances()
        } else {
            Vec::new()
        },
        pools: processor
            .pool_slots()
            .iter()
            .map(|pool| PoolMeta {
                pool_id: pool.id,
                touched: pool.touched.iter().copied().collect(),
                deleted: pool.deleted.iter().map(|(id, a)| (*id, *a)).collect(),
                preexisting: pool.preexisting.iter().copied().collect(),
            })
            .collect(),
    };
    let pools: Vec<(PoolId, &ammboost_amm::Engine)> = processor
        .pool_slots()
        .iter()
        .map(|pool| (pool.id, &pool.engine))
        .collect();
    checkpointer.stage(
        epoch,
        &pools,
        ledger,
        &processor.deposits().to_sorted_entries(),
        vec![(AUX_PROCESSOR_META, meta.encode_to_vec())],
    )
}

/// Rebuilds a node's parts from a snapshot: every pool (tick index
/// regenerated), the deposit book with the open epoch's first-touch
/// record, the epoch's bookkeeping, and the ledger as retention left it
/// (summaries and the open epoch's meta-blocks). [`Node::restore`] is
/// built on it; it stays public only for nodebench's replica and the
/// restore benchmarks, which time it alone.
///
/// Pool metas and pool sections are paired in one walk, both ascending
/// by pool id, so a meta list that is not strictly ascending, a meta
/// without its section and a section without its meta all fail typed.
///
/// # Errors
/// Fails on missing/malformed sections or invalid pool state; on a pool
/// meta without its pool section, or a repeated or out-of-order meta
/// ([`NodeRestoreError::MissingPool`]); on a pool section without its
/// meta ([`NodeRestoreError::UnclaimedPool`]); on a first-touch record
/// naming a user with no deposit
/// ([`NodeRestoreError::OpeningWithoutDeposit`]); and on a ledger section
/// that contradicts itself ([`RestoreError::InvalidLedger`]).
pub fn restore_node(snapshot: &Snapshot) -> Result<NodeRestore, NodeRestoreError> {
    let meta_section = snapshot
        .section(SectionKind::Aux(AUX_PROCESSOR_META))
        .ok_or(NodeRestoreError::Restore(RestoreError::MissingSection(
            "processor meta",
        )))?;
    let meta = ProcessorMeta::decode_all(&meta_section.bytes)?;
    if meta.pools.is_empty() {
        return Err(NodeRestoreError::Restore(RestoreError::MissingSection(
            "pool meta records",
        )));
    }

    // the state subsystem owns section decoding, validation (including
    // sorted-key checks) and pool reconstruction — one restore path
    let restored = ammboost_state::sync::restore(snapshot)?;
    let mut deposits = Deposits::from_sorted_entries(restored.deposits);
    deposits
        .reopen(meta.opening)
        .map_err(|user| NodeRestoreError::OpeningWithoutDeposit { user })?;

    // a section left over would drop a pool's state
    let mut sections = restored.pools.into_iter().peekable();
    let mut pools = Vec::with_capacity(meta.pools.len());
    for pool in meta.pools {
        if let Some((id, _)) = sections.next_if(|(id, _)| *id < pool.pool_id) {
            return Err(NodeRestoreError::UnclaimedPool(id));
        }
        let (_, engine) = sections
            .next_if(|(id, _)| *id == pool.pool_id)
            .ok_or(NodeRestoreError::MissingPool(pool.pool_id))?;
        pools.push(PoolSlot::restored(
            pool.pool_id,
            engine,
            pool.touched,
            pool.deleted,
            pool.preexisting,
        ));
    }
    if let Some((id, _)) = sections.next() {
        return Err(NodeRestoreError::UnclaimedPool(id));
    }

    let stats = ProcessorStats {
        accepted: meta.accepted,
        rejected: meta.rejected,
    };
    Ok(NodeRestore {
        epoch: restored.epoch,
        shards: EpochProcessor::from_restored(pools, deposits, stats),
        ledger: restored.ledger,
        root: restored.root,
    })
}

/// Fast-sync catch-up: `node` follows every epoch `source` sealed after
/// the node's last summary, one block at a time — `begin_epoch(None)`,
/// [`Node::follow_round`] per meta-block, [`Node::follow_epoch`] for the
/// summary. An epoch the node holds meta-blocks of (a snapshot taken
/// mid-epoch) is already open: it follows the blocks after them.
///
/// `rounds_per_epoch` reproduces the global round numbers transactions
/// were originally executed at (deadline checks depend on them).
///
/// Returns the number of epochs applied.
///
/// # Errors
/// Fails when a block does not chain, when the source pruned an epoch the
/// node still needs, or when following diverges from the recorded
/// effects or summary (inconsistent snapshot/stream).
pub fn catch_up(
    node: &mut Node,
    source: &Ledger,
    rounds_per_epoch: u64,
) -> Result<u64, NodeRestoreError> {
    let mut applied = 0u64;
    for epoch in node.ledger().open_epoch()..=source.last_summary_epoch() {
        let blocks = source.meta_blocks(epoch);
        if blocks.is_empty() {
            return Err(NodeRestoreError::BadChain(format!(
                "source pruned epoch {epoch} before the node could sync it"
            )));
        }
        let held = node.ledger().meta_blocks(epoch).len();
        if held == 0 {
            // A new committee takes over without a fresh TokenBank
            // snapshot: deposit tracking carries forward exactly as in a
            // mass-sync epoch.
            node.begin_epoch(None);
        }
        for block in blocks.iter().skip(held) {
            node.follow_round(block, (epoch - 1) * rounds_per_epoch + block.round)?;
        }
        // a ledger's summaries seal epochs 1, 2, … in order (it is built
        // by appends or by a checked `Ledger::from_state`), so this
        // epoch's is at `epoch - 1`
        node.follow_epoch(&source.summaries()[(epoch - 1) as usize])?;
        applied += 1;
    }
    Ok(applied)
}

/// Crash recovery: brings a node back up from a (possibly torn)
/// [`CheckpointStore`] and a peer's ledger. The store's journal is
/// recovered first — rolling a marked, complete staged write forward,
/// discarding anything torn — then the last committed snapshot is
/// restored ([`Node::restore`]) and the epochs sealed after it are
/// followed via [`catch_up`]. Whatever byte a crash interrupted the
/// checkpoint write at, the node ends on the same state root as one that
/// never crashed.
///
/// Returns the rebuilt node, what recovery found in the journal, and the
/// number of epochs followed.
///
/// # Errors
/// [`NodeRestoreError::Store`] when the store holds no committed
/// snapshot; otherwise any [`Node::restore`]/[`catch_up`] failure.
pub fn recover_node(
    store: &mut CheckpointStore,
    source: &Ledger,
    rounds_per_epoch: u64,
) -> Result<(Node, RecoveryOutcome, u64), NodeRestoreError> {
    let outcome = store.recover();
    let mut node = Node::restore(&store.latest()?)?;
    let applied = catch_up(&mut node, source, rounds_per_epoch)?;
    Ok((node, outcome, applied))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use ammboost_amm::tx::{AmmTx, SwapIntent, SwapTx};
    use ammboost_crypto::H256;
    use ammboost_sidechain::ledger::{LedgerState, LedgerStateError};
    use ammboost_state::snapshot::Section;
    use ammboost_state::PAGE_SIZE;

    /// `snapshot` with its sections edited and sealed again.
    fn resealed(snapshot: Snapshot, edit: impl FnOnce(&mut Vec<Section>)) -> Snapshot {
        let epoch = snapshot.epoch();
        let mut sections = snapshot.into_sections();
        edit(&mut sections);
        Snapshot::seal(epoch, sections).unwrap()
    }

    /// `snapshot` with its ledger section edited and sealed again.
    fn with_ledger(snapshot: Snapshot, edit: impl FnOnce(&mut LedgerState)) -> Snapshot {
        resealed(snapshot, |sections| {
            let section = sections
                .iter_mut()
                .find(|s| s.kind == SectionKind::Ledger)
                .expect("ledger section");
            let mut state = LedgerState::decode_all(&section.bytes).unwrap();
            edit(&mut state);
            section.bytes = state.encode_to_vec();
        })
    }

    /// `snapshot` with its processor-meta bytes edited and sealed again.
    fn with_meta_bytes(snapshot: Snapshot, edit: impl FnOnce(&mut Vec<u8>)) -> Snapshot {
        resealed(snapshot, |sections| {
            let section = sections
                .iter_mut()
                .find(|s| s.kind == SectionKind::Aux(AUX_PROCESSOR_META))
                .expect("processor meta section");
            edit(&mut section.bytes);
        })
    }

    /// `snapshot` with its processor meta edited and sealed again.
    fn with_meta(snapshot: Snapshot, edit: impl FnOnce(&mut ProcessorMeta)) -> Snapshot {
        with_meta_bytes(snapshot, |bytes| {
            let mut meta = ProcessorMeta::decode_all(bytes).unwrap();
            edit(&mut meta);
            *bytes = meta.encode_to_vec();
        })
    }

    pub(crate) fn user(i: u64) -> Address {
        Address::from_index(i)
    }

    pub(crate) fn swap_tx(u: Address, pool: u32, amount: u128, zero_for_one: bool) -> AmmTx {
        AmmTx::Swap(SwapTx {
            user: u,
            pool: PoolId(pool),
            zero_for_one,
            intent: SwapIntent::ExactInput {
                amount_in: amount,
                min_amount_out: 0,
            },
            sqrt_price_limit: None,
            deadline_round: 1_000_000,
        })
    }

    pub(crate) const ROUNDS: u64 = 3;

    /// A tiny node over `pools` pools: users 1..=3·pools trade on pool
    /// (user − 1) mod pools; the last `pools` of them never trade, so
    /// every summary lists a strict subset of the depositors.
    pub(crate) fn new_node(pools: u32) -> Node {
        let mut processor = EpochProcessor::new((0..pools).map(PoolId));
        for p in 0..pools {
            processor.seed_liquidity(
                PoolId(p),
                user(99),
                -60_000,
                60_000,
                10u128.pow(13),
                10u128.pow(13),
            );
        }
        let mut node = Node::new(processor, Ledger::new(H256::hash(b"genesis")));
        let users = 3 * pools as u64;
        let bucket = (1..=users)
            .map(|i| (user(i), (5_000_000_000u128, 5_000_000_000u128)))
            .collect();
        node.begin_epoch(Some(bucket));
        node
    }

    /// Executes `epoch`'s rounds of swaps into meta-blocks and seals it.
    pub(crate) fn run_epoch(node: &mut Node, epoch: u64) {
        let pools = node.processor().pool_ids().len() as u64;
        if epoch > 1 {
            node.begin_epoch(None);
        }
        for round in 0..ROUNDS {
            let global = (epoch - 1) * ROUNDS + round;
            let txs: Vec<AmmTx> = (0..4u64)
                .map(|i| {
                    let ui = 1 + (global + i) % (2 * pools);
                    let amt = 1_000_000 + global * 1000 + i * 7;
                    let dir = (global + i).is_multiple_of(2);
                    swap_tx(user(ui), ((ui - 1) % pools) as u32, amt as u128, dir)
                })
                .collect();
            let batch: Vec<(&AmmTx, usize)> = txs.iter().map(|tx| (tx, 1008)).collect();
            node.step_round(epoch, round, global, &batch);
        }
        let sealed = node.close_epoch(epoch);
        assert!(!sealed.payouts.is_empty() && sealed.payouts.len() <= 2 * pools as usize);
    }

    /// Checkpoints `node` at `epoch` and returns the snapshot.
    pub(crate) fn snapshot_at(node: &mut Node, epoch: u64) -> Snapshot {
        node.checkpoint(epoch);
        node.last_snapshot().expect("just taken").clone()
    }

    /// Asserts that a caught-up `node` is byte-identical to `live`, which
    /// never pruned: the same processor state, the same ledger as
    /// retention leaves it, the same state root at `epoch`.
    fn assert_same_state(node: &mut Node, live: &mut Node, epoch: u64) {
        let (ours, theirs) = (node.processor(), live.processor());
        assert_eq!(ours.export_state(), theirs.export_state());
        let (ours, theirs) = (node.ledger(), live.ledger());
        assert_eq!(ours.retained_state(), theirs.retained_state());
        let root = live.checkpoint(epoch).root;
        assert_eq!(node.checkpoint(epoch).root, root, "state roots diverge");
    }

    #[test]
    fn restored_node_catches_up_byte_identically() {
        // full-history node: 5 epochs, checkpoint after epoch 2
        let mut full = new_node(1);
        let mut mid_snapshot = None;
        for epoch in 1..=5 {
            run_epoch(&mut full, epoch);
            if epoch == 2 {
                assert_eq!(full.checkpoint(epoch).pools_reencoded, 1);
                mid_snapshot = full.last_snapshot().cloned();
            }
        }

        // late joiner: restore at epoch 2, fast-sync epochs 3..=5
        let snap = mid_snapshot.unwrap();
        let mut node = Node::restore(&Snapshot::decode(&snap.encode()).unwrap()).unwrap();
        assert_eq!(node.quote_view().epoch(), 2);
        let applied = catch_up(&mut node, full.ledger(), ROUNDS).unwrap();
        assert_eq!(applied, 3);
        assert_eq!(node.quote_view().epoch(), 5);
        assert_same_state(&mut node, &mut full, 5);
    }

    #[test]
    fn multi_pool_node_checkpoints_and_catches_up() {
        // the same drill across 4 pools: one snapshot covers them all
        let mut full = new_node(4);
        let mut mid = None;
        for epoch in 1..=4 {
            run_epoch(&mut full, epoch);
            if epoch == 2 {
                let snap = snapshot_at(&mut full, epoch);
                assert_eq!(full.last_checkpoint().unwrap().pools_total, 4);
                assert_eq!(snap.pool_sections().count(), 4);
                mid = Some(snap);
            }
        }
        let mut node = Node::restore(&Snapshot::decode(&mid.unwrap().encode()).unwrap()).unwrap();
        assert_eq!(node.processor().pool_ids().len(), 4);
        let applied = catch_up(&mut node, full.ledger(), ROUNDS).unwrap();
        assert_eq!(applied, 2);
        assert_same_state(&mut node, &mut full, 4);
    }

    #[test]
    fn crash_during_checkpoint_recovers_to_identical_root() {
        use ammboost_state::store::CrashPoint;
        // the node commits its epoch-1 checkpoint cleanly, then crashes
        // while writing the epoch-2 one — at several torn byte offsets
        // and at each journal step — and must always come back, catch up
        // epochs 3..=4 from a peer, and land on the uninterrupted root
        let mut full = new_node(2);
        run_epoch(&mut full, 1);
        let snap1 = snapshot_at(&mut full, 1);
        run_epoch(&mut full, 2);
        let snap2 = snapshot_at(&mut full, 2);
        run_epoch(&mut full, 3);
        run_epoch(&mut full, 4);
        let ref_root = full.checkpoint(4).root;

        let torn_len = snap2.encode().len();
        let crashes = [
            CrashPoint::DuringStage { offset: 0 },
            CrashPoint::DuringStage {
                offset: torn_len / 2,
            },
            CrashPoint::DuringStage {
                offset: torn_len - 1,
            },
            CrashPoint::BeforeMark,
            CrashPoint::BeforeInstall,
        ];
        for crash in crashes {
            let mut store = CheckpointStore::new();
            store.commit(&snap1, None).unwrap();
            store.commit(&snap2, Some(crash)).unwrap_err();
            let (mut node, outcome, applied) =
                recover_node(&mut store, full.ledger(), ROUNDS).unwrap();
            match crash {
                CrashPoint::BeforeInstall => {
                    assert_eq!(outcome, RecoveryOutcome::RolledForward { epoch: 2 });
                    assert_eq!(applied, 2);
                }
                _ => {
                    assert!(matches!(outcome, RecoveryOutcome::DiscardedTorn { .. }));
                    assert_eq!(applied, 3, "re-replays epoch 2 too");
                }
            }
            assert_eq!(node.checkpoint(4).root, ref_root, "{crash:?} diverged");
        }

        // a first-ever checkpoint torn before anything was committed
        // leaves nothing to restore from — typed, not a panic
        let mut empty = CheckpointStore::new();
        empty
            .commit(&snap1, Some(CrashPoint::BeforeMark))
            .unwrap_err();
        assert_eq!(
            recover_node(&mut empty, full.ledger(), ROUNDS).err(),
            Some(NodeRestoreError::Store(StoreError::NothingCommitted))
        );
    }

    #[test]
    fn catch_up_rejects_overpruned_source() {
        let mut full = new_node(1);
        run_epoch(&mut full, 1);
        let snap = snapshot_at(&mut full, 1);
        run_epoch(&mut full, 2);
        run_epoch(&mut full, 3);
        // the source drops epoch 2's raw history before the node synced
        full.prune_epoch(2).unwrap();
        let mut node = Node::restore(&snap).unwrap();
        assert!(matches!(
            catch_up(&mut node, full.ledger(), ROUNDS),
            Err(NodeRestoreError::BadChain(_))
        ));
    }

    #[test]
    fn clean_shards_reuse_cached_pool_sections() {
        // 3 pools; only pool 1 trades after the first checkpoint — the
        // next checkpoint re-encodes exactly that pool
        let mut node = new_node(3);
        run_epoch(&mut node, 1);
        let s1 = node.checkpoint(1);
        assert_eq!(s1.pools_reencoded, 3, "first checkpoint encodes all");

        node.begin_epoch(None);
        let tx = swap_tx(user(2), 1, 1_000_000, true);
        assert_eq!(node.step_round(2, 0, 99, &[(&tx, 1008)]).accepted(), 1);
        node.close_epoch(2);
        let stats = node.checkpoint(2);
        assert_eq!(stats.pools_reencoded, 1, "only the traded pool re-encodes");
        assert_eq!(stats.pools_reused, 2);
        let delta = node
            .last_delta()
            .expect("second checkpoint carries a delta");
        assert_eq!(delta.base_epoch, 1);
        assert_eq!(delta.root, stats.root);
    }

    #[test]
    fn restore_rejects_pool_section_claimed_by_no_shard() {
        // pools {0, 1}; stripping pool 1's meta leaves its section
        // unclaimed — restore must fail closed instead of silently
        // dropping the pool's state
        let mut processor = EpochProcessor::new([PoolId(0), PoolId(1)]);
        processor.snapshot_bank([(user(1), (1_000u128, 1_000u128))]);
        let ledger = Ledger::new(H256::hash(b"unclaimed"));
        let snap = checkpoint_node(&mut Checkpointer::new(), 1, &mut processor, &ledger).snapshot;
        let snap = with_meta(snap, |meta| {
            meta.pools.pop();
        });
        assert!(matches!(
            Node::restore(&snap),
            Err(NodeRestoreError::UnclaimedPool(PoolId(1)))
        ));
    }

    #[test]
    fn restore_rejects_malformed_processor_meta_typed() {
        // 3 pools, 9 depositors: each crafted and re-sealed snapshot
        // passes the root check and must fail restore with its own error
        let mut node = new_node(3);
        run_epoch(&mut node, 1);
        let snap = snapshot_at(&mut node, 1);
        assert!(Node::restore(&snap).is_ok());
        let restore =
            |edit: &dyn Fn(&mut ProcessorMeta)| Node::restore(&with_meta(snap.clone(), edit)).err();
        // pool metas out of order or repeated pair with the wrong section
        assert_eq!(
            restore(&|m| m.pools.swap(0, 2)),
            Some(NodeRestoreError::UnclaimedPool(PoolId(0)))
        );
        assert_eq!(
            restore(&|m| m.pools[1] = m.pools[0].clone()),
            Some(NodeRestoreError::MissingPool(PoolId(0)))
        );
        assert_eq!(
            restore(&|m| m.pools[2] = m.pools[1].clone()),
            Some(NodeRestoreError::MissingPool(PoolId(1)))
        );
        // no pool meta at all
        assert_eq!(
            restore(&|m| m.pools.clear()),
            Some(NodeRestoreError::Restore(RestoreError::MissingSection(
                "pool meta records"
            )))
        );
        // a first-touch record for a user with no deposit
        assert_eq!(
            restore(&|m| m.opening.push((user(999), (0, 0)))),
            Some(NodeRestoreError::OpeningWithoutDeposit { user: user(999) })
        );
    }

    #[test]
    fn restore_rejects_every_truncated_processor_meta() {
        let mut node = new_node(2);
        run_epoch(&mut node, 1);
        let snap = snapshot_at(&mut node, 1);
        let len = snap
            .section(SectionKind::Aux(AUX_PROCESSOR_META))
            .unwrap()
            .bytes
            .len();
        for cut in 0..len {
            let torn = with_meta_bytes(snap.clone(), |bytes| bytes.truncate(cut));
            assert!(
                matches!(
                    Node::restore(&torn),
                    Err(NodeRestoreError::Restore(RestoreError::Codec(_)))
                ),
                "cut at {cut} of {len}"
            );
        }
    }

    #[test]
    fn restore_rejects_inconsistent_ledger_section_typed() {
        // a node that kept every block: epochs 1 and 2 sealed, then two
        // rounds of epoch 3 (see `mid_epoch_checkpoint_keeps_the_open_epoch`)
        let mut node = new_node(2);
        run_epoch(&mut node, 1);
        run_epoch(&mut node, 2);
        node.begin_epoch(None);
        for round in 0..2 {
            let tx = swap_tx(user(1), 0, 1_000_000 + round as u128, true);
            node.step_round(3, round, 2 * ROUNDS + round, &[(&tx, 1008)]);
        }
        let snap = snapshot_at(&mut node, 3);
        assert!(Node::restore(&snap).is_ok());
        let invalid =
            |edit: &dyn Fn(&mut LedgerState)| match Node::restore(&with_ledger(snap.clone(), edit))
            {
                Err(NodeRestoreError::Restore(RestoreError::InvalidLedger(e))) => e,
                other => panic!("expected a ledger error, got {:?}", other.err()),
            };
        // a summarised epoch's blocks, which retention drops
        let sealed = node.ledger().meta_blocks(2).to_vec();
        assert_eq!(
            invalid(&|state| state.meta.insert(0, (2, sealed.clone()))),
            LedgerStateError::MetaOutsideOpenEpoch {
                epoch: 2,
                open_epoch: 3
            }
        );
        // summaries out of order, or with a gap
        assert_eq!(
            invalid(&|state| state.summaries.swap(0, 1)),
            LedgerStateError::SummaryOutOfSequence {
                index: 0,
                epoch: 2,
                expected: 1
            }
        );
        assert_eq!(
            invalid(&|state| {
                state.summaries.remove(0);
            }),
            LedgerStateError::SummaryOutOfSequence {
                index: 0,
                epoch: 2,
                expected: 1
            }
        );
        // the tip is the last block's id and is not stored; a genesis
        // reference stands in for it only while the ledger holds no block
        let misplaced = LedgerStateError::MisplacedGenesis;
        assert_eq!(
            invalid(&|state| state.genesis = Some(H256::hash(b"fork"))),
            misplaced
        );
        let mut fresh = EpochProcessor::new([PoolId(0)]);
        let ledger = Ledger::new(H256::hash(b"genesis"));
        let empty = checkpoint_node(&mut Checkpointer::new(), 0, &mut fresh, &ledger).snapshot;
        assert_eq!(Node::restore(&empty).unwrap().ledger().tip(), ledger.tip());
        assert_eq!(
            Node::restore(&with_ledger(empty, |state| state.genesis = None)).err(),
            Some(NodeRestoreError::Restore(RestoreError::InvalidLedger(
                misplaced
            )))
        );
        // a size that is not what the blocks add up to
        let declared = node.ledger().retained_bytes().current;
        assert_eq!(
            invalid(&|state| state.current_bytes -= 1),
            LedgerStateError::SizeMismatch {
                declared: declared - 1,
                computed: declared
            }
        );
    }

    #[test]
    fn restore_rejects_every_truncated_ledger_section() {
        let mut node = new_node(1);
        run_epoch(&mut node, 1);
        let snap = snapshot_at(&mut node, 1);
        let len = snap.section(SectionKind::Ledger).unwrap().bytes.len();
        for cut in 0..len {
            let torn = resealed(snap.clone(), |sections| {
                let section = sections
                    .iter_mut()
                    .find(|s| s.kind == SectionKind::Ledger)
                    .unwrap();
                section.bytes.truncate(cut);
            });
            assert!(
                matches!(
                    Node::restore(&torn),
                    Err(NodeRestoreError::Restore(RestoreError::Codec(_)))
                ),
                "cut at {cut} of {len}"
            );
        }
    }

    #[test]
    fn mid_epoch_checkpoint_keeps_the_open_epoch() {
        // two nodes run epochs 1..=2, pruning behind each checkpoint as
        // `System` does, then two rounds of epoch 3; an on-demand
        // checkpoint there keeps those rounds' blocks
        let txs: Vec<AmmTx> = (0..ROUNDS)
            .map(|round| swap_tx(user(1 + round), 0, 2_000_000 + round as u128, round == 1))
            .collect();
        let step = |node: &mut Node, round: u64| {
            let batch = [(&txs[round as usize], 1008)];
            node.step_round(3, round, 2 * ROUNDS + round, &batch);
        };
        let mut live = new_node(2);
        for epoch in 1..=2 {
            run_epoch(&mut live, epoch);
            live.checkpoint(epoch);
            live.prune_to_snapshot(epoch, ammboost_state::RetentionPolicy::default());
        }
        live.begin_epoch(None);
        for round in 0..2 {
            step(&mut live, round);
        }
        let snap = snapshot_at(&mut live, 3);
        let state =
            LedgerState::decode_all(&snap.section(SectionKind::Ledger).unwrap().bytes).unwrap();
        assert_eq!(state.meta.len(), 1);
        assert_eq!(state.meta[0].0, 3);
        assert_eq!(state.meta[0].1, live.ledger().meta_blocks(3));

        // the restored node finishes the epoch and seals the same summary;
        // a second one follows the live node's blocks after those it holds
        let mut node = Node::restore(&snap).unwrap();
        let mut follower = Node::restore(&snap).unwrap();
        assert_eq!(node.ledger().retained_meta().len(), 2);
        for n in [&mut live, &mut node] {
            for round in 2..ROUNDS {
                step(n, round);
            }
        }
        assert_eq!(node.close_epoch(3), live.close_epoch(3));
        assert_eq!(catch_up(&mut follower, live.ledger(), ROUNDS), Ok(1));
        let summary = node.ledger().summaries().last().unwrap();
        assert_eq!(summary, live.ledger().summaries().last().unwrap());
        assert_eq!(summary.meta_refs.len(), ROUNDS as usize);
        for n in [&mut node, &mut follower] {
            assert_eq!(n.ledger().export_state(), live.ledger().export_state());
            assert_eq!(n.checkpoint(3).root, live.checkpoint(3).root);
        }
    }

    #[test]
    fn restore_rejects_missing_shard_pool_section() {
        let mut node = new_node(2);
        run_epoch(&mut node, 1);
        let snap = resealed(snapshot_at(&mut node, 1), |sections| {
            sections.retain(|s| s.kind != SectionKind::Pool(1))
        });
        assert!(matches!(
            Node::restore(&snap),
            Err(NodeRestoreError::MissingPool(PoolId(1)))
        ));
    }

    #[test]
    fn fast_sync_lands_on_the_declared_root_and_every_page_is_checked() {
        // a joining node decodes a snapshot off the wire and restores it:
        // the restored root is the one the wire declares, and a flipped
        // byte in any page of any section is caught at decode
        let mut node = new_node(2);
        for epoch in 1..=3 {
            run_epoch(&mut node, epoch);
        }
        let snap = snapshot_at(&mut node, 3);
        let wire = snap.encode();
        let declared = H256(wire[14..46].try_into().unwrap());
        assert_eq!(declared, snap.root());
        let mut restored = Node::restore(&Snapshot::decode(&wire).unwrap()).unwrap();
        assert_eq!(restored.checkpoint(3).root, declared);

        // each section's payload sits after its kind and length prefix
        let mut at = 4 + 2 + 8 + 32 + 4;
        let mut pages = 0;
        for section in snap.sections() {
            at += section.kind.encode_to_vec().len() + 4;
            for start in (0..section.bytes.len()).step_by(PAGE_SIZE) {
                let mut bytes = wire.clone();
                bytes[at + start + (start / PAGE_SIZE) % 7] ^= 0x20;
                assert_eq!(
                    Snapshot::decode(&bytes),
                    Err(CodecError::RootMismatch),
                    "{:?} page {}",
                    section.kind,
                    start / PAGE_SIZE
                );
                pages += 1;
            }
            at += section.bytes.len();
        }
        assert_eq!(at, wire.len());
        assert!(pages > snap.sections().len(), "multi-page sections");
    }
}
