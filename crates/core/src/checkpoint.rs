//! Node-level checkpoint, restore and fast-sync catch-up.
//!
//! A sidechain node's durable state is its [`ShardMap`] (one pool +
//! deposit ledger + epoch bookkeeping per shard) and its [`Ledger`]. This
//! module maps that state onto the `ammboost-state` snapshot format:
//!
//! - [`checkpoint_node`] — builds one Merkle-committed [`Snapshot`]
//!   covering **all shards** through a [`Checkpointer`] (clean pools
//!   reuse their cached encoding; only dirty shards are re-encoded);
//! - [`restore_node`] — rebuilds a working shard map + ledger from a
//!   snapshot, with each pool's derived tick index regenerated;
//! - [`catch_up`] — fast-sync: a node restored at epoch *k* re-executes
//!   the meta-blocks sealed after *k* from a peer's ledger — routing each
//!   transaction to its shard — and verifies each recorded effect and
//!   each summary block against its own re-execution, ending
//!   byte-identical to a node that replayed full history.

use crate::processor::EpochProcessor;
use crate::shard::ShardMap;
use ammboost_amm::types::{PoolId, PositionId};
use ammboost_crypto::Address;
use ammboost_sidechain::block::SummaryBlock;
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

/// Aux-section tag carrying the node's processor meta: which shard
/// owns each deposit, plus each shard's epoch bookkeeping (everything in
/// a shard's [`crate::processor::ProcessorState`] not already covered by
/// the pool and deposits sections).
pub const AUX_PROCESSOR_META: u8 = 1;

/// The processor-meta aux section. Shard membership is stored once: the
/// deposits section holds each depositor's address and balance, and
/// `shard_of` holds one fixed-width shard index per entry of that
/// section, in its address order. The index list comes first, so a change
/// in length of the per-shard lists behind it never shifts it.
#[derive(Clone, Debug, PartialEq, Eq)]
struct ProcessorMeta {
    /// For the deposits section's `i`-th entry, the position in `shards`
    /// of the shard that owns it (a node has at most 65 536 shards).
    shard_of: Vec<u16>,
    /// One record per shard, strictly ascending by pool id — the order
    /// `shard_of` indexes.
    shards: Vec<ShardMeta>,
}

impl Encode for ProcessorMeta {
    fn encode(&self, w: &mut ByteWriter) {
        self.shard_of.encode(w);
        self.shards.encode(w);
    }
}

impl Decode for ProcessorMeta {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(ProcessorMeta {
            shard_of: r.get()?,
            shards: r.get()?,
        })
    }
}

/// One shard's epoch bookkeeping, riding next to the pool sections. Which
/// users the shard holds deposits for is not here but in
/// [`ProcessorMeta::shard_of`].
#[derive(Clone, Debug, PartialEq, Eq)]
struct ShardMeta {
    pool_id: PoolId,
    touched: Vec<PositionId>,
    deleted: Vec<(PositionId, Address)>,
    preexisting: Vec<PositionId>,
    accepted: u64,
    rejected: u64,
    /// While an epoch is open, its first-touch record
    /// ([`Deposits::opening_balances`]), ascending by address; empty at
    /// an epoch boundary, where the next epoch's start drops it anyway.
    opening: Vec<(Address, (u128, u128))>,
}

impl Encode for ShardMeta {
    fn encode(&self, w: &mut ByteWriter) {
        self.pool_id.encode(w);
        self.touched.encode(w);
        self.deleted.encode(w);
        self.preexisting.encode(w);
        w.put_u64(self.accepted);
        w.put_u64(self.rejected);
        self.opening.encode(w);
    }
}

impl Decode for ShardMeta {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let meta = ShardMeta {
            pool_id: r.get()?,
            touched: r.get()?,
            deleted: r.get()?,
            preexisting: r.get()?,
            accepted: r.take_u64()?,
            rejected: r.take_u64()?,
            opening: r.get()?,
        };
        ensure_sorted_keys(&meta.opening)?;
        Ok(meta)
    }
}

/// Why a node restore or catch-up failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeRestoreError {
    /// The snapshot failed to restore.
    Restore(RestoreError),
    /// The snapshot has no pool section for a shard named in the
    /// processor meta.
    MissingPool(PoolId),
    /// The shard-index list does not hold exactly one index per entry of
    /// the deposits section.
    MembershipLength {
        /// Indices in the processor meta.
        indices: usize,
        /// Entries in the deposits section.
        deposits: usize,
    },
    /// A shard index names no shard.
    UnknownShard {
        /// The offending index.
        index: u16,
        /// Shards the processor meta describes.
        shards: usize,
    },
    /// The shard metas are not strictly ascending by pool id, the order
    /// the shard indices refer to.
    UnsortedShardMetas,
    /// The snapshot carries a pool section no shard meta claims —
    /// restoring would silently drop that pool's state.
    UnclaimedPool(PoolId),
    /// A shard's first-touch record names a user the shard holds no
    /// deposit for.
    OpeningWithoutDeposit {
        /// The shard.
        pool: PoolId,
        /// The user.
        user: Address,
    },
    /// A replayed transaction's effect diverged from the one recorded in
    /// the meta-block — the snapshot or the block stream is inconsistent.
    EffectMismatch {
        /// Epoch of the divergent block.
        epoch: u64,
        /// Round of the divergent block.
        round: u64,
    },
    /// A replayed epoch's summary diverged from the sealed summary block.
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
            NodeRestoreError::MembershipLength { indices, deposits } => {
                write!(f, "{indices} shard indices for {deposits} deposit entries")
            }
            NodeRestoreError::UnknownShard { index, shards } => {
                write!(f, "shard index {index} names none of {shards} shards")
            }
            NodeRestoreError::UnsortedShardMetas => {
                write!(f, "shard metas not strictly ascending by pool id")
            }
            NodeRestoreError::UnclaimedPool(id) => {
                write!(f, "snapshot section for {id} is claimed by no shard")
            }
            NodeRestoreError::OpeningWithoutDeposit { pool, user } => {
                write!(
                    f,
                    "{pool} opened the epoch for {user}, who has no deposit there"
                )
            }
            NodeRestoreError::EffectMismatch { epoch, round } => {
                write!(f, "replayed effect diverges in epoch {epoch} round {round}")
            }
            NodeRestoreError::SummaryMismatch { epoch } => {
                write!(f, "replayed summary diverges in epoch {epoch}")
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

/// A node rebuilt from a snapshot, ready to catch up or to serve the next
/// epoch.
#[derive(Debug)]
pub struct NodeRestore {
    /// The epoch the snapshot covered.
    pub epoch: u64,
    /// The restored execution shards (all pools).
    pub shards: ShardMap,
    /// The restored ledger.
    pub ledger: Ledger,
    /// The verified state root the node was restored from.
    pub root: ammboost_crypto::H256,
}

/// Takes one Merkle-committed checkpoint of a node (all shards + ledger)
/// at `epoch`. Each shard's pool section is re-encoded only when that
/// shard reports its pool dirty; clean shards reuse the checkpointer's
/// cached bytes, so the per-epoch snapshot cost scales with the *touched*
/// shards, not the fleet size. From the second checkpoint on, the output
/// also carries the page-granular [`ammboost_state::DeltaSnapshot`]
/// against the previous one, ready for a
/// [`CheckpointStore::commit_delta`] journal append.
pub fn checkpoint_node(
    checkpointer: &mut Checkpointer,
    epoch: u64,
    shards: &mut ShardMap,
    ledger: &Ledger,
) -> CheckpointOutput {
    let output = stage_node(checkpointer, epoch, shards, ledger).commit();
    checkpointer.note_committed(output.stats.epoch, output.stats.root);
    output
}

/// The observing half of [`checkpoint_node`]: reads the node's state at
/// the epoch boundary (dirty flags, section encodings, shard metas) and
/// returns a [`StagedCheckpoint`] that owns every byte the Merkle-hashing
/// `commit()` needs, which makes the commit a pure function of those
/// bytes and the checkpointer's page-hash cache. The node commits at once;
/// the split exists so a caller (the benchmark's traced replica) can time
/// the two halves as separate spans.
///
/// [`StagedCheckpoint`]: ammboost_state::StagedCheckpoint
pub fn stage_node<'a>(
    checkpointer: &'a mut Checkpointer,
    epoch: u64,
    shards: &mut ShardMap,
    ledger: &Ledger,
) -> ammboost_state::StagedCheckpoint<'a> {
    for shard in shards.iter_mut() {
        if shard.take_pool_dirty() {
            checkpointer.mark_dirty(shard.pool_id());
        }
    }
    // bookkeeping only — no pool clone, so a clean shard's checkpoint
    // cost stays proportional to its (small) epoch metadata; the shard
    // indices and the global deposits section come from one sort
    let (shard_of, deposits) = shards.deposit_export();
    // an epoch is open once its first meta-block is in; its summary will
    // need the first-touch record
    let epoch_open = !ledger.retained_meta().is_empty();
    let meta = ProcessorMeta {
        shard_of,
        shards: shards
            .iter()
            .map(|shard| ShardMeta {
                pool_id: shard.pool_id(),
                touched: shard.touched_positions(),
                deleted: shard.deleted_positions(),
                preexisting: shard.preexisting_positions(),
                accepted: shard.stats().accepted,
                rejected: shard.stats().rejected,
                opening: if epoch_open {
                    shard.deposits().opening_balances()
                } else {
                    Vec::new()
                },
            })
            .collect(),
    };
    let pools: Vec<(PoolId, &ammboost_amm::Engine)> = shards
        .iter()
        .map(|shard| (shard.pool_id(), shard.pool()))
        .collect();
    checkpointer.stage(
        epoch,
        &pools,
        ledger,
        &deposits,
        vec![(AUX_PROCESSOR_META, meta.encode_to_vec())],
    )
}

/// Rebuilds a node from a snapshot: every pool (tick index regenerated),
/// per-shard deposits and epoch bookkeeping, and the ledger as retention
/// left it (summaries and the open epoch's meta-blocks).
///
/// Shard membership is read in one pass: the processor meta's shard
/// indices are zipped with the deposits section (both in address order)
/// into one sorted run per shard, each run becomes its shard's
/// [`Deposits`], and [`ShardMap::from_processors`] derives the
/// user → home-shard routing from those. No other address-keyed map is
/// built. A deposit can therefore belong to exactly one shard by
/// construction; what restore checks is that the indices fit.
///
/// # Errors
/// Fails on missing/malformed sections or invalid pool state; on a shard
/// index list whose length differs from the deposits count
/// ([`NodeRestoreError::MembershipLength`]) or an index that names no
/// shard ([`NodeRestoreError::UnknownShard`]); on shard metas not strictly
/// ascending by pool id ([`NodeRestoreError::UnsortedShardMetas`]); on a
/// shard meta without its pool section or a pool section without its
/// shard meta; on a shard's first-touch record naming a user it holds no
/// deposit for ([`NodeRestoreError::OpeningWithoutDeposit`]); and on a
/// ledger section that contradicts itself
/// ([`RestoreError::InvalidLedger`]).
pub fn restore_node(snapshot: &Snapshot) -> Result<NodeRestore, NodeRestoreError> {
    let meta_section = snapshot
        .section(SectionKind::Aux(AUX_PROCESSOR_META))
        .ok_or(NodeRestoreError::Restore(RestoreError::MissingSection(
            "processor meta",
        )))?;
    let ProcessorMeta { shard_of, shards } = ProcessorMeta::decode_all(&meta_section.bytes)?;
    if shards.is_empty() {
        return Err(NodeRestoreError::Restore(RestoreError::MissingSection(
            "shard meta records",
        )));
    }
    if shards.windows(2).any(|w| w[0].pool_id >= w[1].pool_id) {
        return Err(NodeRestoreError::UnsortedShardMetas);
    }
    let mut run_len = vec![0usize; shards.len()];
    for &index in &shard_of {
        *run_len
            .get_mut(usize::from(index))
            .ok_or(NodeRestoreError::UnknownShard {
                index,
                shards: shards.len(),
            })? += 1;
    }

    // the state subsystem owns section decoding, validation (including
    // sorted-key checks) and pool reconstruction — one restore path
    let restored = ammboost_state::sync::restore(snapshot)?;
    if shard_of.len() != restored.deposits.len() {
        return Err(NodeRestoreError::MembershipLength {
            indices: shard_of.len(),
            deposits: restored.deposits.len(),
        });
    }
    // the deposits section is ascending by address, so each shard's run
    // comes out ascending too
    let mut runs: Vec<Vec<(Address, (u128, u128))>> =
        run_len.into_iter().map(Vec::with_capacity).collect();
    for (&index, entry) in shard_of.iter().zip(restored.deposits) {
        runs[usize::from(index)].push(entry);
    }

    // pool sections and shard metas are both ascending by pool id, so one
    // walk pairs them; a section left over would drop a shard's state
    let mut pools = restored.pools.into_iter().peekable();
    let mut processors = Vec::with_capacity(shards.len());
    for (meta, run) in shards.into_iter().zip(runs) {
        if let Some((id, _)) = pools.next_if(|(id, _)| *id < meta.pool_id) {
            return Err(NodeRestoreError::UnclaimedPool(id));
        }
        let (_, pool) = pools
            .next_if(|(id, _)| *id == meta.pool_id)
            .ok_or(NodeRestoreError::MissingPool(meta.pool_id))?;
        let mut deposits = Deposits::from_sorted_entries(run);
        deposits
            .reopen(meta.opening)
            .map_err(|user| NodeRestoreError::OpeningWithoutDeposit {
                pool: meta.pool_id,
                user,
            })?;
        processors.push(EpochProcessor::from_restored(
            pool,
            meta.pool_id,
            deposits,
            meta.touched,
            meta.deleted,
            meta.preexisting,
            crate::processor::ProcessorStats {
                accepted: meta.accepted,
                rejected: meta.rejected,
            },
        ));
    }
    if let Some((id, _)) = pools.next() {
        return Err(NodeRestoreError::UnclaimedPool(id));
    }

    Ok(NodeRestore {
        epoch: restored.epoch,
        shards: ShardMap::from_processors(processors),
        ledger: restored.ledger,
        root: restored.root,
    })
}

/// Fast-sync catch-up: re-executes every epoch sealed after the node's
/// snapshot epoch from `source`'s retained blocks — routing every
/// transaction to its shard — verifying each recorded transaction effect
/// and each summary block against the node's own re-execution, and
/// appending the blocks to the node's ledger.
///
/// `rounds_per_epoch` reproduces the global round numbers transactions
/// were originally executed at (deadline checks depend on them).
///
/// Returns the number of epochs applied.
///
/// # Errors
/// Fails when a block does not chain, when the source pruned an epoch the
/// node still needs, or when re-execution diverges from the recorded
/// effects (inconsistent snapshot/stream).
pub fn catch_up(
    node: &mut NodeRestore,
    source: &Ledger,
    rounds_per_epoch: u64,
) -> Result<u64, NodeRestoreError> {
    let mut applied = 0u64;
    let last_sealed = source.last_summary_epoch();
    for epoch in (node.epoch + 1)..=last_sealed {
        // A new committee takes over without a fresh TokenBank snapshot:
        // deposit tracking carries forward exactly as in a mass-sync epoch.
        node.shards.carry_over_epoch();
        let metas = source.meta_blocks(epoch);
        if metas.is_empty() {
            return Err(NodeRestoreError::BadChain(format!(
                "source pruned epoch {epoch} before the node could sync it"
            )));
        }
        for block in metas {
            // replay the block as one batch: plain transactions keep
            // their per-pool order and routed transactions re-enter the
            // same two-phase wave schedule they were mined under, so the
            // replay is bit-identical to live execution
            let global_round = (epoch - 1) * rounds_per_epoch + block.round;
            let batch: Vec<(&ammboost_amm::tx::AmmTx, usize)> =
                block.txs.iter().map(|t| (&t.tx, t.wire_size)).collect();
            let replayed = node
                .shards
                .execute_batch(&batch, global_round, crate::shard::ExecMode);
            for (replay, recorded) in replayed.iter().zip(&block.txs) {
                if replay.effect != recorded.effect {
                    return Err(NodeRestoreError::EffectMismatch {
                        epoch,
                        round: block.round,
                    });
                }
            }
            node.ledger
                .append_meta(block.clone())
                .map_err(|e| NodeRestoreError::BadChain(e.to_string()))?;
        }
        // a ledger's summaries seal epochs 1, 2, … in order (it is built
        // by appends or by a checked `Ledger::from_state`), so this
        // epoch's is at `epoch - 1`
        let sealed: &SummaryBlock = &source.summaries()[(epoch - 1) as usize];
        // the node's own summary rules must reproduce the sealed block
        let (payouts, positions, pools) = node.shards.end_epoch();
        if payouts != sealed.payouts || positions != sealed.positions || pools != sealed.pools {
            return Err(NodeRestoreError::SummaryMismatch { epoch });
        }
        node.ledger
            .append_summary(sealed.clone())
            .map_err(|e| NodeRestoreError::BadChain(e.to_string()))?;
        node.epoch = epoch;
        applied += 1;
    }
    Ok(applied)
}

/// Crash recovery: brings a node back up from a (possibly torn)
/// [`CheckpointStore`] and a peer's ledger. The store's journal is
/// recovered first — rolling a marked, complete staged write forward,
/// discarding anything torn — then the last committed snapshot is
/// restored and the epochs sealed after it are replayed via [`catch_up`].
/// Whatever byte a crash interrupted the checkpoint write at, the node
/// ends on the same state root as one that never crashed.
///
/// Returns the rebuilt node, what recovery found in the journal, and the
/// number of epochs replayed.
///
/// # Errors
/// [`NodeRestoreError::Store`] when the store holds no committed
/// snapshot; otherwise any [`restore_node`]/[`catch_up`] failure.
pub fn recover_node(
    store: &mut CheckpointStore,
    source: &Ledger,
    rounds_per_epoch: u64,
) -> Result<(NodeRestore, RecoveryOutcome, u64), NodeRestoreError> {
    let outcome = store.recover();
    let snapshot = store.latest()?;
    let mut node = restore_node(&snapshot)?;
    let applied = catch_up(&mut node, source, rounds_per_epoch)?;
    Ok((node, outcome, applied))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Node;
    use ammboost_amm::tx::{AmmTx, SwapIntent, SwapTx};
    use ammboost_crypto::H256;
    use ammboost_sidechain::ledger::{LedgerState, LedgerStateError};
    use ammboost_state::snapshot::Section;
    use ammboost_state::PAGE_SIZE;
    use std::collections::HashMap;

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

    fn user(i: u64) -> Address {
        Address::from_index(i)
    }

    fn swap_tx(u: Address, pool: u32, amount: u128, zero_for_one: bool) -> AmmTx {
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

    const ROUNDS: u64 = 3;

    /// A tiny sharded node: users 1..=3·pools are homed round-robin on the
    /// pool set; the last `pools` of them never trade, so every summary
    /// lists a strict subset of the depositors.
    fn new_node(pools: u32) -> Node {
        let mut shards = ShardMap::new((0..pools).map(PoolId));
        for p in 0..pools {
            shards.seed_liquidity(
                PoolId(p),
                user(99),
                -60_000,
                60_000,
                10u128.pow(13),
                10u128.pow(13),
            );
        }
        let mut node = Node::new(shards, Ledger::new(H256::hash(b"genesis")));
        let users = 3 * pools as u64;
        let bucket = (1..=users)
            .map(|i| (user(i), (5_000_000_000u128, 5_000_000_000u128)))
            .collect();
        node.begin_epoch(Some(bucket), |a| {
            (1..=users)
                .find(|i| user(*i) == *a)
                .map(|i| PoolId(((i - 1) % pools as u64) as u32))
        });
        node
    }

    /// Executes `epoch`'s rounds of swaps into meta-blocks and seals it.
    fn run_epoch(node: &mut Node, epoch: u64) {
        let pools = node.shards().len() as u64;
        if epoch > 1 {
            node.begin_epoch(None, |_| None);
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
    fn snapshot_at(node: &mut Node, epoch: u64) -> Snapshot {
        node.checkpoint(epoch);
        node.last_snapshot().expect("just taken").clone()
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
        let mut node = restore_node(&Snapshot::decode(&snap.encode()).unwrap()).unwrap();
        assert_eq!(node.epoch, 2);
        let applied = catch_up(&mut node, full.ledger(), ROUNDS).unwrap();
        assert_eq!(applied, 3);

        // byte-identical: same shard states, same state root as the
        // uninterrupted node, which never pruned; the ledgers agree on
        // what retention leaves of them
        assert_eq!(node.ledger.retained_state(), full.ledger().retained_state());
        assert_eq!(node.shards.export_states(), full.shards().export_states());
        let a = checkpoint_node(&mut Checkpointer::new(), 5, &mut node.shards, &node.ledger);
        assert_eq!(a.stats.root, full.checkpoint(5).root, "state roots diverge");
    }

    #[test]
    fn multi_pool_node_checkpoints_and_catches_up() {
        // the same drill across 4 shards: one snapshot covers all pools
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
        let mut node = restore_node(&Snapshot::decode(&mid.unwrap().encode()).unwrap()).unwrap();
        assert_eq!(node.shards.len(), 4);
        let applied = catch_up(&mut node, full.ledger(), ROUNDS).unwrap();
        assert_eq!(applied, 2);
        assert_eq!(node.shards.export_states(), full.shards().export_states());
        assert_eq!(node.ledger.retained_state(), full.ledger().retained_state());
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
            let got = checkpoint_node(&mut Checkpointer::new(), 4, &mut node.shards, &node.ledger)
                .snapshot;
            assert_eq!(got.root(), ref_root, "{crash:?} diverged");
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
        let mut node = restore_node(&snap).unwrap();
        assert!(matches!(
            catch_up(&mut node, full.ledger(), ROUNDS),
            Err(NodeRestoreError::BadChain(_))
        ));
    }

    #[test]
    fn clean_shards_reuse_cached_pool_sections() {
        // 3 shards; only pool 1 trades after the first checkpoint — the
        // next checkpoint re-encodes exactly that shard
        let mut node = new_node(3);
        run_epoch(&mut node, 1);
        let s1 = node.checkpoint(1);
        assert_eq!(s1.pools_reencoded, 3, "first checkpoint encodes all");

        node.begin_epoch(None, |_| None);
        let tx = swap_tx(user(2), 1, 1_000_000, true);
        assert_eq!(node.step_round(2, 0, 99, &[(&tx, 1008)]).accepted(), 1);
        node.close_epoch(2);
        let stats = node.checkpoint(2);
        assert_eq!(stats.pools_reencoded, 1, "only the traded shard re-encodes");
        assert_eq!(stats.pools_reused, 2);
        let delta = node
            .last_delta()
            .expect("second checkpoint carries a delta");
        assert_eq!(delta.base_epoch, 1);
        assert_eq!(delta.root, stats.root);
    }

    #[test]
    fn restore_rejects_pool_section_claimed_by_no_shard() {
        // shards {0, 1}, all deposits routed to pool 0; stripping pool
        // 1's meta leaves its section unclaimed — restore must fail
        // closed instead of silently dropping the shard's state
        let mut shards = ShardMap::new([PoolId(0), PoolId(1)]);
        let mut snapshot = HashMap::new();
        snapshot.insert(user(1), (1_000u128, 1_000u128));
        shards.begin_epoch(snapshot, |_| Some(PoolId(0)));
        let ledger = Ledger::new(H256::hash(b"unclaimed"));
        let snap = checkpoint_node(&mut Checkpointer::new(), 1, &mut shards, &ledger).snapshot;
        let snap = with_meta(snap, |meta| {
            meta.shards.pop();
        });
        assert!(matches!(
            restore_node(&snap),
            Err(NodeRestoreError::UnclaimedPool(PoolId(1)))
        ));
    }

    #[test]
    fn restore_rejects_malformed_shard_membership_typed() {
        // 3 shards, 9 depositors: each crafted and re-sealed snapshot
        // passes the root check and must fail restore with its own error
        let mut node = new_node(3);
        run_epoch(&mut node, 1);
        let snap = snapshot_at(&mut node, 1);
        assert!(restore_node(&snap).is_ok());
        let restore =
            |edit: &dyn Fn(&mut ProcessorMeta)| restore_node(&with_meta(snap.clone(), edit)).err();
        let length = |indices| {
            Some(NodeRestoreError::MembershipLength {
                indices,
                deposits: 9,
            })
        };
        assert_eq!(
            restore(&|m| {
                m.shard_of.pop();
            }),
            length(8)
        );
        assert_eq!(restore(&|m| m.shard_of.push(0)), length(10));
        for index in [3, u16::MAX] {
            assert_eq!(
                restore(&|m| m.shard_of[4] = index),
                Some(NodeRestoreError::UnknownShard { index, shards: 3 })
            );
        }
        let unsorted = Some(NodeRestoreError::UnsortedShardMetas);
        assert_eq!(restore(&|m| m.shards.swap(0, 2)), unsorted);
        assert_eq!(restore(&|m| m.shards[1] = m.shards[0].clone()), unsorted);
        assert_eq!(restore(&|m| m.shards[2] = m.shards[1].clone()), unsorted);
        // a first-touch record for a user the shard holds nothing for
        assert_eq!(
            restore(&|m| m.shards[1].opening.push((user(999), (0, 0)))),
            Some(NodeRestoreError::OpeningWithoutDeposit {
                pool: PoolId(1),
                user: user(999)
            })
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
                    restore_node(&torn),
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
        node.begin_epoch(None, |_| None);
        for round in 0..2 {
            let tx = swap_tx(user(1), 0, 1_000_000 + round as u128, true);
            node.step_round(3, round, 2 * ROUNDS + round, &[(&tx, 1008)]);
        }
        let snap = snapshot_at(&mut node, 3);
        assert!(restore_node(&snap).is_ok());
        let invalid = |edit: &dyn Fn(&mut LedgerState)| match restore_node(&with_ledger(
            snap.clone(),
            edit,
        )) {
            Err(NodeRestoreError::Restore(RestoreError::InvalidLedger(e))) => e,
            other => panic!("expected a ledger error, got {other:?}"),
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
        let mut fresh = ShardMap::new([PoolId(0)]);
        let ledger = Ledger::new(H256::hash(b"genesis"));
        let empty = checkpoint_node(&mut Checkpointer::new(), 0, &mut fresh, &ledger).snapshot;
        assert_eq!(restore_node(&empty).unwrap().ledger.tip(), ledger.tip());
        assert_eq!(
            restore_node(&with_ledger(empty, |state| state.genesis = None)).err(),
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
                    restore_node(&torn),
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
        live.begin_epoch(None, |_| None);
        for round in 0..2 {
            step(&mut live, round);
        }
        let snap = snapshot_at(&mut live, 3);
        let state =
            LedgerState::decode_all(&snap.section(SectionKind::Ledger).unwrap().bytes).unwrap();
        assert_eq!(state.meta.len(), 1);
        assert_eq!(state.meta[0].0, 3);
        assert_eq!(state.meta[0].1, live.ledger().meta_blocks(3));

        // the restored node finishes the epoch and seals the same summary
        let restored = restore_node(&snap).unwrap();
        assert_eq!(restored.ledger.retained_meta().len(), 2);
        let mut node = Node::new(restored.shards, restored.ledger);
        for n in [&mut live, &mut node] {
            for round in 2..ROUNDS {
                step(n, round);
            }
        }
        assert_eq!(node.close_epoch(3), live.close_epoch(3));
        let summary = node.ledger().summaries().last().unwrap();
        assert_eq!(summary, live.ledger().summaries().last().unwrap());
        assert_eq!(summary.meta_refs.len(), ROUNDS as usize);
        assert_eq!(node.ledger().export_state(), live.ledger().export_state());
        assert_eq!(node.checkpoint(3).root, live.checkpoint(3).root);
    }

    #[test]
    fn restore_rejects_missing_shard_pool_section() {
        let mut node = new_node(2);
        run_epoch(&mut node, 1);
        let snap = resealed(snapshot_at(&mut node, 1), |sections| {
            sections.retain(|s| s.kind != SectionKind::Pool(1))
        });
        assert!(matches!(
            restore_node(&snap),
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
        let restored = restore_node(&Snapshot::decode(&wire).unwrap()).unwrap();
        assert_eq!(restored.root, declared);
        assert_eq!(restored.root, snap.root());

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
