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
//!   snapshot, with each pool's derived tick index regenerated (from the
//!   persisted tick-price table when present);
//! - [`catch_up`] — fast-sync: a node restored at epoch *k* re-executes
//!   the meta-blocks sealed after *k* from a peer's ledger — routing each
//!   transaction to its shard — and verifies each recorded effect and
//!   each summary block against its own re-execution, ending
//!   byte-identical to a node that replayed full history.

use crate::processor::EpochProcessor;
use crate::shard::ShardMap;
use ammboost_amm::types::{PoolId, PositionId};
use ammboost_crypto::{Address, DigestMap};
use ammboost_sidechain::block::SummaryBlock;
use ammboost_sidechain::ledger::Ledger;
use ammboost_sidechain::summary::Deposits;
use ammboost_state::codec::{ByteReader, ByteWriter, CodecError, Decode, Encode};
use ammboost_state::snapshot::{SectionKind, Snapshot};
use ammboost_state::store::{CheckpointStore, RecoveryOutcome, StoreError};
use ammboost_state::sync::RestoreError;
use ammboost_state::{CheckpointOutput, Checkpointer};
use std::fmt;

/// Aux-section tag carrying the per-shard epoch bookkeeping (everything
/// in a shard's [`crate::processor::ProcessorState`] not already covered
/// by the pool and deposits sections, plus each shard's deposit *user
/// list* — the routing that splits the global deposits section back
/// across shards on restore).
pub const AUX_PROCESSOR_META: u8 = 1;

/// One shard's epoch bookkeeping, riding next to the pool sections. The
/// aux section holds one record per shard, ascending by pool id.
#[derive(Clone, Debug, PartialEq, Eq)]
struct ShardMeta {
    pool_id: PoolId,
    /// The addresses whose deposits this shard owns, ascending. Balances
    /// live only in the snapshot's global deposits section; restore
    /// pulls each listed user's entry out of it, so the two can never
    /// drift and the table is stored once.
    users: Vec<Address>,
    touched: Vec<PositionId>,
    deleted: Vec<(PositionId, Address)>,
    preexisting: Vec<PositionId>,
    accepted: u64,
    rejected: u64,
}

impl Encode for ShardMeta {
    fn encode(&self, w: &mut ByteWriter) {
        self.pool_id.encode(w);
        self.users.encode(w);
        self.touched.encode(w);
        self.deleted.encode(w);
        self.preexisting.encode(w);
        w.put_u64(self.accepted);
        w.put_u64(self.rejected);
    }
}

impl Decode for ShardMeta {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(ShardMeta {
            pool_id: r.get()?,
            users: r.get()?,
            touched: r.get()?,
            deleted: r.get()?,
            preexisting: r.get()?,
            accepted: r.take_u64()?,
            rejected: r.take_u64()?,
        })
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
    /// The shard metas and the global deposits section disagree about
    /// which users hold deposits — the snapshot is internally
    /// inconsistent.
    InconsistentDeposits {
        /// What went wrong.
        detail: String,
    },
    /// The snapshot carries a pool section no shard meta claims —
    /// restoring would silently drop that pool's state.
    UnclaimedPool(PoolId),
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
    /// The source ledger seals this epoch (it is ≤ the last summary
    /// epoch) yet carries no summary block for it — a corrupt or
    /// internally inconsistent source.
    MissingSummary {
        /// The epoch whose summary is absent.
        epoch: u64,
    },
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
            NodeRestoreError::InconsistentDeposits { detail } => {
                write!(f, "shard metas disagree with deposits section: {detail}")
            }
            NodeRestoreError::UnclaimedPool(id) => {
                write!(f, "snapshot section for {id} is claimed by no shard")
            }
            NodeRestoreError::EffectMismatch { epoch, round } => {
                write!(f, "replayed effect diverges in epoch {epoch} round {round}")
            }
            NodeRestoreError::SummaryMismatch { epoch } => {
                write!(f, "replayed summary diverges in epoch {epoch}")
            }
            NodeRestoreError::BadChain(detail) => write!(f, "block does not chain: {detail}"),
            NodeRestoreError::MissingSummary { epoch } => {
                write!(f, "source ledger has no summary for sealed epoch {epoch}")
            }
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
/// returns a [`StagedCheckpoint`] that owns everything the Merkle-hashing
/// `commit()` needs, which makes the commit a pure function of those
/// bytes. The node commits at once; the split exists so a caller (the
/// benchmark's traced replica) can time the two halves as separate spans.
pub fn stage_node(
    checkpointer: &mut Checkpointer,
    epoch: u64,
    shards: &mut ShardMap,
    ledger: &Ledger,
) -> ammboost_state::StagedCheckpoint {
    for shard in shards.iter_mut() {
        if shard.take_pool_dirty() {
            checkpointer.mark_dirty(shard.pool_id());
        }
    }
    // bookkeeping only — no pool clone, so a clean shard's checkpoint
    // cost stays proportional to its (small) epoch metadata; the shard
    // user lists and the global deposits section come from one pass
    let (per_shard_entries, deposits) = shards.deposit_export();
    let metas: Vec<ShardMeta> = shards
        .iter()
        .zip(per_shard_entries)
        .map(|(shard, entries)| ShardMeta {
            pool_id: shard.pool_id(),
            users: entries.into_iter().map(|(user, _)| user).collect(),
            touched: shard.touched_positions(),
            deleted: shard.deleted_positions(),
            preexisting: shard.preexisting_positions(),
            accepted: shard.stats().accepted,
            rejected: shard.stats().rejected,
        })
        .collect();
    let pools: Vec<(PoolId, &ammboost_amm::Engine)> = shards
        .iter()
        .map(|shard| (shard.pool_id(), shard.pool()))
        .collect();
    checkpointer.stage(
        epoch,
        &pools,
        ledger,
        &deposits,
        vec![(AUX_PROCESSOR_META, metas.encode_to_vec())],
    )
}

/// Rebuilds a node from a snapshot: every pool (tick index regenerated,
/// via the persisted tick-price table when present), per-shard deposits
/// and epoch bookkeeping, and the ledger.
///
/// # Errors
/// Fails on missing/malformed sections or invalid pool state.
pub fn restore_node(snapshot: &Snapshot) -> Result<NodeRestore, NodeRestoreError> {
    let meta_section = snapshot
        .section(SectionKind::Aux(AUX_PROCESSOR_META))
        .ok_or(NodeRestoreError::Restore(RestoreError::MissingSection(
            "processor meta",
        )))?;
    let metas = Vec::<ShardMeta>::decode_all(&meta_section.bytes)?;
    if metas.is_empty() {
        return Err(NodeRestoreError::Restore(RestoreError::MissingSection(
            "shard meta records",
        )));
    }

    // the state subsystem owns section decoding, validation (including
    // sorted-key checks) and pool reconstruction — one restore path
    let restored = ammboost_state::sync::restore(snapshot)?;
    let mut pools: Vec<(PoolId, Option<ammboost_amm::Engine>)> = restored
        .pools
        .into_iter()
        .map(|(id, pool)| (id, Some(pool)))
        .collect();

    // split the global deposits section across shards by each meta's
    // user list; every listed user must exist and no entry may be left
    // unclaimed — anything else marks an internally inconsistent snapshot
    let mut unclaimed: DigestMap<Address, (u128, u128)> = restored.deposits.into_iter().collect();
    let mut processors = Vec::with_capacity(metas.len());
    for meta in metas {
        let pool = pools
            .iter_mut()
            .find(|(id, pool)| *id == meta.pool_id && pool.is_some())
            .and_then(|(_, pool)| pool.take())
            .ok_or(NodeRestoreError::MissingPool(meta.pool_id))?;
        let mut entries = Vec::with_capacity(meta.users.len());
        for user in meta.users {
            let balance =
                unclaimed
                    .remove(&user)
                    .ok_or_else(|| NodeRestoreError::InconsistentDeposits {
                        detail: format!("{} claims {user} twice or without an entry", meta.pool_id),
                    })?;
            entries.push((user, balance));
        }
        processors.push(EpochProcessor::from_restored(
            pool,
            meta.pool_id,
            Deposits::from_sorted_entries(entries),
            meta.touched,
            meta.deleted,
            meta.preexisting,
            crate::processor::ProcessorStats {
                accepted: meta.accepted,
                rejected: meta.rejected,
            },
        ));
    }
    if !unclaimed.is_empty() {
        return Err(NodeRestoreError::InconsistentDeposits {
            detail: format!("{} deposit entries claimed by no shard", unclaimed.len()),
        });
    }
    // every pool section must belong to a shard — a leftover section
    // means shard state would be silently dropped
    if let Some((id, _)) = pools.iter().find(|(_, pool)| pool.is_some()) {
        return Err(NodeRestoreError::UnclaimedPool(*id));
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
            let replayed =
                node.shards
                    .execute_batch(&batch, global_round, crate::shard::ExecMode::Auto);
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
        let sealed: &SummaryBlock = source
            .summaries()
            .iter()
            .find(|s| s.epoch == epoch)
            .ok_or(NodeRestoreError::MissingSummary { epoch })?;
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
    use ammboost_amm::tx::{AmmTx, SwapIntent, SwapTx};
    use ammboost_crypto::H256;
    use ammboost_sidechain::block::MetaBlock;
    use std::collections::HashMap;

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

    /// A tiny sharded node driver: executes rounds of swaps into
    /// meta-blocks and seals each epoch with a summary block. Users
    /// 1..=3·pools are homed round-robin on the pool set; the last
    /// `pools` of them never trade, so every summary lists a strict
    /// subset of the depositors.
    struct Node {
        shards: ShardMap,
        ledger: Ledger,
        pools: u32,
    }

    const ROUNDS: u64 = 3;

    impl Node {
        fn new(pools: u32) -> Node {
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
            let mut snapshot = HashMap::new();
            for i in 1..=(3 * pools as u64) {
                snapshot.insert(user(i), (5_000_000_000u128, 5_000_000_000u128));
            }
            shards.begin_epoch(snapshot, |a| {
                (1..=3 * pools as u64)
                    .find(|i| user(*i) == *a)
                    .map(|i| PoolId(((i - 1) % pools as u64) as u32))
            });
            Node {
                shards,
                ledger: Ledger::new(H256::hash(b"genesis")),
                pools,
            }
        }

        fn run_epoch(&mut self, epoch: u64) {
            if epoch > 1 {
                self.shards.carry_over_epoch();
            }
            for round in 0..ROUNDS {
                let global = (epoch - 1) * ROUNDS + round;
                let mut txs = Vec::new();
                for i in 0..4u64 {
                    let ui = 1 + (global + i) % (2 * self.pools as u64);
                    let pool = ((ui - 1) % self.pools as u64) as u32;
                    let amt = 1_000_000 + global * 1000 + i * 7;
                    let dir = (global + i).is_multiple_of(2);
                    txs.push(self.shards.execute(
                        &swap_tx(user(ui), pool, amt as u128, dir),
                        1008,
                        global,
                    ));
                }
                let block = MetaBlock::new(epoch, round, self.ledger.tip(), txs);
                self.ledger.append_meta(block).unwrap();
            }
            let (payouts, positions, pools) = self.shards.end_epoch();
            assert!(!payouts.is_empty() && payouts.len() <= 2 * self.pools as usize);
            let summary = SummaryBlock {
                epoch,
                parent: self.ledger.tip(),
                meta_refs: self
                    .ledger
                    .meta_blocks(epoch)
                    .iter()
                    .map(|m| m.id())
                    .collect(),
                payouts,
                positions,
                pools,
            };
            self.ledger.append_summary(summary).unwrap();
        }
    }

    #[test]
    fn restored_node_catches_up_byte_identically() {
        // full-history node: 5 epochs, checkpoint after epoch 2
        let mut full = Node::new(1);
        let mut cp = Checkpointer::new();
        let mut mid_snapshot = None;
        for epoch in 1..=5 {
            full.run_epoch(epoch);
            if epoch == 2 {
                let out = checkpoint_node(&mut cp, epoch, &mut full.shards, &full.ledger);
                assert_eq!(out.stats.pools_reencoded, 1);
                mid_snapshot = Some(out.snapshot);
            }
        }

        // late joiner: restore at epoch 2, fast-sync epochs 3..=5
        let snap = mid_snapshot.unwrap();
        let mut node = restore_node(&Snapshot::decode(&snap.encode()).unwrap()).unwrap();
        assert_eq!(node.epoch, 2);
        let applied = catch_up(&mut node, &full.ledger, ROUNDS).unwrap();
        assert_eq!(applied, 3);

        // byte-identical: same ledger state, same shard states, same
        // state root as the uninterrupted node
        assert_eq!(node.ledger.export_state(), full.ledger.export_state());
        assert_eq!(node.shards.export_states(), full.shards.export_states());
        let a = checkpoint_node(&mut Checkpointer::new(), 5, &mut node.shards, &node.ledger);
        let b = checkpoint_node(&mut Checkpointer::new(), 5, &mut full.shards, &full.ledger);
        assert_eq!(a.stats.root, b.stats.root, "state roots diverge");
    }

    #[test]
    fn multi_pool_node_checkpoints_and_catches_up() {
        // the same drill across 4 shards: one snapshot covers all pools
        let mut full = Node::new(4);
        let mut cp = Checkpointer::new();
        let mut mid = None;
        for epoch in 1..=4 {
            full.run_epoch(epoch);
            if epoch == 2 {
                let out = checkpoint_node(&mut cp, epoch, &mut full.shards, &full.ledger);
                assert_eq!(out.stats.pools_total, 4);
                assert_eq!(out.snapshot.pool_sections().count(), 4);
                mid = Some(out.snapshot);
            }
        }
        let mut node = restore_node(&Snapshot::decode(&mid.unwrap().encode()).unwrap()).unwrap();
        assert_eq!(node.shards.len(), 4);
        let applied = catch_up(&mut node, &full.ledger, ROUNDS).unwrap();
        assert_eq!(applied, 2);
        assert_eq!(node.shards.export_states(), full.shards.export_states());
        assert_eq!(node.ledger.export_state(), full.ledger.export_state());
    }

    #[test]
    fn crash_during_checkpoint_recovers_to_identical_root() {
        use ammboost_state::store::CrashPoint;
        // the node commits its epoch-1 checkpoint cleanly, then crashes
        // while writing the epoch-2 one — at several torn byte offsets
        // and at each journal step — and must always come back, catch up
        // epochs 3..=4 from a peer, and land on the uninterrupted root
        let mut full = Node::new(2);
        let mut cp = Checkpointer::new();
        full.run_epoch(1);
        let snap1 = checkpoint_node(&mut cp, 1, &mut full.shards, &full.ledger).snapshot;
        full.run_epoch(2);
        let snap2 = checkpoint_node(&mut cp, 2, &mut full.shards, &full.ledger).snapshot;
        full.run_epoch(3);
        full.run_epoch(4);
        let ref_snap =
            checkpoint_node(&mut Checkpointer::new(), 4, &mut full.shards, &full.ledger).snapshot;

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
                recover_node(&mut store, &full.ledger, ROUNDS).unwrap();
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
            assert_eq!(got.root(), ref_snap.root(), "{crash:?} diverged");
        }

        // a first-ever checkpoint torn before anything was committed
        // leaves nothing to restore from — typed, not a panic
        let mut empty = CheckpointStore::new();
        empty
            .commit(&snap1, Some(CrashPoint::BeforeMark))
            .unwrap_err();
        assert_eq!(
            recover_node(&mut empty, &full.ledger, ROUNDS).err(),
            Some(NodeRestoreError::Store(StoreError::NothingCommitted))
        );
    }

    #[test]
    fn catch_up_reports_missing_summary_typed() {
        let mut full = Node::new(1);
        full.run_epoch(1);
        let snap =
            checkpoint_node(&mut Checkpointer::new(), 1, &mut full.shards, &full.ledger).snapshot;
        full.run_epoch(2);
        full.run_epoch(3);
        // corrupt source: epoch 2's summary vanishes while epoch 3's
        // survives, so epoch 2 still counts as sealed
        let mut state = full.ledger.export_state();
        state.summaries.retain(|s| s.epoch != 2);
        let source = ammboost_sidechain::ledger::Ledger::from_state(state);
        let mut node = restore_node(&snap).unwrap();
        assert_eq!(
            catch_up(&mut node, &source, ROUNDS).err(),
            Some(NodeRestoreError::MissingSummary { epoch: 2 })
        );
    }

    #[test]
    fn catch_up_rejects_overpruned_source() {
        let mut full = Node::new(1);
        let mut cp = Checkpointer::new();
        full.run_epoch(1);
        let snap = checkpoint_node(&mut cp, 1, &mut full.shards, &full.ledger).snapshot;
        full.run_epoch(2);
        full.run_epoch(3);
        // the source drops epoch 2's raw history before the node synced
        full.ledger.prune_epoch(2).unwrap();
        let mut node = restore_node(&snap).unwrap();
        assert!(matches!(
            catch_up(&mut node, &full.ledger, ROUNDS),
            Err(NodeRestoreError::BadChain(_))
        ));
    }

    #[test]
    fn clean_shards_reuse_cached_pool_sections() {
        // 3 shards; only pool 1 trades after the first checkpoint — the
        // next checkpoint re-encodes exactly that shard
        let mut node = Node::new(3);
        let mut cp = Checkpointer::new();
        node.run_epoch(1);
        let s1 = checkpoint_node(&mut cp, 1, &mut node.shards, &node.ledger).stats;
        assert_eq!(s1.pools_reencoded, 3, "first checkpoint encodes all");

        node.shards.carry_over_epoch();
        let out = node
            .shards
            .execute(&swap_tx(user(2), 1, 1_000_000, true), 1008, 99);
        assert!(out.accepted());
        let (payouts, positions, pools) = node.shards.end_epoch();
        let summary = SummaryBlock {
            epoch: 2,
            parent: node.ledger.tip(),
            meta_refs: vec![],
            payouts,
            positions,
            pools,
        };
        node.ledger.append_summary(summary).unwrap();
        let out = checkpoint_node(&mut cp, 2, &mut node.shards, &node.ledger);
        assert_eq!(
            out.stats.pools_reencoded, 1,
            "only the traded shard re-encodes"
        );
        assert_eq!(out.stats.pools_reused, 2);
        let delta = out.delta.expect("second checkpoint carries a delta");
        assert_eq!(delta.base_epoch, 1);
        assert_eq!(delta.root, out.stats.root);
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
        let mut snap = checkpoint_node(&mut Checkpointer::new(), 1, &mut shards, &ledger).snapshot;
        let metas = Vec::<ShardMeta>::decode_all(
            &snap
                .section(SectionKind::Aux(AUX_PROCESSOR_META))
                .unwrap()
                .bytes,
        )
        .unwrap();
        let stripped = vec![metas[0].clone()];
        for section in &mut snap.sections {
            if section.kind == SectionKind::Aux(AUX_PROCESSOR_META) {
                section.bytes = stripped.encode_to_vec();
            }
        }
        assert!(matches!(
            restore_node(&snap),
            Err(NodeRestoreError::UnclaimedPool(PoolId(1)))
        ));
    }

    #[test]
    fn restore_rejects_missing_shard_pool_section() {
        let mut node = Node::new(2);
        node.run_epoch(1);
        let mut snap =
            checkpoint_node(&mut Checkpointer::new(), 1, &mut node.shards, &node.ledger).snapshot;
        snap.sections.retain(|s| s.kind != SectionKind::Pool(1));
        assert!(matches!(
            restore_node(&snap),
            Err(NodeRestoreError::MissingPool(PoolId(1)))
        ));
    }
}
