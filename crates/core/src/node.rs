//! The sidechain node: the paper's two `UpdateState` steps (§III–IV),
//! composed once. A [`Node`] owns what a sidechain miner holds — the
//! processor (every pool and the deposit book), the ledger, the
//! checkpointer and the sealed [`QuoteView`] — and is stepped one round
//! at a time: [`Node::begin_epoch`], then [`Node::step_round`] per round
//! (a meta-block), then [`Node::close_epoch`] (the summary block and the
//! next quote view). It never calls back into the world that feeds it: a
//! [`RoundOutput`] says what that world must learn, and
//! [`crate::System`] — the world of the paper's experiments — applies
//! it.
//!
//! A node that did not mine a block follows it instead: the paper's
//! `VerifyBlock` then `UpdateState`. [`Node::follow_round`] verifies a
//! meta-block (chaining and root) before executing it through the same
//! execute path as [`Node::step_round`], and [`Node::follow_epoch`] seals
//! through the same path as [`Node::close_epoch`]; each then checks that
//! what it built is what the block records. A node joining from a
//! snapshot ([`Node::restore`]) catches up by following
//! ([`crate::checkpoint::catch_up`]), so there is one apply path.
//!
//! Either way a meta-block's body is hashed once: the miner seals it
//! ([`MetaBlock::seal`]) and a follower verifies it
//! ([`Ledger::verify_meta`]), and each appends the
//! [`VerifiedMeta`](ammboost_sidechain::block::VerifiedMeta) that step
//! returned, which [`Ledger::append`] does not hash again.

use crate::checkpoint::{restore_node, NodeRestore, NodeRestoreError};
use crate::processor::{EpochProcessor, ExecMode};
use crate::view::QuoteView;
use ammboost_amm::tx::AmmTx;
use ammboost_amm::types::PositionId;
use ammboost_crypto::Address;
use ammboost_mainchain::contracts::token_bank::DepositBucket;
use ammboost_sidechain::block::{ExecutedTx, MetaBlock, SummaryBlock, TxEffect};
use ammboost_sidechain::ledger::{BlockError, Ledger};
use ammboost_sidechain::summary::{PayoutEntry, PoolUpdate, PositionEntry};
use ammboost_state::snapshot::Snapshot;
use ammboost_state::{
    prune_to_snapshot, CheckpointOutput, CheckpointStats, Checkpointer, DeltaSnapshot, PruneReport,
    RetentionPolicy,
};
use ammboost_workload::QuoteRequest;
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

/// What one executed round tells the world that fed it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RoundOutput {
    /// Whether each transaction of the batch was accepted, in batch order.
    pub acceptance: Vec<bool>,
    /// Accepted multi-hop routed swaps.
    pub routes: u64,
    /// Route legs the accepted routes executed.
    pub route_legs: u64,
    /// Positions accepted burns deleted, in batch order: traffic must
    /// stop referencing them.
    pub deleted_positions: Vec<PositionId>,
}

impl RoundOutput {
    fn of(executed: &[ExecutedTx]) -> RoundOutput {
        let mut out = RoundOutput::default();
        for tx in executed {
            // a rejected transaction's effect is `Rejected`: only accepted
            // burns and routes match below
            out.acceptance.push(tx.accepted());
            match &tx.effect {
                TxEffect::Burn {
                    position,
                    deleted: true,
                    ..
                } => out.deleted_positions.push(*position),
                TxEffect::Route { legs, .. } => {
                    out.routes += 1;
                    out.route_legs += legs.len() as u64;
                }
                _ => {}
            }
        }
        out
    }

    /// Transactions accepted into the round's block.
    pub fn accepted(&self) -> u64 {
        self.acceptance.iter().filter(|&&a| a).count() as u64
    }
}

/// A sealed epoch's settlement material: what the summary block carries
/// and the mainchain sync settles.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EpochOutput {
    /// The users whose deposit moved, with their new balances.
    pub payouts: Vec<PayoutEntry>,
    /// The positions the epoch touched or deleted.
    pub positions: Vec<PositionEntry>,
    /// One reserve section per pool, ascending by pool id.
    pub pools: Vec<PoolUpdate>,
}

/// Running totals of the node's read path and checkpoints. Quote counts
/// cover joined readers only ([`Node::join_quote_reader`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeCounters {
    /// Quotes answered.
    pub quotes_served: u64,
    /// Quotes that errored.
    pub quotes_failed: u64,
    /// Quote views published (one per sealed epoch, plus genesis).
    pub view_publications: u64,
    /// Per-pool views reused across publications.
    pub view_pools_reused: u64,
    /// Per-pool views re-cloned at publication.
    pub view_pools_recloned: u64,
    /// Checkpoints taken.
    pub snapshots_taken: u64,
}

/// Rounds of quote traffic the reader's channel holds before the node
/// waits for it.
const QUOTE_READER_DEPTH: usize = 4;

/// One round's quote traffic and the sealed view it is answered from.
type QuoteBatch = (Arc<QuoteView>, Vec<QuoteRequest>);

/// The in-run read path: a dedicated thread that answers each round's
/// quote requests from the sealed view they were generated under, while
/// the calling thread executes the round.
struct QuoteReader {
    batches: SyncSender<QuoteBatch>,
    handle: JoinHandle<(u64, u64)>,
}

impl QuoteReader {
    fn spawn() -> QuoteReader {
        let (batches, inbox) = sync_channel::<QuoteBatch>(QUOTE_READER_DEPTH);
        let handle = thread::Builder::new()
            .name("quote-reader".into())
            .spawn(move || {
                let reader = Address::from_pubkey_bytes(b"quote-reader");
                let (mut served, mut failed) = (0, 0);
                for (view, requests) in inbox {
                    let (s, f) = answer_quotes(&view, requests, reader);
                    served += s;
                    failed += f;
                }
                (served, failed)
            })
            .expect("spawn the quote reader thread");
        QuoteReader { batches, handle }
    }

    /// Closes the channel and joins the reader once it has answered every
    /// batch sent: `(served, failed)`. A panic on the reader resumes here.
    fn finish(self) -> (u64, u64) {
        drop(self.batches);
        self.handle
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    }
}

/// Answers one round's quote requests from `view`: `(served, failed)`.
/// `reader` is the user routes are simulated for.
fn answer_quotes(view: &QuoteView, requests: Vec<QuoteRequest>, reader: Address) -> (u64, u64) {
    let total = requests.len() as u64;
    let mut served = 0;
    for req in requests {
        let ok = match req {
            QuoteRequest::Swap {
                pool,
                zero_for_one,
                amount_in,
            } => view
                .quote_swap(
                    pool,
                    zero_for_one,
                    ammboost_amm::pool::SwapKind::ExactInput(amount_in),
                    None,
                )
                .is_ok(),
            QuoteRequest::Route { hops, amount_in } => {
                let route = ammboost_amm::tx::RouteTx {
                    user: reader,
                    hops,
                    amount_in,
                    min_amount_out: 0,
                    deadline_round: u64::MAX,
                };
                view.simulate_route(&route).is_ok()
            }
            QuoteRequest::Valuation { pool, position } => {
                view.value_position(pool, &position).is_ok()
            }
        };
        served += u64::from(ok);
    }
    (served, total - served)
}

/// A sidechain node (see the module docs). Two epochs of a two-pool
/// fleet, each summary referencing every meta-block mined in its epoch:
///
/// ```
/// # use ammboost_amm::tx::{AmmTx, SwapIntent, SwapTx};
/// # use ammboost_amm::types::PoolId;
/// # use ammboost_core::{EpochProcessor, Node};
/// # use ammboost_crypto::{Address, H256};
/// # use ammboost_sidechain::ledger::Ledger;
/// let (pools, users) = ([PoolId(0), PoolId(1)], [Address::from_index(0), Address::from_index(1)]);
/// let mut processor = EpochProcessor::new(pools);
/// for pool in pools {
///     processor.seed_liquidity(pool, Address::from_index(9), -60_000, 60_000, 1 << 40, 1 << 40);
/// }
/// let mut node = Node::new(processor, Ledger::new(H256::hash(b"genesis")));
/// node.begin_epoch(Some(users.map(|u| (u, (1 << 30, 1 << 30))).into_iter().collect()));
/// for epoch in 1..=2 {
///     for round in 0..3 {
///         let swap = |pool: PoolId| AmmTx::Swap(SwapTx {
///             user: users[pool.0 as usize],
///             pool,
///             zero_for_one: round % 2 == 0,
///             intent: SwapIntent::ExactInput { amount_in: 1_000_000, min_amount_out: 0 },
///             sqrt_price_limit: None,
///             deadline_round: 1_000,
///         });
///         let txs = pools.map(swap);
///         let batch: Vec<(&AmmTx, usize)> = txs.iter().map(|tx| (tx, 200)).collect();
///         assert_eq!(node.step_round(epoch, round, 3 * (epoch - 1) + round, &batch).accepted(), 2);
///     }
///     node.close_epoch(epoch);
///     let mined: Vec<H256> = node.ledger().meta_blocks(epoch).iter().map(|m| m.id()).collect();
///     assert_eq!(mined.len(), 3);
///     assert_eq!(node.ledger().summaries()[epoch as usize - 1].meta_refs, mined);
///     node.begin_epoch(None); // the next epoch carries the deposits over
/// }
/// ```
pub struct Node {
    processor: EpochProcessor,
    ledger: Ledger,
    checkpointer: Checkpointer,
    /// The most recent checkpoint (kept for restart and fast-sync drills).
    last_checkpoint: Option<CheckpointOutput>,
    /// Epoch N's sealed view while epoch N+1 executes (genesis before 1).
    quote_view: Arc<QuoteView>,
    /// Started by the first [`Node::serve_quotes`] with requests.
    quote_reader: Option<QuoteReader>,
    counters: NodeCounters,
    /// Unit tests answer quotes on the calling thread instead: the oracle
    /// the reader is compared against.
    #[cfg(test)]
    inline_quotes: bool,
}

impl Node {
    /// A node over `processor` (liquidity already seeded) and `ledger`;
    /// the pools' current state is published as the genesis quote view.
    pub fn new(processor: EpochProcessor, ledger: Ledger) -> Node {
        Node::assemble(processor, ledger, Checkpointer::new(), 0)
    }

    /// The node `snapshot` holds: its pools, deposit book and ledger
    /// restored, its pools published as the quote view of the snapshot's
    /// epoch, and its checkpointer resumed from the snapshot, so the
    /// first checkpoint re-encodes only the pools that changed since and
    /// emits a delta against `snapshot`. Catch it up with
    /// [`crate::checkpoint::catch_up`].
    ///
    /// # Errors
    /// As [`restore_node`].
    pub fn restore(snapshot: &Snapshot) -> Result<Node, NodeRestoreError> {
        let NodeRestore {
            epoch,
            shards,
            ledger,
            ..
        } = restore_node(snapshot)?;
        let checkpointer = Checkpointer::resume(snapshot);
        Ok(Node::assemble(shards, ledger, checkpointer, epoch))
    }

    /// A node whose pools are published as the quote view of `epoch`.
    fn assemble(
        mut processor: EpochProcessor,
        ledger: Ledger,
        checkpointer: Checkpointer,
        epoch: u64,
    ) -> Node {
        let (quote_view, stats) = processor.publish_view(epoch);
        Node {
            processor,
            ledger,
            checkpointer,
            last_checkpoint: None,
            quote_view,
            quote_reader: None,
            counters: NodeCounters {
                view_publications: 1,
                view_pools_reused: stats.reused as u64,
                view_pools_recloned: stats.recloned as u64,
                ..NodeCounters::default()
            },
            #[cfg(test)]
            inline_quotes: false,
        }
    }

    /// Opens an epoch. With `Some(bucket)` (TokenBank's `SnapshotBank`)
    /// the bucket becomes the epoch's deposit book; with `None` the
    /// previous epoch's deposits carry over, as when the last sync is
    /// missing and a mass-sync is owed (§IV-C).
    pub fn begin_epoch(&mut self, bucket: Option<DepositBucket>) {
        match bucket {
            Some(bucket) => self.processor.snapshot_bank(bucket),
            None => self.processor.carry_over_epoch(),
        }
    }

    /// Executes one round's batch (at `global_round`, for deadline checks),
    /// seals the resulting meta-block ([`MetaBlock::seal`], the one pass
    /// over its body) and appends it as `round` of `epoch`.
    ///
    /// # Panics
    /// If the block does not chain onto the node's own tip, which only a
    /// corrupted ledger could cause.
    #[doc(alias = "UpdateState")]
    pub fn step_round(
        &mut self,
        epoch: u64,
        round: u64,
        global_round: u64,
        batch: &[(&AmmTx, usize)],
    ) -> RoundOutput {
        let (out, executed) = self.execute(global_round, batch);
        let block = MetaBlock::seal(epoch, round, self.ledger.tip(), executed);
        self.ledger
            .append(block)
            .expect("locally mined meta-block chains correctly");
        out
    }

    /// Follows a meta-block another node mined (`VerifyBlock`, then
    /// `UpdateState`): verifies that `block` chains onto this node's tip
    /// and that its root is the root of its body before anything
    /// executes, executes its transactions at `global_round` through
    /// [`Node::step_round`]'s execute path, checks every effect against
    /// the one the block records, and appends the block it verified.
    ///
    /// # Errors
    /// [`NodeRestoreError::BadChain`] when the block does not chain or its
    /// root is wrong; the node is then unchanged.
    /// [`NodeRestoreError::EffectMismatch`] when an effect differs from the
    /// recorded one; the pools have executed the block by then, and the
    /// node must not go on from there.
    #[doc(alias = "VerifyBlock")]
    pub fn follow_round(
        &mut self,
        block: &MetaBlock,
        global_round: u64,
    ) -> Result<(), NodeRestoreError> {
        let verified = self.ledger.verify_meta(block.clone()).map_err(bad_chain)?;
        let batch: Vec<(&AmmTx, usize)> = block.txs.iter().map(|t| (&t.tx, t.wire_size)).collect();
        let (_, executed) = self.execute(global_round, &batch);
        if (executed.iter().zip(&block.txs)).any(|(ours, theirs)| ours.effect != theirs.effect) {
            return Err(NodeRestoreError::EffectMismatch {
                epoch: block.epoch,
                round: block.round,
            });
        }
        self.ledger.append(verified).map_err(bad_chain)
    }

    /// The execute path of [`Node::step_round`]. [`crate::System`]'s
    /// end-of-run drain calls it directly, mining no meta-block; ROADMAP
    /// item 28 folds the drain into ordinary epochs and makes this
    /// private again.
    pub(crate) fn execute(
        &mut self,
        global_round: u64,
        batch: &[(&AmmTx, usize)],
    ) -> (RoundOutput, Vec<ExecutedTx>) {
        let executed = self.processor.execute_batch(batch, global_round, ExecMode);
        (RoundOutput::of(&executed), executed)
    }

    /// Seals `epoch`: ends it on every pool, publishes its state as the
    /// next quote view, and appends the summary block referencing every
    /// meta-block mined in the epoch.
    ///
    /// # Panics
    /// If the summary does not chain onto the node's own tip.
    #[doc(alias = "UpdateState")]
    pub fn close_epoch(&mut self, epoch: u64) -> EpochOutput {
        let (out, summary) = self.seal_summary(epoch);
        self.ledger
            .append_summary(summary)
            .expect("locally built summary chains correctly");
        out
    }

    /// Follows a summary block another node sealed (`VerifyBlock`, then
    /// `UpdateState`): checks that `sealed` chains onto this node's tip
    /// and names every meta-block it holds of the epoch, seals the epoch
    /// through [`Node::close_epoch`]'s path, checks that the summary it
    /// built is `sealed`, and appends it.
    ///
    /// # Errors
    /// [`NodeRestoreError::BadChain`] when the block does not chain; the
    /// node is then unchanged. [`NodeRestoreError::SummaryMismatch`] when
    /// the built summary differs; the epoch is sealed by then, and the
    /// node must not go on from there.
    #[doc(alias = "VerifyBlock")]
    pub fn follow_epoch(&mut self, sealed: &SummaryBlock) -> Result<(), NodeRestoreError> {
        self.ledger.verify_summary(sealed).map_err(bad_chain)?;
        let (_, summary) = self.seal_summary(sealed.epoch);
        if summary != *sealed {
            return Err(NodeRestoreError::SummaryMismatch {
                epoch: sealed.epoch,
            });
        }
        self.ledger.append_summary(summary).map_err(bad_chain)
    }

    /// Seals `epoch` and builds its summary block, referencing every
    /// meta-block mined in the epoch: what [`Node::close_epoch`] appends
    /// and [`Node::follow_epoch`] checks.
    fn seal_summary(&mut self, epoch: u64) -> (EpochOutput, SummaryBlock) {
        let out = self.seal(epoch);
        let summary = SummaryBlock {
            epoch,
            parent: self.ledger.tip(),
            meta_refs: self
                .ledger
                .meta_blocks(epoch)
                .iter()
                .map(|m| m.id())
                .collect(),
            payouts: out.payouts.clone(),
            positions: out.positions.clone(),
            pools: out.pools.clone(),
        };
        (out, summary)
    }

    /// Ends the epoch on the processor and publishes the sealed state for
    /// readers before anything else can mutate it. [`crate::System`]'s
    /// drain calls it directly, appending no summary block; ROADMAP item
    /// 28 makes it private again.
    pub(crate) fn seal(&mut self, epoch: u64) -> EpochOutput {
        let (payouts, positions, pools) = self.processor.end_epoch();
        let (view, stats) = self.processor.publish_view(epoch);
        self.quote_view = view;
        self.counters.view_publications += 1;
        self.counters.view_pools_reused += stats.reused as u64;
        self.counters.view_pools_recloned += stats.recloned as u64;
        EpochOutput {
            payouts,
            positions,
            pools,
        }
    }

    /// Hands one round's quote requests, with the current sealed view, to
    /// the quote reader (spawned by the first call with requests), which
    /// answers them while the caller executes the round: a quote observes
    /// exactly the last sealed epoch, never the live pools.
    pub fn serve_quotes(&mut self, requests: Vec<QuoteRequest>) {
        if requests.is_empty() {
            return;
        }
        let view = Arc::clone(&self.quote_view);
        #[cfg(test)]
        if self.inline_quotes {
            let reader = Address::from_pubkey_bytes(b"quote-reader");
            let (served, failed) = answer_quotes(&view, requests, reader);
            self.counters.quotes_served += served;
            self.counters.quotes_failed += failed;
            return;
        }
        let reader = self.quote_reader.get_or_insert_with(QuoteReader::spawn);
        if reader.batches.send((view, requests)).is_err() {
            // the reader hangs up only by panicking: joining re-raises it
            self.join_quote_reader();
        }
    }

    /// Closes the quote reader's channel, waits for it to answer every
    /// queued batch and adds its counts to [`Node::counters`]; re-raises a
    /// panic on the reader. A no-op when no reader is running.
    pub fn join_quote_reader(&mut self) {
        if let Some(reader) = self.quote_reader.take() {
            let (served, failed) = reader.finish();
            self.counters.quotes_served += served;
            self.counters.quotes_failed += failed;
        }
    }

    /// Takes a Merkle-committed checkpoint of the node at `epoch`; the
    /// snapshot and its delta stay retrievable via [`Node::last_snapshot`]
    /// and [`Node::last_delta`].
    pub fn checkpoint(&mut self, epoch: u64) -> CheckpointStats {
        let output = crate::checkpoint::checkpoint_node(
            &mut self.checkpointer,
            epoch,
            &mut self.processor,
            &self.ledger,
        );
        self.counters.snapshots_taken += 1;
        self.last_checkpoint.insert(output).stats
    }

    /// Snapshot-aware retention: drops the raw meta-blocks of epochs both
    /// sealed and covered by the checkpoint at `snapshot_epoch`, keeping
    /// `policy.keep_epochs` of them.
    pub fn prune_to_snapshot(
        &mut self,
        snapshot_epoch: u64,
        policy: RetentionPolicy,
    ) -> PruneReport {
        prune_to_snapshot(&mut self.ledger, snapshot_epoch, policy)
    }

    /// Drops `epoch`'s meta-blocks once its sync is confirmed, returning
    /// the bytes reclaimed.
    ///
    /// # Errors
    /// As [`Ledger::prune_epoch`].
    pub fn prune_epoch(&mut self, epoch: u64) -> Result<u64, BlockError> {
        self.ledger.prune_epoch(epoch)
    }

    /// The transaction processor (every pool and the deposit book).
    pub fn processor(&self) -> &EpochProcessor {
        &self.processor
    }

    /// The sidechain ledger.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// The current sealed-epoch quote view; clone the `Arc` out to serve
    /// reads from any thread.
    pub fn quote_view(&self) -> Arc<QuoteView> {
        Arc::clone(&self.quote_view)
    }

    /// The most recent snapshot, if any checkpoint was taken.
    pub fn last_snapshot(&self) -> Option<&Snapshot> {
        self.last_checkpoint.as_ref().map(|c| &c.snapshot)
    }

    /// The page-granular delta the most recent checkpoint emitted against
    /// its predecessor, if any.
    pub fn last_delta(&self) -> Option<&DeltaSnapshot> {
        self.last_checkpoint.as_ref()?.delta.as_ref()
    }

    /// Stats of the most recent checkpoint.
    pub fn last_checkpoint(&self) -> Option<&CheckpointStats> {
        self.last_checkpoint.as_ref().map(|c| &c.stats)
    }

    /// Read-path and checkpoint totals so far.
    pub fn counters(&self) -> NodeCounters {
        self.counters
    }
}

/// A block that does not chain onto the node's tip.
fn bad_chain(e: BlockError) -> NodeRestoreError {
    NodeRestoreError::BadChain(e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::tests::{new_node, run_epoch, snapshot_at, ROUNDS};
    use crate::config::SystemConfig;
    use crate::System;
    use ammboost_amm::types::PoolId;

    /// A mixed-engine, routed fleet that checkpoints every epoch.
    fn mixed_routed_fleet() -> SystemConfig {
        let mut cfg = SystemConfig::small_test();
        cfg.pools = 4;
        cfg.users = 32;
        cfg.engine_mix = ammboost_workload::EngineMix::of(2, 1, 1);
        cfg.route_style = ammboost_workload::RouteStyle::routed(0.25, 3);
        cfg.daily_volume = 1_000_000; // 81 transactions per round
        cfg.snapshot = crate::config::SnapshotPolicy::every_epoch();
        cfg
    }

    /// The quote reader is unobservable: with quote traffic on the
    /// mixed routed fleet, the run reports the same whether the reader
    /// or the main thread answers the quotes, and every generated request
    /// is counted exactly once.
    #[test]
    fn quote_reader_matches_inline_quotes_in_a_mixed_routed_fleet() {
        let mut cfg = mixed_routed_fleet();
        cfg.quote_style = ammboost_workload::QuoteStyle::per_tx(1.0);
        let run = |inline: bool| {
            let mut sys = System::new(cfg.clone());
            if inline {
                sys.node.inline_quotes = true;
            }
            let report = sys.run();
            assert!(sys.node.quote_reader.is_none(), "run joins the reader");
            (report, sys.generator().txs_per_round())
        };
        let (report, txs_per_round) = run(false);
        let per_round = (cfg.quote_style.quotes_per_tx * txs_per_round as f64).ceil() as u64;
        assert_eq!(
            report.quotes_served + report.quotes_failed,
            cfg.epochs * cfg.rounds_per_epoch * per_round
        );
        assert!(
            report.quotes_served > 0 && report.quotes_failed > 0,
            "{report:?}"
        );
        let (inline, _) = run(true);
        assert_eq!(format!("{report:?}"), format!("{inline:?}"));
    }

    /// A live node past epoch 2 and a node restored from its epoch-1
    /// snapshot, opened on epoch 2 and ready to follow it.
    fn live_and_follower() -> (Node, Node) {
        let mut live = new_node(2);
        run_epoch(&mut live, 1);
        let snapshot = snapshot_at(&mut live, 1);
        run_epoch(&mut live, 2);
        let mut follower = Node::restore(&snapshot).unwrap();
        follower.begin_epoch(None);
        (live, follower)
    }

    #[test]
    fn follow_round_rejects_an_altered_effect() {
        let (live, mut follower) = live_and_follower();
        let mut block = live.ledger().meta_blocks(2)[0].clone();
        let swap = block.txs.iter_mut().find(|t| t.accepted()).unwrap();
        match &mut swap.effect {
            TxEffect::Swap { amount_out, .. } => *amount_out += 1,
            other => panic!("the fixture trades swaps only, got {other:?}"),
        }
        // the root covers transaction ids, not effects: the block verifies
        assert!(follower.ledger().verify_meta(block.clone()).is_ok());
        assert_eq!(
            follower.follow_round(&block, ROUNDS),
            Err(NodeRestoreError::EffectMismatch { epoch: 2, round: 0 })
        );
        assert!(follower.ledger().meta_blocks(2).is_empty(), "not appended");
    }

    #[test]
    fn follow_epoch_rejects_an_altered_payout() {
        let (live, mut follower) = live_and_follower();
        for block in live.ledger().meta_blocks(2) {
            let global = ROUNDS + block.round;
            follower.follow_round(block, global).unwrap();
        }
        let mut summary = live.ledger().summaries()[1].clone();
        summary.payouts[0].amount1 += 1;
        assert_eq!(
            follower.follow_epoch(&summary),
            Err(NodeRestoreError::SummaryMismatch { epoch: 2 })
        );
        assert_eq!(follower.ledger().last_summary_epoch(), 1, "not appended");
    }

    #[test]
    fn follow_round_rejects_a_misplaced_block_before_executing_it() {
        let (live, mut follower) = live_and_follower();
        let (state, ledger) = (
            follower.processor().export_state(),
            follower.ledger().export_state(),
        );
        let block = &live.ledger().meta_blocks(2)[0];
        let forked = MetaBlock {
            parent: ammboost_crypto::H256::hash(b"fork"),
            ..block.clone()
        };
        let skipped = MetaBlock {
            round: 1,
            ..block.clone()
        };
        for misplaced in [forked, skipped, live.ledger().meta_blocks(2)[1].clone()] {
            let global = ROUNDS + misplaced.round;
            assert!(matches!(
                follower.follow_round(&misplaced, global),
                Err(NodeRestoreError::BadChain(_))
            ));
            assert_eq!(follower.processor().export_state(), state);
            assert_eq!(follower.ledger().export_state(), ledger);
        }
        // a summary that skips the epoch's blocks is refused unsealed too
        let summary = &live.ledger().summaries()[1];
        assert!(matches!(
            follower.follow_epoch(summary),
            Err(NodeRestoreError::BadChain(_))
        ));
        assert_eq!(follower.processor().export_state(), state);
        // the block itself still follows
        follower.follow_round(block, ROUNDS).unwrap();
    }

    #[test]
    fn follow_round_rejects_a_wrong_root_before_executing_it() {
        let (live, mut follower) = live_and_follower();
        let (state, ledger) = (
            follower.processor().export_state(),
            follower.ledger().export_state(),
        );
        let block = &live.ledger().meta_blocks(2)[0];
        let mut reordered = block.clone();
        reordered.txs.swap(0, 1);
        let forged = MetaBlock {
            tx_root: ammboost_crypto::H256::hash(b"forged"),
            ..block.clone()
        };
        for bad in [reordered, forged] {
            assert_ne!(MetaBlock::compute_tx_root(&bad.txs), bad.tx_root);
            assert_eq!(
                follower.follow_round(&bad, ROUNDS),
                Err(NodeRestoreError::BadChain(
                    BlockError::BadTxRoot.to_string()
                ))
            );
            assert_eq!(follower.processor().export_state(), state);
            assert_eq!(follower.ledger().export_state(), ledger);
        }
        follower.follow_round(block, ROUNDS).unwrap();
    }

    /// Keccak-f permutations `f` runs on this thread.
    fn permutations_of<R>(f: impl FnOnce() -> R) -> (u64, R) {
        let before = ammboost_crypto::keccak::permutations();
        let out = f();
        (ammboost_crypto::keccak::permutations() - before, out)
    }

    /// A leader round and a followed round each hash the block's body
    /// once: what the round costs beyond executing its batch on a twin
    /// node is one transaction root and the block id.
    #[test]
    fn a_round_hashes_its_block_body_once() {
        let (live, mut follower) = live_and_follower();
        let (_, mut twin) = live_and_follower();
        // a ledger restored at an epoch boundary derives its tip on first
        // use: hash it here, not inside the counted calls
        follower.ledger().tip();
        let block = &live.ledger().meta_blocks(2)[0];
        assert!(block.txs.len() >= 4, "a four-way quad at least");
        let batch: Vec<(&AmmTx, usize)> = block.txs.iter().map(|t| (&t.tx, t.wire_size)).collect();
        let (root, _) = permutations_of(|| MetaBlock::compute_tx_root(&block.txs));
        let (id, _) = permutations_of(|| block.id());
        assert!(root >= 2 * block.txs.len() as u64 - 1 && id == 1);

        let (executing, _) = permutations_of(|| twin.execute(ROUNDS, &batch));
        let (following, followed) = permutations_of(|| follower.follow_round(block, ROUNDS));
        followed.unwrap();
        assert_eq!(following, executing + root + id, "followed round");

        // the leader: a third restored node mines the same batch as
        // round 0 of epoch 2, and seals the block the follower appended
        let (_, mut leader) = live_and_follower();
        leader.ledger().tip();
        let (stepping, out) = permutations_of(|| leader.step_round(2, 0, ROUNDS, &batch));
        assert_eq!(out.accepted(), block.accepted_count() as u64);
        assert_eq!(
            leader.ledger().meta_blocks(2),
            follower.ledger().meta_blocks(2)
        );
        assert_eq!(stepping, executing + root + id, "leader round");
    }

    /// A node restored from wire bytes hashes each page once: decoding
    /// seals the snapshot (every page, every section leaf, the root), and
    /// the restore takes the page hashes decoding kept.
    #[test]
    fn restoring_from_wire_bytes_hashes_each_page_once() {
        let mut live = new_node(2);
        run_epoch(&mut live, 1);
        let snapshot = snapshot_at(&mut live, 1);
        let wire = snapshot.encode();
        let sections = snapshot.sections().to_vec();
        let (sealing, _) = permutations_of(|| Snapshot::seal(1, sections));
        let (decoding, decoded) = permutations_of(|| Snapshot::decode(&wire));
        let decoded = decoded.unwrap();
        assert_eq!(decoding, sealing);
        let (restoring, restored) = permutations_of(|| Node::restore(&decoded));
        assert_eq!(restoring, 0, "no page is hashed again");
        let mut restored = restored.unwrap();
        assert_eq!(restored.checkpoint(1).root, snapshot.root());
    }

    #[test]
    fn quote_reader_without_batches_counts_nothing_and_exits() {
        assert_eq!(QuoteReader::spawn().finish(), (0, 0));
    }

    /// Sixteen times the channel's depth in batches, each with a known
    /// mix of answerable and unknown-pool quotes: the sender blocks on a
    /// full channel until the reader drains it, and `finish` returns
    /// every batch's counts once.
    #[test]
    fn quote_reader_counts_every_batch_once_past_its_channel_depth() {
        let view = System::new(SystemConfig::small_test())
            .quote_view()
            .expect("genesis view");
        let pool = view.pool_ids()[0];
        let reader = QuoteReader::spawn();
        let (mut served, mut failed) = (0, 0);
        for round in 0..16 * QUOTE_READER_DEPTH as u64 {
            let swap = |pool| QuoteRequest::Swap {
                pool,
                zero_for_one: round % 2 == 0,
                amount_in: 1_000 + u128::from(round),
            };
            let (ok, unknown) = (1 + round % 5, round % 3);
            let requests = (0..ok)
                .map(|_| swap(pool))
                .chain((0..unknown).map(|_| swap(PoolId(u32::MAX))))
                .collect();
            reader
                .batches
                .send((Arc::clone(&view), requests))
                .expect("reader alive");
            served += ok;
            failed += unknown;
        }
        assert_eq!(reader.finish(), (served, failed));
    }
}
