//! The sidechain transaction processor: executes swaps, mints, burns,
//! collects and multi-hop routes against the node's pools using
//! **pool-snapshot-based, delayed token-payout trading** (paper §IV-B).
//!
//! An [`EpochProcessor`] holds every pool, ascending by [`PoolId`], and
//! one deposit book. At epoch start it snapshots the users' deposits from
//! TokenBank (`SnapshotBank`, [`EpochProcessor::snapshot_bank`]) exactly
//! as the bank keeps them: one balance pair per user, whichever pool the
//! user trades on (every pool trades the same token pair). Every accepted
//! transaction is backed by deposit coverage, newly accrued tokens are
//! immediately tradable, and the deposits that moved become the epoch's
//! payout list (Fig. 4). A transaction is routed to its pool by its
//! `pool` field; one addressing a pool outside the processor is rejected
//! without touching any state.
//!
//! ## Cross-pool routing: the two-phase batch
//!
//! Multi-hop routes ([`AmmTx::Route`]) touch several pools, so
//! [`EpochProcessor::execute_batch`] runs a **two-phase** schedule with a
//! canonical order:
//!
//! 1. **Admission** (batch order): each route is shape-validated, its
//!    pools resolved, and its worst-case input *reserved* from the user's
//!    deposit — one deterministic coverage point before any transaction
//!    of the batch executes.
//! 2. **Phase 1** — plain transactions execute in batch order; then
//!    routes execute in *hop waves*: wave *k* carries hop *k* of every
//!    live route, in batch order. A barrier between waves hands each
//!    route's output forward as the next hop's input.
//! 3. **Phase 2** — the **netting barrier** (batch order): every route's
//!    per-hop flows fold into per-(user, token) net deltas
//!    ([`NettingLedger`]); only the net credit (plus any unconsumed input
//!    refund) lands on the user's deposit. Payouts, summary blocks and
//!    `Sync` therefore carry **netted** amounts — per-hop transfers never
//!    reach the settlement layer.
//!
//! Per-pool effects merge deterministically into one epoch summary, one
//! ledger entry and one Merkle-committed checkpoint covering every pool.

use crate::view::{QuoteView, ViewPublishStats};
use ammboost_amm::engines::{Engine, EngineKind, EngineState};
use ammboost_amm::error::AmmError;
use ammboost_amm::pool::SwapKind;
use ammboost_amm::tx::{AmmTx, BurnTx, CollectTx, MintTx, RouteTx, SwapIntent, SwapTx};
use ammboost_amm::types::{Amount, PoolId, PositionId};
use ammboost_crypto::Address;
use ammboost_sidechain::block::{ExecutedTx, RouteLeg, TxEffect};
use ammboost_sidechain::summary::{
    Deposits, NettingLedger, PayoutEntry, PoolUpdate, PositionEntry,
};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Execution statistics per epoch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProcessorStats {
    /// Accepted transactions.
    pub accepted: u64,
    /// Rejected transactions (insufficient deposit, slippage, deadline…).
    pub rejected: u64,
}

/// The schedule argument of [`EpochProcessor::execute_batch`]. It has no
/// fields and selects nothing: every round executes on the calling
/// thread. Kept only for nodebench's replica, which passes
/// `ExecMode::default()`; ROADMAP item 1(b0) deletes it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecMode;

/// The processor's name from when each pool had a processor of its own.
/// Kept only for nodebench's replica, which still names it; ROADMAP item
/// 1(b0) deletes it.
pub type ShardMap = EpochProcessor;

/// One pool's persistent slice of a [`ProcessorState`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProcessorPoolState {
    /// The pool's id.
    pub pool_id: PoolId,
    /// The pool engine's persistent state (engine-tagged).
    pub pool: EngineState,
    /// Positions touched this epoch, ascending.
    pub touched: Vec<PositionId>,
    /// Positions deleted this epoch with their last owner, ascending.
    pub deleted: Vec<(PositionId, Address)>,
    /// Positions that existed at epoch start, ascending.
    pub preexisting: Vec<PositionId>,
}

/// The persistent state of an [`EpochProcessor`] — everything a restored
/// node needs to continue the epoch bit-identically. Collections are
/// sorted for deterministic encoding. Excluded by design: each pool's
/// derived tick index (regenerated on restore) and the epoch's
/// first-touch record, which the checkpoint commits beside it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProcessorState {
    /// Every pool, ascending by id.
    pub pools: Vec<ProcessorPoolState>,
    /// Deposit ledger entries, sorted by address.
    pub deposits: Vec<(Address, (u128, u128))>,
    /// Epoch accept/reject counters.
    pub stats: ProcessorStats,
}

/// One pool the processor executes against, with the pool's epoch
/// bookkeeping. Deposits are not here: they live in the processor's one
/// book, which each execution borrows.
#[derive(Clone, Debug)]
pub(crate) struct PoolSlot {
    pub(crate) id: PoolId,
    pub(crate) engine: Engine,
    pub(crate) touched: BTreeSet<PositionId>,
    pub(crate) deleted: BTreeMap<PositionId, Address>,
    /// Positions that existed when the epoch began (and therefore exist
    /// in TokenBank state). Deletions of positions created *within* the
    /// epoch are not reported — TokenBank never knew them.
    pub(crate) preexisting: BTreeSet<PositionId>,
    /// Set when an accepted transaction (or a liquidity seed) mutated the
    /// pool; consumed by the checkpointer's dirty-pool tracking.
    dirty: bool,
    /// The pool's sealed state from the last
    /// [`EpochProcessor::publish_view`], dropped by every mutation, so a
    /// publication re-clones exactly the pools written since the last
    /// one. Derived data — never checkpointed.
    view: Option<Arc<Engine>>,
}

impl PoolSlot {
    fn new(id: PoolId, kind: EngineKind) -> PoolSlot {
        PoolSlot::restored(id, Engine::new_standard(kind), [], [], [])
    }

    /// Reassembles a pool from parts the state subsystem already
    /// validated and rebuilt (the `restore_node` path).
    pub(crate) fn restored(
        id: PoolId,
        engine: Engine,
        touched: impl IntoIterator<Item = PositionId>,
        deleted: impl IntoIterator<Item = (PositionId, Address)>,
        preexisting: impl IntoIterator<Item = PositionId>,
    ) -> PoolSlot {
        PoolSlot {
            id,
            engine,
            touched: touched.into_iter().collect(),
            deleted: deleted.into_iter().collect(),
            preexisting: preexisting.into_iter().collect(),
            dirty: false,
            view: None,
        }
    }

    /// Records a mutation: the checkpointer re-encodes the pool and the
    /// next publication re-clones it.
    fn mutated(&mut self) {
        self.dirty = true;
        self.view = None;
    }

    fn export_state(&self) -> ProcessorPoolState {
        ProcessorPoolState {
            pool_id: self.id,
            pool: self.engine.export_state(),
            touched: self.touched.iter().copied().collect(),
            deleted: self.deleted.iter().map(|(id, a)| (*id, *a)).collect(),
            preexisting: self.preexisting.iter().copied().collect(),
        }
    }

    fn reset_epoch_tracking(&mut self) {
        self.touched.clear();
        self.deleted.clear();
        self.preexisting = self.engine.position_ids().into_iter().collect();
    }

    /// Executes one plain (single-pool) transaction against `deposits`.
    /// Rejections never mutate state.
    fn execute(&mut self, deposits: &mut Deposits, tx: &AmmTx, round: u64) -> TxEffect {
        let effect = match tx {
            AmmTx::Swap(s) => self.swap(deposits, s, round),
            AmmTx::Mint(m) => self.mint(deposits, m),
            AmmTx::Burn(b) => self.burn(deposits, b),
            AmmTx::Collect(c) => self.collect(deposits, c),
            AmmTx::Route(_) => unreachable!("routes settle through the netting barrier"),
        };
        if !matches!(effect, TxEffect::Rejected { .. }) {
            self.mutated();
        }
        effect
    }

    fn swap(&mut self, deposits: &mut Deposits, s: &SwapTx, round: u64) -> TxEffect {
        if round > s.deadline_round {
            return reject("deadline exceeded");
        }
        let (kind, min_out, max_in, cover) = match s.intent {
            SwapIntent::ExactInput {
                amount_in,
                min_amount_out,
            } => (
                SwapKind::ExactInput(amount_in),
                min_amount_out,
                Amount::MAX,
                amount_in,
            ),
            SwapIntent::ExactOutput {
                amount_out,
                max_amount_in,
            } => (
                SwapKind::ExactOutput(amount_out),
                0,
                max_amount_in,
                max_amount_in,
            ),
        };
        // deposit must cover the worst-case input (paper §IV-B)
        let (need0, need1) = if s.zero_for_one {
            (cover, 0)
        } else {
            (0, cover)
        };
        if !deposits.can_cover(&s.user, need0, need1) {
            return reject("insufficient deposit for swap input");
        }
        let result = match self.engine.swap_with_protection(
            s.zero_for_one,
            kind,
            s.sqrt_price_limit,
            min_out,
            max_in,
        ) {
            Ok(r) => r,
            Err(e) => return reject(format!("swap failed: {e}")),
        };
        // debit actual input, credit output — accrued tokens usable
        // immediately
        let (in0, in1, out0, out1) = if s.zero_for_one {
            (result.amount_in, 0, 0, result.amount_out)
        } else {
            (0, result.amount_in, result.amount_out, 0)
        };
        deposits
            .debit(s.user, in0, in1)
            .expect("coverage checked above");
        deposits
            .credit(s.user, out0, out1)
            .expect("credit cannot overflow within u128 supplies");
        // swap fees accrue inside the engine's fee-growth accounting; the
        // positions that earned them surface via touched positions at
        // sync time
        TxEffect::Swap {
            amount_in: result.amount_in,
            amount_out: result.amount_out,
            zero_for_one: s.zero_for_one,
        }
    }

    fn mint(&mut self, deposits: &mut Deposits, m: &MintTx) -> TxEffect {
        let id = m.derived_position_id();
        // top-ups use the existing position's range (the transaction's
        // ticks are advisory); new positions use the transaction's range
        let (tick_lower, tick_upper) = match m.position {
            Some(existing) => match self.engine.position_info(&existing) {
                Some(p) if p.owner != m.user => {
                    return reject("not the position owner");
                }
                Some(p) => (p.tick_lower, p.tick_upper),
                None => return reject("position not found"),
            },
            None => (m.tick_lower, m.tick_upper),
        };
        let (liquidity, amounts) = match self.engine.quote_mint(
            tick_lower,
            tick_upper,
            m.amount0_desired,
            m.amount1_desired,
        ) {
            Ok(q) => q,
            Err(e) => return reject(format!("mint failed: {e}")),
        };
        if !deposits.can_cover(&m.user, amounts.amount0, amounts.amount1) {
            return reject("insufficient deposit for mint");
        }
        let created = self.engine.position_info(&id).is_none();
        let (minted, actual) = match self.engine.mint(
            id,
            m.user,
            tick_lower,
            tick_upper,
            m.amount0_desired,
            m.amount1_desired,
        ) {
            Ok(a) => a,
            Err(e) => return reject(format!("mint failed: {e}")),
        };
        debug_assert_eq!(minted, liquidity, "quote must match execution");
        debug_assert_eq!(actual, amounts, "quote must match execution");
        deposits
            .debit(m.user, actual.amount0, actual.amount1)
            .expect("coverage checked above");
        self.touched.insert(id);
        self.deleted.remove(&id);
        TxEffect::Mint {
            position: id,
            liquidity,
            amount0: actual.amount0,
            amount1: actual.amount1,
            created,
        }
    }

    fn burn(&mut self, deposits: &mut Deposits, b: &BurnTx) -> TxEffect {
        let held = match self.engine.position_info(&b.position) {
            Some(p) if p.owner == b.user => p.liquidity,
            Some(_) => return reject("not the position owner"),
            None => return reject("position not found"),
        };
        let to_burn = b.liquidity.unwrap_or(held).min(held);
        if to_burn == 0 {
            return reject("nothing to burn");
        }
        let full = to_burn == held;
        let principal = match self.engine.burn(b.position, b.user, to_burn) {
            Ok(a) => a,
            Err(e) => return reject(format!("burn failed: {e}")),
        };
        // withdraw from the pool into the LP's deposit: the principal, and
        // for a full burn also any accrued fees (paper §IV-B "Burns")
        let (take0, take1) = if full {
            (Amount::MAX, Amount::MAX)
        } else {
            (principal.amount0, principal.amount1)
        };
        let out = self
            .engine
            .collect(b.position, b.user, take0, take1)
            .expect("collect of just-burned principal cannot fail");
        deposits
            .credit(b.user, out.amount0, out.amount1)
            .expect("credit within supply");
        let deleted = self.note_position(b.position, b.user);
        TxEffect::Burn {
            position: b.position,
            liquidity: to_burn,
            amount0: out.amount0,
            amount1: out.amount1,
            deleted,
        }
    }

    fn collect(&mut self, deposits: &mut Deposits, c: &CollectTx) -> TxEffect {
        match self.engine.position_info(&c.position) {
            Some(p) if p.owner == c.user => {}
            Some(_) => return reject("not the position owner"),
            None => return reject("position not found"),
        }
        let out = match self
            .engine
            .collect(c.position, c.user, c.amount0, c.amount1)
        {
            Ok(a) => a,
            Err(e) => return reject(format!("collect failed: {e}")),
        };
        deposits
            .credit(c.user, out.amount0, out.amount1)
            .expect("credit within supply");
        self.note_position(c.position, c.user);
        TxEffect::Collect {
            position: c.position,
            amount0: out.amount0,
            amount1: out.amount1,
        }
    }

    /// Books a position a burn or collect of `owner` just wrote: touched
    /// while it exists, deleted (when TokenBank knew it) once it is gone.
    /// Returns whether it is gone.
    fn note_position(&mut self, position: PositionId, owner: Address) -> bool {
        let gone = self.engine.position_info(&position).is_none();
        if gone {
            self.touched.remove(&position);
            if self.preexisting.contains(&position) {
                self.deleted.insert(position, owner);
            }
        } else {
            self.touched.insert(position);
        }
        gone
    }

    /// Executes one route leg: an exact-input swap with no intra-route
    /// slippage bounds (`final_min_out` is set on the route's last hop
    /// only). Deposits are untouched — flows settle at the netting
    /// barrier.
    ///
    /// # Errors
    /// Propagates pool failures (state untouched — swaps are atomic).
    fn route_leg(
        &mut self,
        zero_for_one: bool,
        amount_in: u128,
        final_min_out: Option<u128>,
    ) -> Result<(u128, u128), AmmError> {
        let result = self.engine.swap_with_protection(
            zero_for_one,
            SwapKind::ExactInput(amount_in),
            None,
            final_min_out.unwrap_or(0),
            Amount::MAX,
        )?;
        self.mutated();
        Ok((result.amount_in, result.amount_out))
    }

    /// The pool's summary material: touched and deleted position entries,
    /// and its reserves.
    fn end_epoch(&self, positions: &mut Vec<PositionEntry>) -> PoolUpdate {
        for id in &self.touched {
            if let Some(p) = self.engine.position_info(id) {
                positions.push(PositionEntry {
                    id: *id,
                    owner: p.owner,
                    liquidity: p.liquidity,
                    amount0: 0, // principal is implied by liquidity + range
                    amount1: 0,
                    fees0: p.tokens_owed0,
                    fees1: p.tokens_owed1,
                    fee_growth_inside0: p.fee_growth_inside0_last.low_u128(),
                    fee_growth_inside1: p.fee_growth_inside1_last.low_u128(),
                    tick_lower: p.tick_lower,
                    tick_upper: p.tick_upper,
                    deleted: false,
                });
            }
        }
        for (id, owner) in &self.deleted {
            positions.push(PositionEntry {
                id: *id,
                owner: *owner,
                liquidity: 0,
                amount0: 0,
                amount1: 0,
                fees0: 0,
                fees1: 0,
                fee_growth_inside0: 0,
                fee_growth_inside1: 0,
                tick_lower: 0,
                tick_upper: 0,
                deleted: true,
            });
        }
        let balances = self.engine.balances();
        PoolUpdate {
            pool: self.id,
            reserve0: balances.amount0,
            reserve1: balances.amount1,
        }
    }
}

fn reject(reason: impl Into<String>) -> TxEffect {
    TxEffect::Rejected {
        reason: reason.into(),
    }
}

/// A route's input as a `(token0, token1)` pair: what admission reserves.
fn route_input(r: &RouteTx) -> (u128, u128) {
    if r.input_is_token0() {
        (r.amount_in, 0)
    } else {
        (0, r.amount_in)
    }
}

/// In-flight state of one admitted route inside a batch.
struct RouteRun<'b> {
    batch_index: usize,
    tx: &'b RouteTx,
    /// Legs executed so far, in hop order.
    legs: Vec<RouteLeg>,
    /// Input of the next hop (the previous hop's output).
    next_amount: u128,
    /// Set when a hop failed; remaining hops are skipped.
    failure: Option<String>,
}

/// The per-epoch sidechain execution engine over every pool of the node
/// and one deposit book (see the module docs). Pool state persists across
/// epochs (the sidechain computes evolving balances itself and only
/// reports them back in syncs); deposits are re-snapshotted every epoch.
#[derive(Clone, Debug)]
pub struct EpochProcessor {
    /// The pools, strictly ascending by id.
    pools: Vec<PoolSlot>,
    /// Every user's deposit, whichever pool they trade on.
    deposits: Deposits,
    stats: ProcessorStats,
    /// Per-epoch netting ledger: every routed flow folded this epoch.
    /// Diagnostic/reporting state, reset at epoch start — the consensus
    /// state it summarizes lives entirely in pools and deposits.
    netting: NettingLedger,
}

impl EpochProcessor {
    /// A processor over a fresh standard concentrated-liquidity pool per
    /// id.
    ///
    /// # Panics
    /// Panics on an empty or duplicate-carrying pool set — a
    /// configuration error.
    pub fn new(pool_ids: impl IntoIterator<Item = PoolId>) -> EpochProcessor {
        Self::new_with_engines(
            pool_ids
                .into_iter()
                .map(|id| (id, EngineKind::ConcentratedLiquidity)),
        )
    }

    /// A heterogeneous processor: a fresh standard pool of the named
    /// engine kind per id. This is how a mixed fleet comes up —
    /// concentrated-liquidity, constant-product and weighted pools side
    /// by side behind the same routing, batching and checkpointing.
    ///
    /// # Panics
    /// Panics on an empty or duplicate-carrying pool set — a
    /// configuration error.
    pub fn new_with_engines(
        pools: impl IntoIterator<Item = (PoolId, EngineKind)>,
    ) -> EpochProcessor {
        let mut entries: Vec<(PoolId, EngineKind)> = pools.into_iter().collect();
        entries.sort_by_key(|(id, _)| *id);
        let pools = entries
            .into_iter()
            .map(|(id, kind)| PoolSlot::new(id, kind))
            .collect();
        Self::from_restored(pools, Deposits::new(), ProcessorStats::default())
    }

    /// Reassembles a processor from restored pools (ascending by id), the
    /// deposit book and the epoch's counters.
    ///
    /// # Panics
    /// Panics on an empty or not strictly ascending pool list.
    pub(crate) fn from_restored(
        pools: Vec<PoolSlot>,
        deposits: Deposits,
        stats: ProcessorStats,
    ) -> EpochProcessor {
        assert!(!pools.is_empty(), "a processor needs at least one pool");
        assert!(
            pools.windows(2).all(|w| w[0].id < w[1].id),
            "duplicate pool ids in processor"
        );
        EpochProcessor {
            pools,
            deposits,
            stats,
            netting: NettingLedger::new(),
        }
    }

    /// The pool ids, ascending.
    pub fn pool_ids(&self) -> Vec<PoolId> {
        self.pools.iter().map(|p| p.id).collect()
    }

    /// The engine kind of each pool, ascending by pool id.
    pub fn engine_kinds(&self) -> Vec<(PoolId, EngineKind)> {
        self.pools.iter().map(|p| (p.id, p.engine.kind())).collect()
    }

    /// Read access to `pool`'s engine.
    pub fn pool(&self, pool: PoolId) -> Option<&Engine> {
        self.index_of(pool).map(|i| &self.pools[i].engine)
    }

    /// The pools, ascending by id.
    pub(crate) fn pool_slots(&self) -> &[PoolSlot] {
        &self.pools
    }

    fn index_of(&self, pool: PoolId) -> Option<usize> {
        self.pools.binary_search_by_key(&pool, |p| p.id).ok()
    }

    /// Read access to the deposit book.
    pub fn deposits(&self) -> &Deposits {
        &self.deposits
    }

    /// Current epoch statistics.
    pub fn stats(&self) -> ProcessorStats {
        self.stats
    }

    /// The epoch's netting ledger: every routed flow folded since the
    /// epoch began, with netted-vs-naive settlement accounting.
    pub fn epoch_netting(&self) -> &NettingLedger {
        &self.netting
    }

    /// The pools mutated since this was last called, ascending; clears
    /// their dirty flags. Feeds the checkpointer's dirty-pool tracking
    /// so clean pools are not re-encoded.
    pub(crate) fn take_dirty_pools(&mut self) -> Vec<PoolId> {
        self.pools
            .iter_mut()
            .filter_map(|p| std::mem::take(&mut p.dirty).then_some(p.id))
            .collect()
    }

    /// Publishes the sealed state of every pool as an immutable,
    /// `Arc`-shared [`QuoteView`] tagged with `epoch`. Call at epoch seal
    /// — after the epoch's last batch has committed and before the next
    /// epoch begins — so readers on other threads serve quotes from it
    /// while the next epoch executes.
    ///
    /// Publication is proportional to the write set: only pools mutated
    /// since the previous publication are re-cloned; every other pool
    /// reuses its cached `Arc`. The returned [`ViewPublishStats`] reports
    /// that split.
    pub fn publish_view(&mut self, epoch: u64) -> (Arc<QuoteView>, ViewPublishStats) {
        let mut stats = ViewPublishStats::default();
        let mut entries = Vec::with_capacity(self.pools.len());
        for pool in &mut self.pools {
            let view = match &pool.view {
                Some(cached) => {
                    stats.reused += 1;
                    Arc::clone(cached)
                }
                None => {
                    stats.recloned += 1;
                    Arc::clone(pool.view.insert(Arc::new(pool.engine.clone())))
                }
            };
            entries.push((pool.id, view));
        }
        (Arc::new(QuoteView::new(epoch, entries)), stats)
    }

    /// Seeds standing liquidity on `pool` outside the deposit flow (the
    /// pool's genesis liquidity, analogous to the paper deploying a funded
    /// pool before the experiment).
    ///
    /// # Panics
    /// Panics on an unknown pool or an invalid seed mint — a
    /// configuration error.
    pub fn seed_liquidity(
        &mut self,
        pool: PoolId,
        owner: Address,
        tick_lower: i32,
        tick_upper: i32,
        amount0: Amount,
        amount1: Amount,
    ) -> PositionId {
        let index = self
            .index_of(pool)
            .unwrap_or_else(|| panic!("seeding liquidity on unknown {pool}"));
        let slot = &mut self.pools[index];
        let id = PositionId::derive(&[
            b"genesis-liquidity",
            owner.as_bytes(),
            &tick_lower.to_be_bytes(),
            &tick_upper.to_be_bytes(),
        ]);
        slot.engine
            .mint(id, owner, tick_lower, tick_upper, amount0, amount1)
            .expect("genesis liquidity mint must be valid");
        slot.mutated();
        id
    }

    /// `SnapshotBank`: installs the deposit snapshot retrieved from
    /// TokenBank at the start of an epoch and resets per-epoch state. The
    /// snapshot is the baseline the epoch's payout list is measured
    /// against.
    pub fn snapshot_bank(&mut self, bucket: impl IntoIterator<Item = (Address, (u128, u128))>) {
        self.deposits = Deposits::from_snapshot(bucket);
        self.reset_epoch_tracking();
    }

    /// [`EpochProcessor::snapshot_bank`] under its former two-argument
    /// form; `_route` is ignored. Kept only for nodebench's replica;
    /// ROADMAP item 1(b0) deletes it.
    pub fn begin_epoch(
        &mut self,
        bucket: impl IntoIterator<Item = (Address, (u128, u128))>,
        _route: impl Fn(&Address) -> Option<PoolId>,
    ) {
        self.snapshot_bank(bucket);
    }

    /// Begins an epoch **without** re-snapshotting TokenBank: used when
    /// the previous epoch's sync never reached the mainchain (invalid
    /// sync inputs or a rollback) — the sidechain's own deposit tracking
    /// carries forward and the new committee will mass-sync (paper
    /// §IV-C). The carried balances are the new epoch's payout baseline,
    /// so each epoch's list stands on its own and a replay from any
    /// checkpoint reproduces it.
    pub fn carry_over_epoch(&mut self) {
        self.deposits.open_epoch();
        self.reset_epoch_tracking();
    }

    fn reset_epoch_tracking(&mut self) {
        for pool in &mut self.pools {
            pool.reset_epoch_tracking();
        }
        self.stats = ProcessorStats::default();
        self.netting = NettingLedger::new();
    }

    /// Executes one transaction as a batch of one, so a single-transaction
    /// caller sees exactly the batch semantics.
    pub fn execute(&mut self, tx: &AmmTx, wire_size: usize, round: u64) -> ExecutedTx {
        self.execute_batch(&[(tx, wire_size)], round, ExecMode)
            .pop()
            .expect("one transaction in, one effect out")
    }

    /// Executes a round's batch at sidechain round `round` (for deadline
    /// checks) on the calling thread: the two-phase schedule of the
    /// module docs (admission → plain transactions → hop waves → netting
    /// barrier). The returned effects are in the batch's order. `_mode`
    /// selects nothing (see [`ExecMode`]).
    pub fn execute_batch(
        &mut self,
        batch: &[(&AmmTx, usize)],
        round: u64,
        _mode: ExecMode,
    ) -> Vec<ExecutedTx> {
        let mut effects: Vec<Option<TxEffect>> = batch.iter().map(|_| None).collect();

        // --- admission: reserve every route's input ---
        let mut routes: Vec<RouteRun<'_>> = Vec::new();
        for (i, (tx, _)) in batch.iter().enumerate() {
            if let AmmTx::Route(r) = tx {
                match self.admit_route(r, round) {
                    Ok(()) => routes.push(RouteRun {
                        batch_index: i,
                        tx: r,
                        legs: Vec::new(),
                        next_amount: r.amount_in,
                        failure: None,
                    }),
                    Err(reason) => {
                        self.stats.rejected += 1;
                        effects[i] = Some(reject(reason));
                    }
                }
            }
        }

        // --- phase 1a: plain transactions, in batch order ---
        for (i, (tx, _)) in batch.iter().enumerate() {
            if matches!(tx, AmmTx::Route(_)) {
                continue;
            }
            let Some(index) = self.index_of(tx.pool()) else {
                effects[i] = Some(reject(format!("unknown pool {}", tx.pool())));
                continue;
            };
            let effect = self.pools[index].execute(&mut self.deposits, tx, round);
            match effect {
                TxEffect::Rejected { .. } => self.stats.rejected += 1,
                _ => self.stats.accepted += 1,
            }
            effects[i] = Some(effect);
        }

        // --- phase 1b: hop waves ---
        self.run_route_waves(&mut routes);

        // --- phase 2: the netting barrier ---
        for run in routes {
            let index = run.batch_index;
            effects[index] = Some(self.settle_route(run));
        }

        batch
            .iter()
            .zip(effects)
            .map(|((tx, wire_size), effect)| ExecutedTx {
                tx: (*tx).clone(),
                wire_size: *wire_size,
                effect: effect.expect("every transaction executed"),
            })
            .collect()
    }

    /// Admits one route: deadline, shape, pool membership, then the
    /// deterministic coverage point — reserving the worst-case input on
    /// the user's deposit. Returns the rejection reason otherwise.
    fn admit_route(&mut self, r: &RouteTx, round: u64) -> Result<(), String> {
        if round > r.deadline_round {
            return Err("deadline exceeded".into());
        }
        if let Err(e) = r.validate() {
            return Err(format!("invalid route: {e}"));
        }
        if let Some(hop) = r.hops.iter().find(|h| self.index_of(h.pool).is_none()) {
            return Err(format!("unknown pool {}", hop.pool));
        }
        let (need0, need1) = route_input(r);
        self.deposits
            .debit(r.user, need0, need1)
            .map_err(|_| "insufficient deposit for route input".to_string())
    }

    /// Phase 1b: executes every admitted route's hops in waves. Wave `k`
    /// carries hop `k` of each live route, in batch order; the inter-wave
    /// barrier hands each route's output forward as its next hop's input.
    fn run_route_waves(&mut self, routes: &mut [RouteRun<'_>]) {
        let max_hops = routes.iter().map(|r| r.tx.hops.len()).max().unwrap_or(0);
        for wave in 0..max_hops {
            for run in routes.iter_mut() {
                if run.failure.is_some() || wave >= run.tx.hops.len() {
                    continue;
                }
                let hop = run.tx.hops[wave];
                let index = self.index_of(hop.pool).expect("pools checked at admission");
                let final_min_out =
                    (wave + 1 == run.tx.hops.len()).then_some(run.tx.min_amount_out);
                match self.pools[index].route_leg(hop.zero_for_one, run.next_amount, final_min_out)
                {
                    Ok((amount_in, amount_out)) => {
                        run.legs.push(RouteLeg {
                            pool: hop.pool,
                            zero_for_one: hop.zero_for_one,
                            amount_in,
                            amount_out,
                        });
                        run.next_amount = amount_out;
                    }
                    Err(e) => run.failure = Some(e.to_string()),
                }
            }
        }
    }

    /// Phase 2 for one route: folds its flows into the netting ledger,
    /// applies the single net credit — the last leg's output plus any
    /// unconsumed input at *every* hop boundary (an exact-input swap can
    /// consume less than its budget when the pool's liquidity runs out,
    /// so each boundary's leftover intermediate tokens stay the user's)
    /// — to the user's deposit, and returns the recorded effect. The
    /// deposit write equals the ledger's net delta for the route exactly.
    /// A route whose *first* hop already failed refunds its full
    /// reservation and is recorded as rejected — pools and deposits end
    /// untouched.
    fn settle_route(&mut self, run: RouteRun<'_>) -> TxEffect {
        let user = run.tx.user;
        let (Some(first), Some(last)) = (run.legs.first(), run.legs.last()) else {
            let (reserved0, reserved1) = route_input(run.tx);
            self.credit(user, reserved0, reserved1);
            self.stats.rejected += 1;
            return reject(format!(
                "route failed: {}",
                run.failure.as_deref().unwrap_or("no hop executed")
            ));
        };

        self.netting.record_route();
        for leg in &run.legs {
            self.netting
                .record_leg(user, leg.zero_for_one, leg.amount_in, leg.amount_out);
        }
        // unconsumed input stays the user's at every boundary: the
        // reservation minus what hop 0 took, and each intermediate
        // leftover where hop k absorbed less than hop k-1 produced
        let (mut credit0, mut credit1) = (0u128, 0u128);
        let mut leftover = |amount: u128, on_token1: bool| {
            if on_token1 {
                credit1 += amount;
            } else {
                credit0 += amount;
            }
        };
        leftover(
            run.tx.amount_in - first.amount_in,
            !run.tx.input_is_token0(),
        );
        for pair in run.legs.windows(2) {
            leftover(pair[0].amount_out - pair[1].amount_in, pair[0].zero_for_one);
        }
        leftover(last.amount_out, last.zero_for_one);
        let (amount_in, amount_out) = (first.amount_in, last.amount_out);
        self.credit(user, credit0, credit1);
        self.stats.accepted += 1;
        let completed = run.failure.is_none()
            && run.legs.len() == run.tx.hops.len()
            && run
                .legs
                .windows(2)
                .all(|pair| pair[0].amount_out == pair[1].amount_in);
        TxEffect::Route {
            amount_in,
            amount_out,
            completed,
            legs: run.legs,
        }
    }

    fn credit(&mut self, user: Address, amount0: u128, amount1: u128) {
        self.deposits
            .credit(user, amount0, amount1)
            .expect("credit within u128 token supplies");
    }

    /// Ends the epoch, producing the summary material (Fig. 4): the
    /// payout list (closing deposits of the users whose balance moved,
    /// sorted by user), the touched/deleted position entries in pool
    /// order, and one [`PoolUpdate`] per pool ascending by pool id.
    pub fn end_epoch(&mut self) -> (Vec<PayoutEntry>, Vec<PositionEntry>, Vec<PoolUpdate>) {
        let mut positions = Vec::new();
        let pools = self
            .pools
            .iter()
            .map(|pool| pool.end_epoch(&mut positions))
            .collect();
        (self.deposits.to_payouts(), positions, pools)
    }

    /// Exports the processor's persistent state.
    pub fn export_state(&self) -> ProcessorState {
        ProcessorState {
            pools: self.pools.iter().map(PoolSlot::export_state).collect(),
            deposits: self.deposits.to_sorted_entries(),
            stats: self.stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ammboost_amm::pool::TickSearch;
    use ammboost_amm::tx::RouteHop;

    fn user(i: u64) -> Address {
        Address::from_index(i)
    }

    // ---- one pool -----------------------------------------------------------

    fn processor_with_liquidity() -> EpochProcessor {
        let mut p = EpochProcessor::new([PoolId(0)]);
        p.seed_liquidity(
            PoolId(0),
            user(999),
            -6000,
            6000,
            10u128.pow(12),
            10u128.pow(12),
        );
        p
    }

    fn engine(p: &EpochProcessor) -> &Engine {
        p.pool(PoolId(0)).expect("pool 0")
    }

    fn swap_tx(u: Address, amount: u128, zero_for_one: bool) -> AmmTx {
        swap(u, 0, amount, zero_for_one)
    }

    fn mint_tx(u: Address, nonce: u64) -> MintTx {
        MintTx {
            user: u,
            pool: PoolId(0),
            position: None,
            tick_lower: -600,
            tick_upper: 600,
            amount0_desired: 100_000,
            amount1_desired: 100_000,
            nonce,
        }
    }

    #[test]
    fn swap_debits_and_credits_deposit() {
        let mut p = processor_with_liquidity();
        p.snapshot_bank([(user(1), (1_000_000, 0))]);
        let out = p.execute(&swap_tx(user(1), 500_000, true), 1008, 0);
        assert!(out.accepted());
        let (d0, d1) = p.deposits().get(&user(1));
        assert_eq!(d0, 500_000);
        assert!(d1 > 400_000, "received token1: {d1}");
        assert_eq!(p.stats().accepted, 1);
    }

    #[test]
    fn epoch_replays_identically_on_oracle_engine() {
        // System-level differential: the same epoch executed on the bitmap
        // engine and on the seed BTreeMap oracle must produce identical
        // effects, deposits and pool state.
        let run = |search: TickSearch| {
            let mut p = processor_with_liquidity();
            p.pools[0]
                .engine
                .as_cl_mut()
                .expect("the test pool is concentrated-liquidity")
                .set_tick_search(search);
            p.snapshot_bank([
                (user(1), (2_000_000, 2_000_000)),
                (user(2), (500_000, 500_000)),
            ]);
            let effects = vec![
                p.execute(&swap_tx(user(1), 900_000, true), 1008, 0),
                p.execute(&AmmTx::Mint(mint_tx(user(2), 1)), 1008, 0),
                p.execute(&swap_tx(user(1), 700_000, false), 1008, 1),
                p.execute(&swap_tx(user(2), 300_000, true), 1008, 2),
            ];
            let end = p.end_epoch();
            (effects, end)
        };
        let (fx_bitmap, end_bitmap) = run(TickSearch::Bitmap);
        let (fx_oracle, end_oracle) = run(TickSearch::BTreeOracle);
        assert_eq!(fx_bitmap.len(), fx_oracle.len());
        for (a, b) in fx_bitmap.iter().zip(fx_oracle.iter()) {
            assert_eq!(a.effect, b.effect);
        }
        assert_eq!(end_bitmap, end_oracle);
    }

    #[test]
    fn swap_without_deposit_rejected() {
        let mut p = processor_with_liquidity();
        p.snapshot_bank([(user(1), (100, 0))]);
        let out = p.execute(&swap_tx(user(1), 500_000, true), 1008, 0);
        assert!(!out.accepted());
        assert_eq!(p.deposits().get(&user(1)), (100, 0));
        assert_eq!(p.stats().rejected, 1);
    }

    #[test]
    fn expired_deadline_rejected() {
        let mut p = processor_with_liquidity();
        p.snapshot_bank([(user(1), (1_000_000, 0))]);
        let mut tx = swap_tx(user(1), 1000, true);
        if let AmmTx::Swap(s) = &mut tx {
            s.deadline_round = 5;
        }
        let out = p.execute(&tx, 1008, 6);
        assert!(!out.accepted());
    }

    #[test]
    fn accrued_tokens_immediately_tradable() {
        // paper §IV-B: swap output is usable for further trades in-epoch
        let mut p = processor_with_liquidity();
        p.snapshot_bank([(user(1), (1_000_000, 0))]);
        let first = p.execute(&swap_tx(user(1), 1_000_000, true), 1008, 0);
        let got = match first.effect {
            TxEffect::Swap { amount_out, .. } => amount_out,
            _ => panic!("expected swap"),
        };
        // trade the received token1 straight back
        let second = p.execute(&swap_tx(user(1), got, false), 1008, 0);
        assert!(second.accepted(), "{:?}", second.effect);
    }

    #[test]
    fn mint_then_burn_roundtrips_deposit() {
        let mut p = processor_with_liquidity();
        p.snapshot_bank([(user(2), (200_000, 200_000))]);
        let mint = mint_tx(user(2), 1);
        let out = p.execute(&AmmTx::Mint(mint.clone()), 814, 0);
        let (position, spent0, spent1) = match out.effect {
            TxEffect::Mint {
                position,
                amount0,
                amount1,
                created,
                ..
            } => {
                assert!(created);
                (position, amount0, amount1)
            }
            other => panic!("expected mint, got {other:?}"),
        };
        let after_mint = p.deposits().get(&user(2));
        assert_eq!(after_mint.0, 200_000 - spent0);
        assert_eq!(after_mint.1, 200_000 - spent1);

        let burn = AmmTx::Burn(BurnTx {
            user: user(2),
            pool: PoolId(0),
            position,
            liquidity: None,
        });
        let out = p.execute(&burn, 907, 1);
        match out.effect {
            TxEffect::Burn { deleted, .. } => assert!(deleted),
            other => panic!("expected burn, got {other:?}"),
        }
        let after_burn = p.deposits().get(&user(2));
        // at most rounding dust lost
        assert!(200_000 - after_burn.0 <= 2, "{after_burn:?}");
        assert!(200_000 - after_burn.1 <= 2, "{after_burn:?}");
    }

    #[test]
    fn burn_of_foreign_position_rejected() {
        let mut p = processor_with_liquidity();
        p.snapshot_bank([(user(2), (200_000, 200_000)), (user(3), (200_000, 200_000))]);
        let mint = mint_tx(user(2), 1);
        let out = p.execute(&AmmTx::Mint(mint), 814, 0);
        let position = match out.effect {
            TxEffect::Mint { position, .. } => position,
            _ => panic!(),
        };
        let theft = AmmTx::Burn(BurnTx {
            user: user(3),
            pool: PoolId(0),
            position,
            liquidity: None,
        });
        assert!(!p.execute(&theft, 907, 1).accepted());
    }

    #[test]
    fn collect_pulls_fees_into_deposit() {
        let mut p = processor_with_liquidity();
        p.snapshot_bank([
            (user(2), (10_000_000, 10_000_000)),
            (user(4), (80_000_000, 80_000_000)),
        ]);
        let mint = MintTx {
            amount0_desired: 10_000_000,
            amount1_desired: 10_000_000,
            ..mint_tx(user(2), 1)
        };
        let out = p.execute(&AmmTx::Mint(mint), 814, 0);
        let position = match out.effect {
            TxEffect::Mint { position, .. } => position,
            _ => panic!(),
        };
        // heavy trading to accrue fees
        for i in 0..10 {
            let dir = i % 2 == 0;
            assert!(p
                .execute(&swap_tx(user(4), 5_000_000, dir), 1008, 1)
                .accepted());
        }
        let before = p.deposits().get(&user(2));
        let collect = AmmTx::Collect(CollectTx {
            user: user(2),
            pool: PoolId(0),
            position,
            amount0: u128::MAX,
            amount1: u128::MAX,
        });
        let out = p.execute(&collect, 922, 2);
        assert!(out.accepted());
        let after = p.deposits().get(&user(2));
        assert!(
            after.0 > before.0 || after.1 > before.1,
            "no fees collected: {before:?} -> {after:?}"
        );
    }

    #[test]
    fn end_epoch_summary_matches_fig4() {
        let mut p = processor_with_liquidity();
        p.snapshot_bank([(user(1), (1_000_000, 500_000))]);
        p.execute(&swap_tx(user(1), 400_000, true), 1008, 0);
        let (payouts, positions, pool_updates) = p.end_epoch();
        // sumPayouts = ΔDeposits: user 1's final balance
        let entry = payouts.iter().find(|e| e.user == user(1)).unwrap();
        assert_eq!(entry.amount0, 600_000);
        assert!(entry.amount1 > 500_000);
        // the genesis position is not "touched" by the epoch, so no
        // position entries
        assert!(positions.is_empty());
        // pool reserves reported from engine balances
        let b = engine(&p).balances();
        assert_eq!(pool_updates[0].reserve0, b.amount0);
        assert_eq!(pool_updates[0].reserve1, b.amount1);
    }

    #[test]
    fn deleted_positions_reported_only_when_known_to_bank() {
        let mut p = processor_with_liquidity();
        p.snapshot_bank([(user(2), (400_000, 400_000))]);
        // created AND deleted within the same epoch: TokenBank never saw
        // it, so the summary must not report a deletion
        let out = p.execute(&AmmTx::Mint(mint_tx(user(2), 1)), 814, 0);
        let ephemeral = match out.effect {
            TxEffect::Mint { position, .. } => position,
            _ => panic!(),
        };
        p.execute(
            &AmmTx::Burn(BurnTx {
                user: user(2),
                pool: PoolId(0),
                position: ephemeral,
                liquidity: None,
            }),
            907,
            1,
        );
        // created in this epoch, surviving to the summary
        let out = p.execute(&AmmTx::Mint(mint_tx(user(2), 2)), 814, 1);
        let survivor = match out.effect {
            TxEffect::Mint { position, .. } => position,
            _ => panic!(),
        };
        let (_, positions, _) = p.end_epoch();
        assert!(positions.iter().all(|e| e.id != ephemeral));
        assert!(positions.iter().any(|e| e.id == survivor && !e.deleted));

        // next epoch: the survivor is now bank state; deleting it must be
        // reported
        p.snapshot_bank([(user(2), (400_000, 400_000))]);
        p.execute(
            &AmmTx::Burn(BurnTx {
                user: user(2),
                pool: PoolId(0),
                position: survivor,
                liquidity: None,
            }),
            907,
            2,
        );
        let (_, positions, _) = p.end_epoch();
        let del = positions.iter().find(|e| e.id == survivor).unwrap();
        assert!(del.deleted);
    }

    #[test]
    fn rejections_never_mutate_state() {
        let mut p = processor_with_liquidity();
        p.snapshot_bank([(user(1), (100, 100))]);
        let pool_before = engine(&p).balances();
        let deposits_before = p.deposits().clone();
        // all of these must be rejected
        p.execute(&swap_tx(user(1), 10_000, true), 1008, 0);
        p.execute(&AmmTx::Mint(mint_tx(user(1), 1)), 814, 0); // can't cover
        p.execute(
            &AmmTx::Burn(BurnTx {
                user: user(1),
                pool: PoolId(0),
                position: PositionId::derive(&[b"ghost"]),
                liquidity: None,
            }),
            907,
            0,
        );
        assert_eq!(p.stats().rejected, 3);
        assert_eq!(engine(&p).balances(), pool_before);
        assert_eq!(p.deposits(), &deposits_before);
    }

    // ---- many pools ---------------------------------------------------------

    fn processor(pools: u32) -> EpochProcessor {
        let mut p = EpochProcessor::new((0..pools).map(PoolId));
        for pool in 0..pools {
            p.seed_liquidity(
                PoolId(pool),
                user(900 + pool as u64),
                -60_000,
                60_000,
                10u128.pow(13),
                10u128.pow(13),
            );
        }
        p
    }

    fn swap(u: Address, pool: u32, amount: u128, dir: bool) -> AmmTx {
        AmmTx::Swap(SwapTx {
            user: u,
            pool: PoolId(pool),
            zero_for_one: dir,
            intent: SwapIntent::ExactInput {
                amount_in: amount,
                min_amount_out: 0,
            },
            sqrt_price_limit: None,
            deadline_round: 1_000_000,
        })
    }

    /// Deposits for users 0..n.
    fn begin(p: &mut EpochProcessor, users: u64) {
        p.snapshot_bank((0..users).map(|i| (user(i), (1_000_000_000u128, 1_000_000_000u128))));
    }

    /// `n` swaps, user `i % users` on pool `user % pools`.
    fn batch_for(users: u64, pools: u32, n: usize) -> Vec<AmmTx> {
        (0..n as u64)
            .map(|i| {
                let u = i % users;
                swap(
                    user(u),
                    (u % pools as u64) as u32,
                    10_000 + i as u128,
                    i % 2 == 0,
                )
            })
            .collect()
    }

    fn balances(p: &EpochProcessor, pool: u32) -> (u128, u128) {
        let b = p.pool(PoolId(pool)).unwrap().balances();
        (b.amount0, b.amount1)
    }

    #[test]
    fn routes_by_pool_id() {
        let mut p = processor(4);
        begin(&mut p, 8);
        let before: Vec<_> = (0..4).map(|pool| balances(&p, pool)).collect();
        let out = p.execute(&swap(user(2), 2, 50_000, true), 1008, 0);
        assert!(out.accepted());
        assert_eq!(p.stats().accepted, 1);
        for pool in 0..4u32 {
            let moved = balances(&p, pool) != before[pool as usize];
            assert_eq!(moved, pool == 2, "pool {pool}");
        }
    }

    #[test]
    fn unknown_pool_rejected_without_state_change() {
        let mut p = processor(2);
        begin(&mut p, 4);
        let before = p.export_state();
        let out = p.execute(&swap(user(1), 9, 50_000, true), 1008, 0);
        assert!(!out.accepted());
        assert_eq!(p.export_state(), before, "no pool or deposit touched");
    }

    #[test]
    fn batch_preserves_submission_order_per_pool() {
        let mut p = processor(2);
        begin(&mut p, 4);
        let txs = batch_for(4, 2, 10);
        let batch: Vec<(&AmmTx, usize)> = txs.iter().map(|t| (t, 1008)).collect();
        let out = p.execute_batch(&batch, 0, ExecMode);
        assert_eq!(out.len(), txs.len());
        for (i, executed) in out.iter().enumerate() {
            assert_eq!(&executed.tx, &txs[i], "order scrambled at {i}");
        }
    }

    #[test]
    fn end_epoch_merges_sorted_payouts_and_pool_updates() {
        let mut p = processor(3);
        begin(&mut p, 9);
        for tx in batch_for(9, 3, 30) {
            assert!(p.execute(&tx, 1008, 0).accepted());
        }
        let (payouts, _, pools) = p.end_epoch();
        assert_eq!(payouts.len(), 9, "one payout per depositor");
        assert!(payouts.windows(2).all(|w| w[0].user < w[1].user));
        assert_eq!(pools.len(), 3, "one update per pool");
        assert!(pools.windows(2).all(|w| w[0].pool < w[1].pool));
    }

    #[test]
    fn one_book_holds_every_deposit() {
        let mut p = processor(2);
        begin(&mut p, 6);
        assert_eq!(p.deposits().len(), 6);
        for i in 0..6 {
            assert_eq!(p.deposits().get(&user(i)), (1_000_000_000, 1_000_000_000));
        }
        assert_eq!(p.export_state().deposits, p.deposits().to_sorted_entries());
    }

    #[test]
    #[should_panic(expected = "duplicate pool ids")]
    fn duplicate_pools_rejected() {
        EpochProcessor::new([PoolId(1), PoolId(1)]);
    }

    // ---- cross-pool routing -------------------------------------------------

    fn route(u: Address, path: &[u32], first_dir: bool, amount: u128) -> AmmTx {
        let mut dir = first_dir;
        AmmTx::Route(RouteTx {
            user: u,
            hops: path
                .iter()
                .map(|&p| {
                    let hop = RouteHop {
                        pool: PoolId(p),
                        zero_for_one: dir,
                    };
                    dir = !dir;
                    hop
                })
                .collect(),
            amount_in: amount,
            min_amount_out: 0,
            deadline_round: 1_000_000,
        })
    }

    #[test]
    fn route_executes_hops_across_shards_and_nets_deposits() {
        let mut p = processor(3);
        begin(&mut p, 6);
        let tx = route(user(0), &[0, 1, 2], true, 100_000);
        let out = p.execute(&tx, 1072, 0);
        let TxEffect::Route {
            legs,
            amount_in,
            amount_out,
            completed,
        } = &out.effect
        else {
            panic!("expected a route effect, got {:?}", out.effect);
        };
        assert!(completed);
        assert_eq!(legs.len(), 3);
        assert_eq!(*amount_in, 100_000);
        // legs chain: hop k's output is hop k+1's input
        assert_eq!(legs[0].amount_out, legs[1].amount_in);
        assert_eq!(legs[1].amount_out, legs[2].amount_in);
        assert_eq!(legs[2].amount_out, *amount_out);
        // all three pools were touched
        for pool in 0..3u32 {
            assert_ne!(
                balances(&p, pool),
                (10u128.pow(13), 10u128.pow(13)),
                "pool {pool} untouched"
            );
        }
        // the deposit is netted: -in on token0, +out on token1 (3 hops:
        // 0→1, 1→0, 0→1)
        let (d0, d1) = p.deposits().get(&user(0));
        assert_eq!(d0, 1_000_000_000 - 100_000);
        assert_eq!(d1, 1_000_000_000 + amount_out);
        assert_eq!(p.stats().accepted, 1);
        // the netting ledger folded 6 flows into 1 net entry
        assert_eq!(p.epoch_netting().route_count(), 1);
        assert_eq!(p.epoch_netting().flow_count(), 6);
        assert_eq!(p.epoch_netting().net_entry_count(), 1);
        assert!(
            p.epoch_netting().netted_settlement_bytes()
                < p.epoch_netting().naive_settlement_bytes()
        );
    }

    #[test]
    fn route_rejections_are_typed_and_stateless() {
        let mut p = processor(3);
        begin(&mut p, 6);
        let before = p.export_state();

        // duplicate pool → the typed DuplicatePool shape error
        let dup = route(user(0), &[0, 1, 0], true, 10_000);
        let out = p.execute(&dup, 1072, 0);
        let TxEffect::Rejected { reason } = &out.effect else {
            panic!("duplicate-pool route must be rejected");
        };
        assert!(reason.contains("visits pool:0 twice"), "reason: {reason}");

        // broken direction chain
        let broken = AmmTx::Route(RouteTx {
            user: user(0),
            hops: vec![
                RouteHop {
                    pool: PoolId(0),
                    zero_for_one: true,
                },
                RouteHop {
                    pool: PoolId(1),
                    zero_for_one: true,
                },
            ],
            amount_in: 10_000,
            min_amount_out: 0,
            deadline_round: 1_000_000,
        });
        let out = p.execute(&broken, 1072, 0);
        assert!(!out.accepted());

        // unknown pool
        let stray = route(user(0), &[0, 9], true, 10_000);
        let out = p.execute(&stray, 1072, 0);
        let TxEffect::Rejected { reason } = &out.effect else {
            panic!()
        };
        assert!(reason.contains("unknown pool"), "reason: {reason}");

        // insufficient deposit
        let broke = route(user(0), &[0, 1], true, u128::MAX >> 8);
        let out = p.execute(&broke, 1072, 0);
        let TxEffect::Rejected { reason } = &out.effect else {
            panic!()
        };
        assert!(reason.contains("insufficient deposit"), "reason: {reason}");

        // none of the rejections touched pool or deposit state; only the
        // rejection counter moved
        let after = p.export_state();
        assert_eq!(before.pools, after.pools, "pool state mutated");
        assert_eq!(before.deposits, after.deposits, "deposits mutated");
        assert_eq!(after.stats.rejected, 4);
        assert_eq!(p.epoch_netting().route_count(), 0);
    }

    /// Global deposit ↔ pool conservation: `user`'s deposit moved by
    /// exactly what the pools moved the other way.
    fn assert_conserved(
        p: &EpochProcessor,
        user: Address,
        deposit: u128,
        pools_before: &[(u128, u128)],
    ) {
        let (d0, d1) = p.deposits().get(&user);
        let (mut pool_delta0, mut pool_delta1) = (0i128, 0i128);
        for (pool, before) in pools_before.iter().enumerate() {
            let after = balances(p, pool as u32);
            pool_delta0 += after.0 as i128 - before.0 as i128;
            pool_delta1 += after.1 as i128 - before.1 as i128;
        }
        assert_eq!(
            d0 as i128 - deposit as i128,
            -pool_delta0,
            "token0 stranded"
        );
        assert_eq!(
            d1 as i128 - deposit as i128,
            -pool_delta1,
            "token1 stranded"
        );
    }

    #[test]
    fn partial_mid_route_fill_strands_no_tokens() {
        // pool 1's liquidity is microscopic: hop 0's output overwhelms
        // it, so hop 1 consumes only part of its input. The unconsumed
        // intermediate tokens must come back to the user — global
        // deposit ↔ pool conservation holds and the deposit write
        // equals the netting ledger's net delta exactly.
        let mut p = EpochProcessor::new([PoolId(0), PoolId(1)]);
        p.seed_liquidity(
            PoolId(0),
            user(900),
            -60_000,
            60_000,
            10u128.pow(13),
            10u128.pow(13),
        );
        p.seed_liquidity(PoolId(1), user(901), -600, 600, 2_000, 2_000);
        let deposit = 1_000_000_000u128;
        p.snapshot_bank([(user(0), (deposit, deposit))]);
        let pools_before = [balances(&p, 0), balances(&p, 1)];

        let tx = route(user(0), &[0, 1], true, 50_000_000);
        let out = p.execute(&tx, 1040, 0);
        let TxEffect::Route {
            legs, completed, ..
        } = &out.effect
        else {
            panic!("expected route, got {:?}", out.effect);
        };
        assert_eq!(legs.len(), 2);
        assert!(
            legs[1].amount_in < legs[0].amount_out,
            "test needs a partial mid-route fill: {legs:?}"
        );
        assert!(!completed, "partial fill must not report completed");
        assert_conserved(&p, user(0), deposit, &pools_before);

        // the deposit write equals the ledger's net delta
        let (d0, d1) = p.deposits().get(&user(0));
        let nets = p.epoch_netting().net_entries();
        assert_eq!(nets.len(), 1);
        let (_, (n0, n1)) = nets[0];
        assert_eq!(d0 as i128, deposit as i128 + n0);
        assert_eq!(d1 as i128, deposit as i128 + n1);
    }
}
