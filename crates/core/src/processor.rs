//! The sidechain transaction processor: executes swaps, mints, burns and
//! collects against the AMM engine using **pool-snapshot-based, delayed
//! token-payout trading** (paper §IV-B).
//!
//! At epoch start the processor snapshots user deposits from TokenBank
//! (`SnapshotBank`); every accepted transaction is backed by deposit
//! coverage, newly accrued tokens are immediately tradable, and the
//! deposits that moved become the epoch's payout list (Fig. 4).

use ammboost_amm::engines::{Engine, EngineKind, EngineState};
use ammboost_amm::error::AmmError;
use ammboost_amm::pool::SwapKind;
use ammboost_amm::tx::{AmmTx, BurnTx, CollectTx, MintTx, SwapIntent, SwapTx};
use ammboost_amm::types::{Amount, PoolId, PositionId};
use ammboost_crypto::Address;
use ammboost_sidechain::block::{ExecutedTx, TxEffect};
use ammboost_sidechain::summary::{Deposits, PayoutEntry, PoolUpdate, PositionEntry};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Execution statistics per epoch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProcessorStats {
    /// Accepted transactions.
    pub accepted: u64,
    /// Rejected transactions (insufficient deposit, slippage, deadline…).
    pub rejected: u64,
}

/// The persistent state of an [`EpochProcessor`] — everything a restored
/// node needs to continue the epoch bit-identically. Collections are
/// sorted for deterministic encoding. Excluded by design: the cumulative
/// `reject_reasons` monitoring map (a debugging aid with no effect on
/// execution) and the pool's derived tick index (regenerated on restore).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProcessorState {
    /// The pool engine's persistent state (engine-tagged).
    pub pool: EngineState,
    /// The pool's id.
    pub pool_id: PoolId,
    /// Deposit ledger entries, sorted by address.
    pub deposits: Vec<(Address, (u128, u128))>,
    /// Positions touched this epoch, ascending.
    pub touched: Vec<PositionId>,
    /// Positions deleted this epoch with their last owner, ascending.
    pub deleted: Vec<(PositionId, Address)>,
    /// Positions that existed at epoch start, ascending.
    pub preexisting: Vec<PositionId>,
    /// Epoch accept/reject counters.
    pub stats: ProcessorStats,
}

/// The per-epoch sidechain execution engine. The AMM pool state persists
/// across epochs (the sidechain computes evolving balances itself and only
/// reports them back in syncs); deposits are re-snapshotted every epoch.
#[derive(Clone, Debug)]
pub struct EpochProcessor {
    pool: Engine,
    pool_id: PoolId,
    deposits: Deposits,
    touched: BTreeSet<PositionId>,
    deleted: BTreeMap<PositionId, Address>,
    /// Positions that existed when the epoch began (and therefore exist
    /// in TokenBank state). Deletions of positions created *within* the
    /// epoch are not reported — TokenBank never knew them.
    preexisting: BTreeSet<PositionId>,
    stats: ProcessorStats,
    reject_reasons: HashMap<String, u64>,
    /// Set when an accepted transaction (or a liquidity seed) mutated the
    /// pool; consumed by the checkpointer's dirty-pool tracking.
    pool_dirty: bool,
    /// Set at exactly the same mutation points as `pool_dirty`, but
    /// consumed by quote-view publication instead of the checkpointer —
    /// the two consumers drain independently, so checkpointing an epoch
    /// cannot mask a stale cached view (or vice versa).
    view_stale: bool,
}

impl EpochProcessor {
    /// Creates a processor over a fresh standard concentrated-liquidity
    /// pool.
    pub fn new(pool_id: PoolId) -> EpochProcessor {
        Self::with_engine(pool_id, EngineKind::ConcentratedLiquidity)
    }

    /// Creates a processor over a fresh standard pool of the given engine
    /// kind — the entry point for heterogeneous fleets.
    pub fn with_engine(pool_id: PoolId, kind: EngineKind) -> EpochProcessor {
        EpochProcessor {
            pool: Engine::new_standard(kind),
            pool_id,
            deposits: Deposits::new(),
            touched: BTreeSet::new(),
            deleted: BTreeMap::new(),
            preexisting: BTreeSet::new(),
            stats: ProcessorStats::default(),
            reject_reasons: HashMap::new(),
            pool_dirty: false,
            view_stale: true,
        }
    }

    /// The id of the pool this processor executes against.
    pub fn pool_id(&self) -> PoolId {
        self.pool_id
    }

    /// Returns and clears the pool-dirty flag: `true` when the pool was
    /// mutated since the flag was last taken. Feeds the checkpointer's
    /// dirty-pool tracking so clean pools are not re-encoded.
    pub fn take_pool_dirty(&mut self) -> bool {
        std::mem::take(&mut self.pool_dirty)
    }

    /// Returns and clears the view-stale flag: `true` when the pool was
    /// mutated since the last quote-view publication. Feeds
    /// [`crate::shard::ShardMap::publish_view`] so an epoch invalidates
    /// exactly the cached per-pool views it touched.
    pub fn take_view_stale(&mut self) -> bool {
        std::mem::take(&mut self.view_stale)
    }

    /// Exports the processor's persistent state for checkpointing.
    pub fn export_state(&self) -> ProcessorState {
        ProcessorState {
            pool: self.pool.export_state(),
            pool_id: self.pool_id,
            deposits: self.deposits.to_sorted_entries(),
            touched: self.touched.iter().copied().collect(),
            deleted: self.deleted.iter().map(|(id, a)| (*id, *a)).collect(),
            preexisting: self.preexisting.iter().copied().collect(),
            stats: self.stats,
        }
    }

    /// Reconstructs a processor from checkpointed state, regenerating the
    /// pool's derived tick index. The restored processor executes
    /// subsequent transactions bit-identically to the exported one.
    ///
    /// # Errors
    /// Propagates pool-state validation failures (corrupt snapshot).
    pub fn from_state(state: ProcessorState) -> Result<EpochProcessor, AmmError> {
        Ok(Self::from_restored(
            Engine::from_state(state.pool)?,
            state.pool_id,
            Deposits::from_sorted_entries(state.deposits),
            state.touched,
            state.deleted,
            state.preexisting,
            state.stats,
        ))
    }

    /// Reassembles a processor from parts the state subsystem already
    /// validated and rebuilt (the `restore_node` path, where the pool
    /// comes out of `ammboost_state::sync::restore`).
    pub fn from_restored(
        pool: Engine,
        pool_id: PoolId,
        deposits: Deposits,
        touched: Vec<PositionId>,
        deleted: Vec<(PositionId, Address)>,
        preexisting: Vec<PositionId>,
        stats: ProcessorStats,
    ) -> EpochProcessor {
        EpochProcessor {
            pool,
            pool_id,
            deposits,
            touched: touched.into_iter().collect(),
            deleted: deleted.into_iter().collect(),
            preexisting: preexisting.into_iter().collect(),
            stats,
            reject_reasons: HashMap::new(),
            pool_dirty: false,
            view_stale: true,
        }
    }

    /// Read access to the pool engine.
    pub fn pool(&self) -> &Engine {
        &self.pool
    }

    /// The engine kind this processor's pool runs.
    pub fn engine_kind(&self) -> EngineKind {
        self.pool.kind()
    }

    /// Read access to the deposit ledger.
    pub fn deposits(&self) -> &Deposits {
        &self.deposits
    }

    /// Positions touched this epoch, ascending — checkpoint metadata,
    /// exported without cloning the pool.
    pub fn touched_positions(&self) -> Vec<PositionId> {
        self.touched.iter().copied().collect()
    }

    /// Positions deleted this epoch with their last owner, ascending.
    pub fn deleted_positions(&self) -> Vec<(PositionId, Address)> {
        self.deleted.iter().map(|(id, a)| (*id, *a)).collect()
    }

    /// Positions that existed at epoch start, ascending.
    pub fn preexisting_positions(&self) -> Vec<PositionId> {
        self.preexisting.iter().copied().collect()
    }

    /// Current epoch statistics.
    pub fn stats(&self) -> ProcessorStats {
        self.stats
    }

    /// Cumulative rejection reasons (across all epochs) — a debugging and
    /// monitoring aid.
    pub fn reject_reasons(&self) -> &HashMap<String, u64> {
        &self.reject_reasons
    }

    /// Seeds standing liquidity outside the deposit flow (the pool's
    /// genesis liquidity, analogous to the paper deploying a funded pool
    /// before the experiment).
    ///
    /// # Panics
    /// Panics if the seed mint is invalid — a configuration error.
    pub fn seed_liquidity(
        &mut self,
        owner: Address,
        tick_lower: i32,
        tick_upper: i32,
        amount0: Amount,
        amount1: Amount,
    ) -> PositionId {
        let id = PositionId::derive(&[
            b"genesis-liquidity",
            owner.as_bytes(),
            &tick_lower.to_be_bytes(),
            &tick_upper.to_be_bytes(),
        ]);
        self.pool
            .mint(id, owner, tick_lower, tick_upper, amount0, amount1)
            .expect("genesis liquidity mint must be valid");
        self.pool_dirty = true;
        self.view_stale = true;
        id
    }

    /// `SnapshotBank`: installs the deposit snapshot retrieved from
    /// TokenBank at the start of an epoch and resets per-epoch state. The
    /// snapshot is the baseline the epoch's payout list is measured
    /// against.
    pub fn begin_epoch(&mut self, snapshot: HashMap<Address, (u128, u128)>) {
        self.begin_epoch_with(Deposits::from_snapshot(snapshot));
    }

    /// [`EpochProcessor::begin_epoch`] over an already-built ledger.
    pub(crate) fn begin_epoch_with(&mut self, snapshot: Deposits) {
        self.deposits = snapshot;
        self.reset_epoch_tracking();
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
        self.touched.clear();
        self.deleted.clear();
        self.preexisting = self.pool.position_ids().into_iter().collect();
        self.stats = ProcessorStats::default();
    }

    /// Executes one transaction at sidechain round `round` (for deadline
    /// checks), returning the recorded effect. Rejections never mutate
    /// state.
    pub fn execute(&mut self, tx: &AmmTx, wire_size: usize, round: u64) -> ExecutedTx {
        let effect = match tx {
            AmmTx::Swap(s) => self.exec_swap(s, round),
            AmmTx::Mint(m) => self.exec_mint(m),
            AmmTx::Burn(b) => self.exec_burn(b),
            AmmTx::Collect(c) => self.exec_collect(c),
            // routes span pools: only the shard map's two-phase epoch
            // (hop waves + netting barrier) can execute them
            AmmTx::Route(_) => Self::reject("route submitted to a single shard"),
        };
        match &effect {
            TxEffect::Rejected { reason } => {
                self.stats.rejected += 1;
                *self.reject_reasons.entry(reason.clone()).or_insert(0) += 1;
            }
            _ => {
                self.stats.accepted += 1;
                self.pool_dirty = true;
                self.view_stale = true;
            }
        }
        ExecutedTx {
            tx: tx.clone(),
            wire_size,
            effect,
        }
    }

    fn reject(reason: impl Into<String>) -> TxEffect {
        TxEffect::Rejected {
            reason: reason.into(),
        }
    }

    // ---- routed-swap hooks (driven by `ShardMap`'s two-phase epoch) -----

    /// Reserves a route's worst-case input from `user`'s deposit on this
    /// shard (the user's *home* shard — where `begin_epoch` routed their
    /// balance). Returns `false` without mutating when coverage is
    /// insufficient. Called during batch admission, before any leg
    /// executes, so coverage is checked at one deterministic point.
    pub fn reserve_route_input(&mut self, user: Address, need0: u128, need1: u128) -> bool {
        if !self.deposits.can_cover(&user, need0, need1) {
            return false;
        }
        self.deposits
            .debit(user, need0, need1)
            .expect("coverage checked above");
        true
    }

    /// Credits a route's output (or refunds its reserved input when no
    /// leg executed) to `user`'s deposit on this shard — the netting
    /// barrier's only deposit write per route.
    pub fn credit_route_output(&mut self, user: Address, amount0: u128, amount1: u128) {
        self.deposits
            .credit(user, amount0, amount1)
            .expect("credit within u128 token supplies");
    }

    /// Executes one route leg against this shard's pool: an exact-input
    /// swap with no intra-route slippage bounds (`final_min_out` is set
    /// on the route's last hop only). Deposits are untouched — flows
    /// settle at the netting barrier.
    ///
    /// # Errors
    /// Propagates pool failures (state untouched — swaps are atomic).
    pub fn execute_route_leg(
        &mut self,
        zero_for_one: bool,
        amount_in: u128,
        final_min_out: Option<u128>,
    ) -> Result<(u128, u128), AmmError> {
        let result = self.pool.swap_with_protection(
            zero_for_one,
            SwapKind::ExactInput(amount_in),
            None,
            final_min_out.unwrap_or(0),
            Amount::MAX,
        )?;
        self.pool_dirty = true;
        self.view_stale = true;
        Ok((result.amount_in, result.amount_out))
    }

    /// Books an accepted route into this shard's epoch counters (the
    /// user's home shard owns the route for accounting, exactly as it
    /// owns their deposit).
    pub fn note_route_accepted(&mut self) {
        self.stats.accepted += 1;
    }

    /// Books a rejected route into this shard's epoch counters.
    pub fn note_route_rejected(&mut self, reason: &str) {
        self.stats.rejected += 1;
        *self.reject_reasons.entry(reason.to_string()).or_insert(0) += 1;
    }

    fn exec_swap(&mut self, s: &SwapTx, round: u64) -> TxEffect {
        if round > s.deadline_round {
            return Self::reject("deadline exceeded");
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
        if !self.deposits.can_cover(&s.user, need0, need1) {
            return Self::reject("insufficient deposit for swap input");
        }
        let result = match self.pool.swap_with_protection(
            s.zero_for_one,
            kind,
            s.sqrt_price_limit,
            min_out,
            max_in,
        ) {
            Ok(r) => r,
            Err(e) => return Self::reject(format!("swap failed: {e}")),
        };
        // debit actual input, credit output — accrued tokens usable
        // immediately
        let (in0, in1, out0, out1) = if s.zero_for_one {
            (result.amount_in, 0, 0, result.amount_out)
        } else {
            (0, result.amount_in, result.amount_out, 0)
        };
        self.deposits
            .debit(s.user, in0, in1)
            .expect("coverage checked above");
        self.deposits
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

    fn exec_mint(&mut self, m: &MintTx) -> TxEffect {
        let id = m.derived_position_id();
        // top-ups use the existing position's range (the transaction's
        // ticks are advisory); new positions use the transaction's range
        let (tick_lower, tick_upper) = match m.position {
            Some(existing) => match self.pool.position_info(&existing) {
                Some(p) if p.owner != m.user => {
                    return Self::reject("not the position owner");
                }
                Some(p) => (p.tick_lower, p.tick_upper),
                None => return Self::reject("position not found"),
            },
            None => (m.tick_lower, m.tick_upper),
        };
        let (liquidity, amounts) =
            match self
                .pool
                .quote_mint(tick_lower, tick_upper, m.amount0_desired, m.amount1_desired)
            {
                Ok(q) => q,
                Err(e) => return Self::reject(format!("mint failed: {e}")),
            };
        if !self
            .deposits
            .can_cover(&m.user, amounts.amount0, amounts.amount1)
        {
            return Self::reject("insufficient deposit for mint");
        }
        let created = self.pool.position_info(&id).is_none();
        let (minted, actual) = match self.pool.mint(
            id,
            m.user,
            tick_lower,
            tick_upper,
            m.amount0_desired,
            m.amount1_desired,
        ) {
            Ok(a) => a,
            Err(e) => return Self::reject(format!("mint failed: {e}")),
        };
        debug_assert_eq!(minted, liquidity, "quote must match execution");
        debug_assert_eq!(actual, amounts, "quote must match execution");
        self.deposits
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

    fn exec_burn(&mut self, b: &BurnTx) -> TxEffect {
        let held = match self.pool.position_info(&b.position) {
            Some(p) if p.owner == b.user => p.liquidity,
            Some(_) => return Self::reject("not the position owner"),
            None => return Self::reject("position not found"),
        };
        let to_burn = b.liquidity.unwrap_or(held).min(held);
        if to_burn == 0 {
            return Self::reject("nothing to burn");
        }
        let full = to_burn == held;
        let principal = match self.pool.burn(b.position, b.user, to_burn) {
            Ok(a) => a,
            Err(e) => return Self::reject(format!("burn failed: {e}")),
        };
        // withdraw from the pool into the LP's deposit: the principal, and
        // for a full burn also any accrued fees (paper §IV-B "Burns")
        let (take0, take1) = if full {
            (Amount::MAX, Amount::MAX)
        } else {
            (principal.amount0, principal.amount1)
        };
        let out = self
            .pool
            .collect(b.position, b.user, take0, take1)
            .expect("collect of just-burned principal cannot fail");
        self.deposits
            .credit(b.user, out.amount0, out.amount1)
            .expect("credit within supply");
        let deleted = self.pool.position_info(&b.position).is_none();
        if deleted {
            self.touched.remove(&b.position);
            if self.preexisting.contains(&b.position) {
                self.deleted.insert(b.position, b.user);
            }
        } else {
            self.touched.insert(b.position);
        }
        TxEffect::Burn {
            position: b.position,
            liquidity: to_burn,
            amount0: out.amount0,
            amount1: out.amount1,
            deleted,
        }
    }

    fn exec_collect(&mut self, c: &CollectTx) -> TxEffect {
        match self.pool.position_info(&c.position) {
            Some(p) if p.owner == c.user => {}
            Some(_) => return Self::reject("not the position owner"),
            None => return Self::reject("position not found"),
        }
        let out = match self.pool.collect(c.position, c.user, c.amount0, c.amount1) {
            Ok(a) => a,
            Err(e) => return Self::reject(format!("collect failed: {e}")),
        };
        self.deposits
            .credit(c.user, out.amount0, out.amount1)
            .expect("credit within supply");
        if self.pool.position_info(&c.position).is_none() {
            self.touched.remove(&c.position);
            if self.preexisting.contains(&c.position) {
                self.deleted.insert(c.position, c.user);
            }
        } else {
            self.touched.insert(c.position);
        }
        TxEffect::Collect {
            position: c.position,
            amount0: out.amount0,
            amount1: out.amount1,
        }
    }

    /// Ends the epoch, producing the summary material (Fig. 4):
    /// the payout list (closing deposits of the users whose balance
    /// moved), the touched/deleted position entries, and the updated pool
    /// reserves.
    pub fn end_epoch(&mut self) -> (Vec<PayoutEntry>, Vec<PositionEntry>, PoolUpdate) {
        let payouts = self.deposits.to_payouts();
        let mut positions = Vec::with_capacity(self.touched.len() + self.deleted.len());
        for id in &self.touched {
            if let Some(p) = self.pool.position_info(id) {
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
        let balances = self.pool.balances();
        let pool_update = PoolUpdate {
            pool: self.pool_id,
            reserve0: balances.amount0,
            reserve1: balances.amount1,
        };
        (payouts, positions, pool_update)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ammboost_amm::pool::TickSearch;

    fn user(i: u64) -> Address {
        Address::from_index(i)
    }

    fn processor_with_liquidity() -> EpochProcessor {
        let mut p = EpochProcessor::new(PoolId(0));
        p.seed_liquidity(user(999), -6000, 6000, 10u128.pow(12), 10u128.pow(12));
        p
    }

    fn snapshot(entries: &[(Address, (u128, u128))]) -> HashMap<Address, (u128, u128)> {
        entries.iter().copied().collect()
    }

    fn swap_tx(u: Address, amount: u128, zero_for_one: bool) -> AmmTx {
        AmmTx::Swap(SwapTx {
            user: u,
            pool: PoolId(0),
            zero_for_one,
            intent: SwapIntent::ExactInput {
                amount_in: amount,
                min_amount_out: 0,
            },
            sqrt_price_limit: None,
            deadline_round: 1000,
        })
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
        p.begin_epoch(snapshot(&[(user(1), (1_000_000, 0))]));
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
            p.pool
                .as_cl_mut()
                .expect("the test pool is concentrated-liquidity")
                .set_tick_search(search);
            p.begin_epoch(snapshot(&[
                (user(1), (2_000_000, 2_000_000)),
                (user(2), (500_000, 500_000)),
            ]));
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
        p.begin_epoch(snapshot(&[(user(1), (100, 0))]));
        let out = p.execute(&swap_tx(user(1), 500_000, true), 1008, 0);
        assert!(!out.accepted());
        assert_eq!(p.deposits().get(&user(1)), (100, 0));
        assert_eq!(p.stats().rejected, 1);
    }

    #[test]
    fn expired_deadline_rejected() {
        let mut p = processor_with_liquidity();
        p.begin_epoch(snapshot(&[(user(1), (1_000_000, 0))]));
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
        p.begin_epoch(snapshot(&[(user(1), (1_000_000, 0))]));
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
        p.begin_epoch(snapshot(&[(user(2), (200_000, 200_000))]));
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
        p.begin_epoch(snapshot(&[
            (user(2), (200_000, 200_000)),
            (user(3), (200_000, 200_000)),
        ]));
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
        p.begin_epoch(snapshot(&[
            (user(2), (10_000_000, 10_000_000)),
            (user(4), (80_000_000, 80_000_000)),
        ]));
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
        p.begin_epoch(snapshot(&[(user(1), (1_000_000, 500_000))]));
        p.execute(&swap_tx(user(1), 400_000, true), 1008, 0);
        let (payouts, positions, pool_update) = p.end_epoch();
        // sumPayouts = ΔDeposits: user 1's final balance
        let entry = payouts.iter().find(|e| e.user == user(1)).unwrap();
        assert_eq!(entry.amount0, 600_000);
        assert!(entry.amount1 > 500_000);
        // the genesis position is not "touched" by the epoch, so no
        // position entries
        assert!(positions.is_empty());
        // pool reserves reported from engine balances
        let b = p.pool().balances();
        assert_eq!(pool_update.reserve0, b.amount0);
        assert_eq!(pool_update.reserve1, b.amount1);
    }

    #[test]
    fn deleted_positions_reported_only_when_known_to_bank() {
        let mut p = processor_with_liquidity();
        p.begin_epoch(snapshot(&[(user(2), (400_000, 400_000))]));
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
        p.begin_epoch(snapshot(&[(user(2), (400_000, 400_000))]));
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
        p.begin_epoch(snapshot(&[(user(1), (100, 100))]));
        let pool_before = p.pool().balances();
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
        assert_eq!(p.pool().balances(), pool_before);
        assert_eq!(p.deposits(), &deposits_before);
    }
}
