//! The concentrated-liquidity pool: tick-indexed liquidity, the multi-range
//! swap loop, position lifecycle (mint / burn / collect), per-position fee
//! accounting and flash loans.
//!
//! This engine is the *single* implementation of AMM logic in the
//! workspace: the mainchain baseline contracts and the ammBoost sidechain
//! both execute it, exactly as the paper migrates "the same logic adopted
//! by the AMM" to layer 2 (§IV-B).

use crate::error::AmmError;
use crate::fast_hash::FastIntBuildHasher;
use crate::liquidity_math::{add_delta, liquidity_for_amounts};
use crate::positions::{PositionRecords, PositionTable};
use crate::sqrt_price_math::{amount0_delta, amount1_delta};
use crate::swap_math::{compute_swap_step, Remaining, SwapStep};
use crate::tick_bitmap::TickBitmap;
use crate::tick_math::{
    max_sqrt_ratio, min_sqrt_ratio, sqrt_ratio_at_tick, tick_at_sqrt_ratio, tick_bound, MAX_TICK,
    MIN_TICK,
};
use crate::types::{Amount, AmountPair, Liquidity, PositionId, Tick};
use ammboost_crypto::{Address, U256};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

/// Per-tick state (Uniswap `Tick.Info`).
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TickInfo {
    /// Total liquidity referencing this tick from either side.
    pub liquidity_gross: Liquidity,
    /// Net liquidity added when crossing left→right.
    pub liquidity_net: i128,
    /// Fee growth (token0, Q128) on the *other* side of this tick.
    pub fee_growth_outside0: U256,
    /// Fee growth (token1, Q128) on the other side of this tick.
    pub fee_growth_outside1: U256,
}

/// A liquidity position.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Position {
    /// The owner's address (the LP's public-key hash).
    pub owner: Address,
    /// Lower tick of the active range.
    pub tick_lower: Tick,
    /// Upper tick of the active range.
    pub tick_upper: Tick,
    /// Liquidity owned by this position.
    pub liquidity: Liquidity,
    /// Fee growth inside the range at the last touch (token0, Q128).
    pub fee_growth_inside0_last: U256,
    /// Fee growth inside the range at the last touch (token1, Q128).
    pub fee_growth_inside1_last: U256,
    /// Token0 owed to the owner (accrued fees + burned principal).
    pub tokens_owed0: Amount,
    /// Token1 owed to the owner.
    pub tokens_owed1: Amount,
}

/// Result of a swap.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SwapResult {
    /// Total input paid by the trader, fee included.
    pub amount_in: Amount,
    /// Output delivered to the trader.
    pub amount_out: Amount,
    /// The fee portion of `amount_in` (distributed to in-range LPs).
    pub fee_paid: Amount,
    /// Number of initialized ticks crossed.
    pub ticks_crossed: u32,
}

/// The fully-staged outcome of a swap, as computed by the read-only swap
/// loop: every pool field the commit step writes, plus the trader-facing
/// totals. Produced by `compute_swap`, committed by
/// [`Pool::swap_with_protection`] or returned as a quote by
/// [`Pool::quote_swap_with_protection`].
#[derive(Clone, Debug)]
struct SwapPlan {
    amount_in: Amount,
    amount_out: Amount,
    fee_total: Amount,
    sqrt_price: U256,
    tick: Tick,
    tick_bounds: TickBounds,
    liquidity: Liquidity,
    fee_growth0: U256,
    fee_growth1: U256,
    balance0: Amount,
    balance1: Amount,
}

/// A read-only valuation of one position at the pool's current price,
/// returned by [`Pool::value_position`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PositionValuation {
    /// Principal the position's liquidity would redeem if burned at the
    /// current price (rounded down, as [`Pool::burn`] credits it).
    pub principal: AmountPair,
    /// Tokens already owed: unclaimed `tokens_owed` plus fees accrued
    /// since the position's last touch.
    pub owed: AmountPair,
}

/// Swap direction + budget: what the trader specifies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SwapKind {
    /// Spend exactly this much input token.
    ExactInput(Amount),
    /// Receive exactly this much output token.
    ExactOutput(Amount),
}

/// Hot-path mirror of one initialized tick: its boundary sqrt price
/// (immutable once computed) and its net liquidity delta, so a crossing
/// touches neither `sqrt_ratio_at_tick` nor the ordered tick table.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
struct TickCache {
    sqrt_price: U256,
    liquidity_net: i128,
}

/// The sqrt prices that bound a tick: `lower = sqrt_ratio_at_tick(tick)`
/// and `upper = sqrt_ratio_at_tick(tick + 1)` ([`tick_bound`]), so `tick`
/// is the tick of every price in `[lower, upper)`. `None` marks a side not
/// derived yet; deriving it gives `None` again only below `MIN_TICK`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
struct TickBounds {
    lower: Option<U256>,
    upper: Option<U256>,
}

impl TickBounds {
    /// Neither side derived.
    const UNKNOWN: TickBounds = TickBounds {
        lower: None,
        upper: None,
    };

    /// Both bounds of `tick`, derived.
    fn of(tick: Tick) -> TickBounds {
        TickBounds {
            lower: tick_bound(tick),
            upper: tick_bound(tick + 1),
        }
    }

    /// The tick of `price` after a swap whose staged tick is `tick`, with
    /// `self` its bounds, and the bounds of the tick returned as far as
    /// they are known: `tick` when the price lies inside them; else the
    /// neighbouring tick on the side the price left by, when the price is
    /// within a tick's width of that side (one probe); else the bracketed
    /// search, whose tick's bounds are derived when next needed. A pool
    /// priced exactly on a boundary — a fresh pool, or one whose last swap
    /// stopped at a crossing — thus pays one probe, not a search, for a
    /// swap that leaves it.
    fn tick_of(self, tick: Tick, price: U256) -> Result<(Tick, TickBounds), AmmError> {
        let lower = self.lower.or_else(|| tick_bound(tick));
        let upper = self.upper.or_else(|| tick_bound(tick + 1));
        // adjacent sqrt ratios differ by a factor of √1.0001 < 1 + 2⁻¹⁴, so
        // a price farther than 2⁻¹⁴ of a bound lies beyond the next tick
        let found = match (lower, upper) {
            (Some(lo), Some(hi)) if lo <= price && price < hi => Some((tick, lower, upper)),
            (Some(lo), _) if price < lo && price >= lo - (lo >> 14) => tick_bound(tick - 1)
                .filter(|below| *below <= price)
                .map(|below| (tick - 1, Some(below), Some(lo))),
            (_, Some(hi)) if price >= hi && price < hi + (hi >> 14) => tick_bound(tick + 2)
                .filter(|above| price < *above)
                .map(|above| (tick + 1, Some(hi), Some(above))),
            _ => None,
        };
        let Some((out, lower, upper)) = found else {
            return Ok((tick_at_sqrt_ratio(price)?, TickBounds::UNKNOWN));
        };
        debug_assert_eq!(
            Ok(out),
            tick_at_sqrt_ratio(price),
            "bounds cache at tick {tick}"
        );
        debug_assert_eq!(TickBounds { lower, upper }, TickBounds::of(out));
        Ok((out, TickBounds { lower, upper }))
    }
}

/// The persistent state of a [`Pool`] — every field that must survive a
/// snapshot/restore cycle, **excluding** derived data (`tick_bitmap`,
/// `tick_cache`, swap scratch buffers), which [`Pool::from_state`]
/// regenerates from the tick table. Collections are sorted so
/// the same pool always exports the same byte-identical state.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PoolState {
    /// Swap fee in pips.
    pub fee_pips: u32,
    /// Tick granularity.
    pub tick_spacing: i32,
    /// Current sqrt price (Q64.96).
    pub sqrt_price: U256,
    /// Current tick.
    pub tick: Tick,
    /// In-range liquidity.
    pub liquidity: Liquidity,
    /// Global fee growth, token0 (Q128).
    pub fee_growth_global0: U256,
    /// Global fee growth, token1 (Q128).
    pub fee_growth_global1: U256,
    /// Token0 balance.
    pub balance0: Amount,
    /// Token1 balance.
    pub balance1: Amount,
    /// Initialized ticks, ascending by tick.
    pub ticks: Vec<(Tick, TickInfo)>,
    /// Live positions as wire-format records, ascending by id. Kept raw
    /// so a restore adopts them zero-copy and decodes lazily.
    pub positions: PositionRecords,
}

/// A concentrated-liquidity pool for one token pair.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Pool {
    /// Swap fee in pips (hundredths of a bip); 3000 = 0.30%.
    pub fee_pips: u32,
    /// Minimum tick granularity for position boundaries.
    pub tick_spacing: i32,
    sqrt_price: U256,
    tick: Tick,
    /// The bounds of `tick`, so a swap that ends inside them keeps its tick
    /// without a tick-math search. Derived from `tick`: set at construction
    /// and restore, taken from the swap plan at each commit (a side the
    /// swap did not need may be left underived), never exported.
    tick_bounds: TickBounds,
    liquidity: Liquidity,
    ticks: BTreeMap<Tick, TickInfo>,
    positions: PositionTable,
    fee_growth_global0: U256,
    fee_growth_global1: U256,
    balance0: Amount,
    balance1: Amount,
    /// Word-packed index over initialized ticks, kept in lockstep with
    /// `ticks`. Derived data: rebuildable from `ticks`.
    tick_bitmap: TickBitmap,
    /// Per-initialized-tick cache (boundary price + net liquidity), kept
    /// in lockstep with `ticks`; the swap loop reads only this.
    tick_cache: HashMap<Tick, TickCache, FastIntBuildHasher>,
    /// Reusable crossing journal: cleared and refilled by each swap so the
    /// hot loop does not allocate.
    crossings_buf: Vec<(Tick, U256, U256)>,
}

impl Pool {
    /// Creates a pool at an initial sqrt price.
    ///
    /// # Errors
    /// Fails if the price is out of tick-math range or the fee ≥ 100%.
    pub fn new(fee_pips: u32, tick_spacing: i32, sqrt_price: U256) -> Result<Pool, AmmError> {
        if fee_pips >= crate::types::PIPS_DENOMINATOR {
            return Err(AmmError::InvalidFee(fee_pips));
        }
        if tick_spacing <= 0 {
            return Err(AmmError::InvalidTickRange {
                lower: 0,
                upper: tick_spacing,
            });
        }
        let tick = tick_at_sqrt_ratio(sqrt_price)?;
        Ok(Pool {
            fee_pips,
            tick_spacing,
            sqrt_price,
            tick,
            tick_bounds: TickBounds::of(tick),
            liquidity: 0,
            ticks: BTreeMap::new(),
            positions: PositionTable::new(),
            fee_growth_global0: U256::ZERO,
            fee_growth_global1: U256::ZERO,
            balance0: 0,
            balance1: 0,
            tick_bitmap: TickBitmap::new(tick_spacing),
            tick_cache: HashMap::default(),
            crossings_buf: Vec::with_capacity(16),
        })
    }

    /// A pool at price 1.0 with Uniswap's 0.3% fee tier (spacing 60) — the
    /// configuration of the paper's single-pool experiments.
    pub fn new_standard() -> Pool {
        Pool::new(3000, 60, sqrt_ratio_at_tick(0).expect("tick 0 valid"))
            .expect("standard pool parameters are valid")
    }

    /// Current sqrt price (Q64.96).
    pub fn sqrt_price(&self) -> U256 {
        self.sqrt_price
    }

    /// Current tick.
    pub fn tick(&self) -> Tick {
        self.tick
    }

    /// Currently in-range liquidity.
    pub fn liquidity(&self) -> Liquidity {
        self.liquidity
    }

    /// Pool token balances (token0, token1).
    pub fn balances(&self) -> AmountPair {
        AmountPair::new(self.balance0, self.balance1)
    }

    /// Global fee growth accumulators (Q128).
    pub fn fee_growth_global(&self) -> (U256, U256) {
        (self.fee_growth_global0, self.fee_growth_global1)
    }

    /// Looks up a position, decoding it from the record base if it has
    /// not been materialized yet.
    pub fn position(&self, id: &PositionId) -> Option<Position> {
        self.positions.get(id)
    }

    /// Iterates over all positions (decoded on the fly; order
    /// unspecified).
    pub fn positions(&self) -> impl Iterator<Item = (PositionId, Position)> + '_ {
        self.positions.iter()
    }

    /// Number of live positions.
    pub fn position_count(&self) -> usize {
        self.positions.len()
    }

    /// Number of initialized ticks.
    pub fn initialized_tick_count(&self) -> usize {
        self.ticks.len()
    }

    /// Rebuilds the tick bitmap and the boundary-price cache from the tick
    /// table. The accelerating structures are derived data; a pool state
    /// restored from an external snapshot ([`Pool::from_state`]) calls
    /// this once instead of shipping them.
    ///
    /// # Errors
    /// Fails only if a stored tick is out of tick-math range (corrupt
    /// snapshot).
    fn rebuild_tick_index(&mut self) -> Result<(), AmmError> {
        let mut bitmap = TickBitmap::new(self.tick_spacing);
        let mut cache = HashMap::with_capacity_and_hasher(self.ticks.len(), Default::default());
        for (t, info) in &self.ticks {
            // derive the boundary price first: it is the range check, and
            // must fail (not panic in the bitmap) on a corrupt tick
            let sqrt_price = sqrt_ratio_at_tick(*t)?;
            bitmap.set(*t);
            cache.insert(
                *t,
                TickCache {
                    sqrt_price,
                    liquidity_net: info.liquidity_net,
                },
            );
        }
        self.tick_bitmap = bitmap;
        self.tick_cache = cache;
        Ok(())
    }

    /// Exports the pool's persistent state (derived structures excluded)
    /// in a deterministic order, for snapshotting.
    pub fn export_state(&self) -> PoolState {
        // zero-copy when no position was touched since restore; otherwise
        // one sorted merge of the record base and the decoded overlay
        let positions = self.positions.export_records();
        PoolState {
            fee_pips: self.fee_pips,
            tick_spacing: self.tick_spacing,
            sqrt_price: self.sqrt_price,
            tick: self.tick,
            liquidity: self.liquidity,
            fee_growth_global0: self.fee_growth_global0,
            fee_growth_global1: self.fee_growth_global1,
            balance0: self.balance0,
            balance1: self.balance1,
            ticks: self.ticks.iter().map(|(t, i)| (*t, i.clone())).collect(),
            positions,
        }
    }

    /// Reconstructs a pool from snapshotted state, regenerating all
    /// derived structures from the tick table. The restored
    /// pool behaves bit-identically to the one that was exported.
    ///
    /// # Errors
    /// Fails when the state carries an invalid fee/spacing or a tick
    /// outside tick-math range (corrupt snapshot).
    pub fn from_state(state: PoolState) -> Result<Pool, AmmError> {
        if state.fee_pips >= crate::types::PIPS_DENOMINATOR {
            return Err(AmmError::InvalidFee(state.fee_pips));
        }
        if state.tick_spacing <= 0 {
            return Err(AmmError::InvalidTickRange {
                lower: 0,
                upper: state.tick_spacing,
            });
        }
        if !(MIN_TICK..=MAX_TICK).contains(&state.tick) {
            return Err(AmmError::InvalidTickRange {
                lower: state.tick,
                upper: state.tick,
            });
        }
        // every stored tick must be spacing-aligned: an unaligned tick
        // would land on the wrong bitmap bit and silently diverge (or
        // panic in debug) instead of failing closed on a corrupt snapshot
        for (t, _) in &state.ticks {
            if *t % state.tick_spacing != 0 || !(MIN_TICK..=MAX_TICK).contains(t) {
                return Err(AmmError::InvalidTickRange {
                    lower: *t,
                    upper: *t,
                });
            }
        }
        // ticks must be strictly ascending: the BTreeMap below would
        // silently collapse duplicates
        if let Some(pair) = state.ticks.windows(2).find(|w| w[0].0 >= w[1].0) {
            return Err(AmmError::InvalidTickRange {
                lower: pair[0].0,
                upper: pair[1].0,
            });
        }
        let mut pool = Pool {
            fee_pips: state.fee_pips,
            tick_spacing: state.tick_spacing,
            sqrt_price: state.sqrt_price,
            tick: state.tick,
            tick_bounds: TickBounds::of(state.tick),
            liquidity: state.liquidity,
            ticks: state.ticks.into_iter().collect(),
            // O(1): the wire records become the table's base; positions
            // decode individually on first touch
            positions: PositionTable::from_records(state.positions),
            fee_growth_global0: state.fee_growth_global0,
            fee_growth_global1: state.fee_growth_global1,
            balance0: state.balance0,
            balance1: state.balance1,
            tick_bitmap: TickBitmap::new(state.tick_spacing),
            tick_cache: HashMap::default(),
            crossings_buf: Vec::with_capacity(16),
        };
        pool.rebuild_tick_index()?;
        Ok(pool)
    }

    fn check_ticks(&self, lower: Tick, upper: Tick) -> Result<(), AmmError> {
        if lower >= upper
            || lower < MIN_TICK
            || upper > MAX_TICK
            || lower % self.tick_spacing != 0
            || upper % self.tick_spacing != 0
        {
            return Err(AmmError::InvalidTickRange { lower, upper });
        }
        Ok(())
    }

    // ---- position lifecycle ------------------------------------------------

    /// Mints (or tops up) a position with the given token budget, creating
    /// as much liquidity as the budget allows at the current price —
    /// the `getLiquidityForAmounts` + `mint` flow of the Uniswap periphery.
    ///
    /// Returns the liquidity created and the exact amounts drawn.
    ///
    /// # Errors
    /// Fails on invalid tick range, zero resulting liquidity, or owner
    /// mismatch when topping up an existing position.
    pub fn mint(
        &mut self,
        id: PositionId,
        owner: Address,
        tick_lower: Tick,
        tick_upper: Tick,
        amount0_desired: Amount,
        amount1_desired: Amount,
    ) -> Result<(Liquidity, AmountPair), AmmError> {
        self.check_ticks(tick_lower, tick_upper)?;
        let sqrt_lo = sqrt_ratio_at_tick(tick_lower)?;
        let sqrt_hi = sqrt_ratio_at_tick(tick_upper)?;
        let liquidity = liquidity_for_amounts(
            self.sqrt_price,
            sqrt_lo,
            sqrt_hi,
            amount0_desired,
            amount1_desired,
        );
        if liquidity == 0 {
            return Err(AmmError::ZeroLiquidity);
        }
        let amounts = self.mint_liquidity(id, owner, tick_lower, tick_upper, liquidity)?;
        Ok((liquidity, amounts))
    }

    /// Quotes a mint without touching state: the liquidity and token
    /// amounts [`Pool::mint`] would produce for this budget. Lets callers
    /// (e.g. the sidechain processor) check deposit coverage *before*
    /// executing.
    ///
    /// # Errors
    /// Fails on invalid tick ranges or zero resulting liquidity.
    pub fn quote_mint(
        &self,
        tick_lower: Tick,
        tick_upper: Tick,
        amount0_desired: Amount,
        amount1_desired: Amount,
    ) -> Result<(Liquidity, AmountPair), AmmError> {
        self.check_ticks(tick_lower, tick_upper)?;
        let sqrt_lo = sqrt_ratio_at_tick(tick_lower)?;
        let sqrt_hi = sqrt_ratio_at_tick(tick_upper)?;
        let liquidity = liquidity_for_amounts(
            self.sqrt_price,
            sqrt_lo,
            sqrt_hi,
            amount0_desired,
            amount1_desired,
        );
        if liquidity == 0 {
            return Err(AmmError::ZeroLiquidity);
        }
        let amounts = if self.tick < tick_lower {
            AmountPair::new(amount0_delta(sqrt_lo, sqrt_hi, liquidity, true)?, 0)
        } else if self.tick < tick_upper {
            AmountPair::new(
                amount0_delta(self.sqrt_price, sqrt_hi, liquidity, true)?,
                amount1_delta(sqrt_lo, self.sqrt_price, liquidity, true)?,
            )
        } else {
            AmountPair::new(0, amount1_delta(sqrt_lo, sqrt_hi, liquidity, true)?)
        };
        Ok((liquidity, amounts))
    }

    /// Core-style mint of an exact liquidity amount. Returns the token
    /// amounts the LP must pay (rounded up).
    ///
    /// # Errors
    /// Fails on invalid range, owner mismatch or liquidity overflow.
    fn mint_liquidity(
        &mut self,
        id: PositionId,
        owner: Address,
        tick_lower: Tick,
        tick_upper: Tick,
        liquidity: Liquidity,
    ) -> Result<AmountPair, AmmError> {
        self.check_ticks(tick_lower, tick_upper)?;
        if liquidity == 0 {
            return Err(AmmError::ZeroLiquidity);
        }
        if let Some(existing) = self.positions.get(&id) {
            if existing.owner != owner {
                return Err(AmmError::NotPositionOwner(id));
            }
            if existing.tick_lower != tick_lower || existing.tick_upper != tick_upper {
                return Err(AmmError::InvalidTickRange {
                    lower: tick_lower,
                    upper: tick_upper,
                });
            }
        }
        let amounts = self.modify_position(id, owner, tick_lower, tick_upper, liquidity as i128)?;
        self.balance0 = self
            .balance0
            .checked_add(amounts.amount0)
            .ok_or(AmmError::BalanceOverflow)?;
        self.balance1 = self
            .balance1
            .checked_add(amounts.amount1)
            .ok_or(AmmError::BalanceOverflow)?;
        Ok(amounts)
    }

    /// Burns `liquidity` from a position; the principal is credited to the
    /// position's `tokens_owed` (withdrawn later via [`Pool::collect`]),
    /// matching Uniswap's two-step burn-then-collect flow.
    ///
    /// # Errors
    /// Fails when the caller is not the owner or burns more than held.
    pub fn burn(
        &mut self,
        id: PositionId,
        owner: Address,
        liquidity: Liquidity,
    ) -> Result<AmountPair, AmmError> {
        let pos = self
            .positions
            .get(&id)
            .ok_or(AmmError::PositionNotFound(id))?;
        if pos.owner != owner {
            return Err(AmmError::NotPositionOwner(id));
        }
        if liquidity > pos.liquidity {
            return Err(AmmError::InsufficientLiquidity {
                requested: liquidity,
                available: pos.liquidity,
            });
        }
        let (lower, upper) = (pos.tick_lower, pos.tick_upper);
        let amounts = self.modify_position(id, owner, lower, upper, -(liquidity as i128))?;
        let pos = self.positions.get_mut(&id).expect("position existed above");
        pos.tokens_owed0 = pos
            .tokens_owed0
            .checked_add(amounts.amount0)
            .ok_or(AmmError::BalanceOverflow)?;
        pos.tokens_owed1 = pos
            .tokens_owed1
            .checked_add(amounts.amount1)
            .ok_or(AmmError::BalanceOverflow)?;
        Ok(amounts)
    }

    /// Collects owed tokens (fees and/or burned principal) from a position,
    /// transferring them out of the pool. Requests are capped at what is
    /// owed. A fully drained position with zero liquidity is deleted.
    ///
    /// # Errors
    /// Fails on unknown position or wrong owner.
    pub fn collect(
        &mut self,
        id: PositionId,
        owner: Address,
        amount0_requested: Amount,
        amount1_requested: Amount,
    ) -> Result<AmountPair, AmmError> {
        // Refresh the fee snapshot first so owed amounts are current.
        let (lower, upper, pos_liquidity) = {
            let pos = self
                .positions
                .get(&id)
                .ok_or(AmmError::PositionNotFound(id))?;
            if pos.owner != owner {
                return Err(AmmError::NotPositionOwner(id));
            }
            (pos.tick_lower, pos.tick_upper, pos.liquidity)
        };
        if pos_liquidity > 0 {
            // poke: update owed fees without changing liquidity
            self.modify_position(id, owner, lower, upper, 0)?;
        }
        let pos = self.positions.get_mut(&id).expect("position existed above");
        let take0 = amount0_requested.min(pos.tokens_owed0);
        let take1 = amount1_requested.min(pos.tokens_owed1);
        pos.tokens_owed0 -= take0;
        pos.tokens_owed1 -= take1;
        let drained = pos.liquidity == 0 && pos.tokens_owed0 == 0 && pos.tokens_owed1 == 0;
        if drained {
            self.positions.remove(&id);
        }
        self.balance0 = self
            .balance0
            .checked_sub(take0)
            .ok_or(AmmError::PoolInsolvent)?;
        self.balance1 = self
            .balance1
            .checked_sub(take1)
            .ok_or(AmmError::PoolInsolvent)?;
        Ok(AmountPair::new(take0, take1))
    }

    /// Applies a liquidity delta to a position and to the tick structures,
    /// returning the token amounts moved (paid in for `delta > 0`, owed out
    /// for `delta < 0`; zero delta just refreshes fees).
    fn modify_position(
        &mut self,
        id: PositionId,
        owner: Address,
        tick_lower: Tick,
        tick_upper: Tick,
        delta: i128,
    ) -> Result<AmountPair, AmmError> {
        if delta != 0 {
            self.update_tick(tick_lower, delta, false)?;
            self.update_tick(tick_upper, delta, true)?;
        }
        // read now: a burn that empties a boundary tick drops it from the
        // cache below
        let sqrt_lo = self.boundary_price(tick_lower)?;
        let sqrt_hi = self.boundary_price(tick_upper)?;

        let (inside0, inside1) = self.fee_growth_inside(tick_lower, tick_upper);

        // Ticks that flipped to zero gross liquidity are cleared only
        // *after* the fee computation above — clearing first would zero
        // the outside accumulators and corrupt the position's final fee
        // settlement (Uniswap clears in exactly this order).
        if delta < 0 {
            for t in [tick_lower, tick_upper] {
                if self
                    .ticks
                    .get(&t)
                    .map(|i| i.liquidity_gross == 0)
                    .unwrap_or(false)
                {
                    self.ticks.remove(&t);
                    self.tick_bitmap.clear(t);
                    self.tick_cache.remove(&t);
                }
            }
        }

        let pos = self.positions.entry_or_insert_with(id, || Position {
            owner,
            tick_lower,
            tick_upper,
            liquidity: 0,
            fee_growth_inside0_last: inside0,
            fee_growth_inside1_last: inside1,
            tokens_owed0: 0,
            tokens_owed1: 0,
        });

        // accrue fees since the last touch
        let owed0 = fees_owed(pos.liquidity, pos.fee_growth_inside0_last, inside0);
        let owed1 = fees_owed(pos.liquidity, pos.fee_growth_inside1_last, inside1);
        pos.tokens_owed0 = pos.tokens_owed0.saturating_add(owed0);
        pos.tokens_owed1 = pos.tokens_owed1.saturating_add(owed1);
        pos.fee_growth_inside0_last = inside0;
        pos.fee_growth_inside1_last = inside1;
        pos.liquidity = add_delta(pos.liquidity, delta)?;

        // token amounts for the delta
        let abs = delta.unsigned_abs();
        let round_up = delta > 0;
        let amounts = if abs == 0 {
            AmountPair::ZERO
        } else if self.tick < tick_lower {
            AmountPair::new(amount0_delta(sqrt_lo, sqrt_hi, abs, round_up)?, 0)
        } else if self.tick < tick_upper {
            let a0 = amount0_delta(self.sqrt_price, sqrt_hi, abs, round_up)?;
            let a1 = amount1_delta(sqrt_lo, self.sqrt_price, abs, round_up)?;
            self.liquidity = add_delta(self.liquidity, delta)?;
            AmountPair::new(a0, a1)
        } else {
            AmountPair::new(0, amount1_delta(sqrt_lo, sqrt_hi, abs, round_up)?)
        };
        Ok(amounts)
    }

    fn update_tick(&mut self, tick: Tick, delta: i128, is_upper: bool) -> Result<(), AmmError> {
        let current_tick = self.tick;
        let (g0, g1) = (self.fee_growth_global0, self.fee_growth_global1);
        let info = self.ticks.entry(tick).or_default();
        let was_initialized = info.liquidity_gross > 0;
        info.liquidity_gross = add_delta(info.liquidity_gross, delta)?;
        let newly_initialized = !was_initialized && info.liquidity_gross > 0;
        if newly_initialized && tick <= current_tick {
            // by convention, assume all prior fee growth happened below
            info.fee_growth_outside0 = g0;
            info.fee_growth_outside1 = g1;
        }
        if is_upper {
            info.liquidity_net -= delta;
        } else {
            info.liquidity_net += delta;
        }
        let net_after = info.liquidity_net;
        if newly_initialized {
            self.tick_bitmap.set(tick);
            self.tick_cache.insert(
                tick,
                TickCache {
                    sqrt_price: sqrt_ratio_at_tick(tick)?,
                    liquidity_net: net_after,
                },
            );
        } else if let Some(cached) = self.tick_cache.get_mut(&tick) {
            cached.liquidity_net = net_after;
        }
        // NOTE: ticks whose gross liquidity drops to zero are *not*
        // removed here; `modify_position` clears them after the position's
        // fee settlement (matching Uniswap's update-then-clear order).
        Ok(())
    }

    /// The sqrt price of a position boundary: read from the tick cache
    /// when the tick is initialized (as every boundary of a live position
    /// is), derived otherwise.
    fn boundary_price(&self, tick: Tick) -> Result<U256, AmmError> {
        match self.tick_cache.get(&tick) {
            Some(c) => {
                debug_assert_eq!(Ok(c.sqrt_price), sqrt_ratio_at_tick(tick), "tick {tick}");
                Ok(c.sqrt_price)
            }
            None => Ok(sqrt_ratio_at_tick(tick)?),
        }
    }

    /// Fee growth inside `[lower, upper]` (Q128, wrapping arithmetic as in
    /// Uniswap — accumulators may overflow by design).
    fn fee_growth_inside(&self, lower: Tick, upper: Tick) -> (U256, U256) {
        let zero = TickInfo::default();
        let lo = self.ticks.get(&lower).unwrap_or(&zero);
        let hi = self.ticks.get(&upper).unwrap_or(&zero);
        let (g0, g1) = (self.fee_growth_global0, self.fee_growth_global1);

        let (below0, below1) = if self.tick >= lower {
            (lo.fee_growth_outside0, lo.fee_growth_outside1)
        } else {
            (
                g0.wrapping_sub(lo.fee_growth_outside0),
                g1.wrapping_sub(lo.fee_growth_outside1),
            )
        };
        let (above0, above1) = if self.tick < upper {
            (hi.fee_growth_outside0, hi.fee_growth_outside1)
        } else {
            (
                g0.wrapping_sub(hi.fee_growth_outside0),
                g1.wrapping_sub(hi.fee_growth_outside1),
            )
        };
        (
            g0.wrapping_sub(below0).wrapping_sub(above0),
            g1.wrapping_sub(below1).wrapping_sub(above1),
        )
    }

    // ---- swapping ------------------------------------------------------------

    /// Executes a swap.
    ///
    /// * `zero_for_one` — `true` to sell token0 for token1 (price moves
    ///   down).
    /// * `kind` — exact-input or exact-output budget.
    /// * `sqrt_price_limit` — optional worst acceptable price.
    ///
    /// # Errors
    /// Fails on a zero budget, an invalid limit, or when the pool cannot
    /// fill an exact-output request.
    pub fn swap(
        &mut self,
        zero_for_one: bool,
        kind: SwapKind,
        sqrt_price_limit: Option<U256>,
    ) -> Result<SwapResult, AmmError> {
        self.swap_with_protection(zero_for_one, kind, sqrt_price_limit, 0, Amount::MAX)
    }

    /// Crossing bookkeeping shared by the glide and trade branches of the
    /// swap loop: journals the crossing, applies the tick's cached net
    /// liquidity and steps the staged tick past the boundary, returning
    /// the new staged tick's bounds as far as the crossing fixes them (the
    /// boundary price on the side just crossed). Read-only on the pool: all
    /// effects land in `crossings` and the staged locals.
    #[allow(clippy::too_many_arguments)]
    fn cross_tick(
        &self,
        crossings: &mut Vec<(Tick, U256, U256)>,
        boundary_tick: Tick,
        boundary_price: U256,
        cached: Option<TickCache>,
        zero_for_one: bool,
        fee_growth0: U256,
        fee_growth1: U256,
        liquidity: &mut Liquidity,
        tick: &mut Tick,
    ) -> Result<TickBounds, AmmError> {
        crossings.push((boundary_tick, fee_growth0, fee_growth1));
        let net = cached.map_or(0, |c| c.liquidity_net);
        *liquidity = add_delta(*liquidity, if zero_for_one { -net } else { net })?;
        Ok(if zero_for_one {
            *tick = boundary_tick - 1;
            TickBounds {
                lower: None,
                upper: Some(boundary_price),
            }
        } else {
            *tick = boundary_tick;
            TickBounds {
                lower: Some(boundary_price),
                upper: None,
            }
        })
    }

    /// Quotes a swap without touching state: the exact [`SwapResult`] that
    /// [`Pool::swap`] would produce right now, including all failure modes
    /// (an unfillable exact-output request fails the quote exactly as it
    /// would fail the execution). This is the read path served by epoch
    /// quote views: it runs the *same* staged compute as the write path,
    /// so quote and execution are bit-identical by construction.
    ///
    /// # Errors
    /// Identical to [`Pool::swap`].
    pub fn quote_swap(
        &self,
        zero_for_one: bool,
        kind: SwapKind,
        sqrt_price_limit: Option<U256>,
    ) -> Result<SwapResult, AmmError> {
        self.quote_swap_with_protection(zero_for_one, kind, sqrt_price_limit, 0, Amount::MAX)
    }

    /// Read-only variant of [`Pool::swap_with_protection`]: quotes the
    /// swap with the trader's slippage bounds applied, without mutating
    /// the pool.
    ///
    /// # Errors
    /// Identical to [`Pool::swap_with_protection`].
    pub fn quote_swap_with_protection(
        &self,
        zero_for_one: bool,
        kind: SwapKind,
        sqrt_price_limit: Option<U256>,
        min_amount_out: Amount,
        max_amount_in: Amount,
    ) -> Result<SwapResult, AmmError> {
        let mut crossings = Vec::new();
        let plan = self.compute_swap(
            zero_for_one,
            kind,
            sqrt_price_limit,
            min_amount_out,
            max_amount_in,
            &mut crossings,
        )?;
        Ok(SwapResult {
            amount_in: plan.amount_in,
            amount_out: plan.amount_out,
            fee_paid: plan.fee_total,
            ticks_crossed: crossings.len() as u32,
        })
    }

    /// Like [`Pool::swap`], but additionally enforces the trader's
    /// slippage bounds *before committing*: the swap fails atomically when
    /// the output falls below `min_amount_out` or the input exceeds
    /// `max_amount_in`.
    ///
    /// # Errors
    /// [`AmmError::SlippageExceeded`] on a violated bound (state
    /// untouched), plus all [`Pool::swap`] failure modes.
    pub fn swap_with_protection(
        &mut self,
        zero_for_one: bool,
        kind: SwapKind,
        sqrt_price_limit: Option<U256>,
        min_amount_out: Amount,
        max_amount_in: Amount,
    ) -> Result<SwapResult, AmmError> {
        // Reuse the pool's journal buffer so the hot path stays
        // allocation-free; it is restored on every exit path.
        let mut crossings = std::mem::take(&mut self.crossings_buf);
        let plan = match self.compute_swap(
            zero_for_one,
            kind,
            sqrt_price_limit,
            min_amount_out,
            max_amount_in,
            &mut crossings,
        ) {
            Ok(plan) => plan,
            Err(e) => {
                self.crossings_buf = crossings;
                return Err(e);
            }
        };

        // ---- commit ----
        self.balance0 = plan.balance0;
        self.balance1 = plan.balance1;
        self.sqrt_price = plan.sqrt_price;
        self.tick = plan.tick;
        self.tick_bounds = plan.tick_bounds;
        self.liquidity = plan.liquidity;
        self.fee_growth_global0 = plan.fee_growth0;
        self.fee_growth_global1 = plan.fee_growth1;
        for (t, g0, g1) in crossings.iter() {
            if let Some(info) = self.ticks.get_mut(t) {
                info.fee_growth_outside0 = g0.wrapping_sub(info.fee_growth_outside0);
                info.fee_growth_outside1 = g1.wrapping_sub(info.fee_growth_outside1);
            }
        }
        let ticks_crossed = crossings.len() as u32;
        self.crossings_buf = crossings;

        Ok(SwapResult {
            amount_in: plan.amount_in,
            amount_out: plan.amount_out,
            fee_paid: plan.fee_total,
            ticks_crossed,
        })
    }

    /// The swap loop itself, factored read-only: validates the request,
    /// stages every state change in a [`SwapPlan`] plus the `crossings`
    /// journal, and enforces fill + slippage + balance feasibility —
    /// without touching the pool. [`Pool::swap_with_protection`] commits
    /// the plan; [`Pool::quote_swap_with_protection`] returns it as a
    /// quote. One implementation serves both, so they cannot diverge.
    fn compute_swap(
        &self,
        zero_for_one: bool,
        kind: SwapKind,
        sqrt_price_limit: Option<U256>,
        min_amount_out: Amount,
        max_amount_in: Amount,
        crossings: &mut Vec<(Tick, U256, U256)>,
    ) -> Result<SwapPlan, AmmError> {
        let budget = match kind {
            SwapKind::ExactInput(a) | SwapKind::ExactOutput(a) => a,
        };
        if budget == 0 {
            return Err(AmmError::ZeroAmount);
        }
        let limit = match sqrt_price_limit {
            Some(l) => l,
            None => {
                if zero_for_one {
                    min_sqrt_ratio() + U256::ONE
                } else {
                    max_sqrt_ratio() - U256::ONE
                }
            }
        };
        if zero_for_one {
            if limit >= self.sqrt_price || limit < min_sqrt_ratio() {
                return Err(AmmError::InvalidPriceLimit);
            }
        } else if limit <= self.sqrt_price || limit > max_sqrt_ratio() {
            return Err(AmmError::InvalidPriceLimit);
        }

        // The loop stages all state in locals plus the crossing journal;
        // the caller commits only on success, so a failed swap (e.g. an
        // unfillable exact-output request) leaves the pool untouched.
        let mut remaining = budget;
        let mut amount_in_total: Amount = 0;
        let mut amount_out_total: Amount = 0;
        let mut fee_total: Amount = 0;
        let mut sqrt_price = self.sqrt_price;
        let mut tick = self.tick;
        // the staged tick's bounds: the pool's cached pair until a crossing,
        // then the crossed boundary on one side
        let mut bounds = self.tick_bounds;
        let mut liquidity = self.liquidity;
        let mut fee_growth0 = self.fee_growth_global0;
        let mut fee_growth1 = self.fee_growth_global1;
        // Fees accrued since in-range liquidity last changed. Liquidity is
        // constant between crossings, so the `(fee << 128) / liquidity`
        // growth division is paid once per segment (flushed before every
        // crossing and at loop exit) instead of once per step.
        let mut seg_fee: Amount = 0;
        // (tick, fee growth at crossing time) — the journal buffer may be
        // reused across swaps so the hot loop never allocates. After a
        // failed swap it holds stale entries; the clear below discards
        // them before each run.
        crossings.clear();

        /// Folds a segment's accumulated fee into the growth accumulator
        /// for the segment's (constant) liquidity.
        #[inline]
        fn flush_seg_fee(
            seg_fee: &mut Amount,
            liquidity: Liquidity,
            zero_for_one: bool,
            fee_growth0: &mut U256,
            fee_growth1: &mut U256,
        ) {
            if *seg_fee == 0 {
                return;
            }
            debug_assert!(liquidity > 0, "fees only accrue with in-range liquidity");
            let growth =
                U256::from_u128(*seg_fee).mul_div(U256::pow2(128), U256::from_u128(liquidity));
            if zero_for_one {
                *fee_growth0 = fee_growth0.wrapping_add(growth);
            } else {
                *fee_growth1 = fee_growth1.wrapping_add(growth);
            }
            *seg_fee = 0;
        }

        while remaining > 0 && sqrt_price != limit {
            // Next initialized tick in the direction of travel: a masked bit
            // scan plus at most one jump through the occupied-word index.
            // Debug builds check it against the seed's ordered-map scan.
            let next_tick = self.tick_bitmap.next_initialized_tick(tick, zero_for_one);
            debug_assert_eq!(
                next_tick,
                if zero_for_one {
                    self.ticks.range(..=tick).next_back().map(|(t, _)| *t)
                } else {
                    self.ticks.range(tick + 1..).next().map(|(t, _)| *t)
                },
                "tick bitmap disagrees with the tick table from tick {tick}"
            );
            let boundary_tick = next_tick.unwrap_or(if zero_for_one { MIN_TICK } else { MAX_TICK });
            // Boundary price and net liquidity, from the per-tick cache
            // filled at tick initialization; `None` only past the last
            // initialized tick, where the boundary is the domain edge.
            let cached = next_tick.and_then(|t| self.tick_cache.get(&t).copied());
            debug_assert_eq!(
                cached,
                next_tick.map(|t| TickCache {
                    sqrt_price: sqrt_ratio_at_tick(t).expect("initialized tick in range"),
                    liquidity_net: self.ticks[&t].liquidity_net,
                }),
                "tick cache disagrees with the tick table at tick {boundary_tick}"
            );
            let boundary_price = match cached {
                Some(c) => c.sqrt_price,
                None if zero_for_one => min_sqrt_ratio(),
                None => max_sqrt_ratio(),
            };
            debug_assert_eq!(
                Ok(boundary_price),
                sqrt_ratio_at_tick(boundary_tick),
                "boundary price of tick {boundary_tick}"
            );
            let target = if zero_for_one {
                boundary_price.max(limit)
            } else {
                boundary_price.min(limit)
            };

            if liquidity == 0 {
                // No liquidity in this range: glide to the boundary without
                // trading; stop entirely if there is nothing beyond it.
                // (Nothing to flush — fees cannot have accrued since the
                // segment has no liquidity.)
                debug_assert_eq!(seg_fee, 0);
                if next_tick.is_none() {
                    break;
                }
                sqrt_price = target;
                if target == boundary_price {
                    bounds = self.cross_tick(
                        crossings,
                        boundary_tick,
                        boundary_price,
                        cached,
                        zero_for_one,
                        fee_growth0,
                        fee_growth1,
                        &mut liquidity,
                        &mut tick,
                    )?;
                } else {
                    (tick, bounds) = bounds.tick_of(tick, target)?;
                    break; // hit the price limit
                }
                continue;
            }

            let step: SwapStep = compute_swap_step(
                sqrt_price,
                target,
                liquidity,
                if matches!(kind, SwapKind::ExactInput(_)) {
                    Remaining::Input(remaining)
                } else {
                    Remaining::Output(remaining)
                },
                self.fee_pips,
            )?;

            match kind {
                SwapKind::ExactInput(_) => {
                    remaining = remaining
                        .checked_sub(step.amount_in + step.fee_amount)
                        .ok_or(AmmError::BalanceOverflow)?;
                }
                SwapKind::ExactOutput(_) => {
                    remaining -= step.amount_out.min(remaining);
                }
            }
            amount_in_total += step.amount_in + step.fee_amount;
            amount_out_total += step.amount_out;
            fee_total += step.fee_amount;

            // fees owed to in-range LPs accumulate per segment; the growth
            // division happens at the next crossing or at loop exit
            seg_fee += step.fee_amount;

            sqrt_price = step.sqrt_price_next;
            if step.sqrt_price_next == boundary_price && next_tick.is_some() {
                flush_seg_fee(
                    &mut seg_fee,
                    liquidity,
                    zero_for_one,
                    &mut fee_growth0,
                    &mut fee_growth1,
                );
                bounds = self.cross_tick(
                    crossings,
                    boundary_tick,
                    boundary_price,
                    cached,
                    zero_for_one,
                    fee_growth0,
                    fee_growth1,
                    &mut liquidity,
                    &mut tick,
                )?;
            } else if step.sqrt_price_next != boundary_price {
                (tick, bounds) = bounds.tick_of(tick, step.sqrt_price_next)?;
            }
        }
        flush_seg_fee(
            &mut seg_fee,
            liquidity,
            zero_for_one,
            &mut fee_growth0,
            &mut fee_growth1,
        );

        if matches!(kind, SwapKind::ExactOutput(_)) && remaining > 0 {
            return Err(AmmError::InsufficientLiquidity {
                requested: budget,
                available: budget - remaining,
            });
        }
        if amount_out_total < min_amount_out || amount_in_total > max_amount_in {
            return Err(AmmError::SlippageExceeded {
                amount_in: amount_in_total,
                amount_out: amount_out_total,
            });
        }

        // settle pool balances: input (incl. fee) in, output out
        let (in0, in1, out0, out1) = if zero_for_one {
            (amount_in_total, 0, 0, amount_out_total)
        } else {
            (0, amount_in_total, amount_out_total, 0)
        };
        let balance0 = self
            .balance0
            .checked_add(in0)
            .ok_or(AmmError::BalanceOverflow)?
            .checked_sub(out0)
            .ok_or(AmmError::PoolInsolvent)?;
        let balance1 = self
            .balance1
            .checked_add(in1)
            .ok_or(AmmError::BalanceOverflow)?
            .checked_sub(out1)
            .ok_or(AmmError::PoolInsolvent)?;

        Ok(SwapPlan {
            amount_in: amount_in_total,
            amount_out: amount_out_total,
            fee_total,
            sqrt_price,
            tick,
            tick_bounds: bounds,
            liquidity,
            fee_growth0,
            fee_growth1,
            balance0,
            balance1,
        })
    }

    /// Values a position at the pool's current price, read-only: the
    /// principal its liquidity would redeem if burned now (rounded down,
    /// exactly as [`Pool::burn`] would credit it) plus everything already
    /// owed — unclaimed `tokens_owed` and fees accrued since the
    /// position's last touch. This is the position-valuation query served
    /// by epoch quote views.
    ///
    /// # Errors
    /// Fails on an unknown position id.
    pub fn value_position(&self, id: &PositionId) -> Result<PositionValuation, AmmError> {
        let pos = self
            .positions
            .get(id)
            .ok_or(AmmError::PositionNotFound(*id))?;
        let principal = if pos.liquidity == 0 {
            AmountPair::ZERO
        } else {
            let sqrt_lo = self.boundary_price(pos.tick_lower)?;
            let sqrt_hi = self.boundary_price(pos.tick_upper)?;
            // burn credits round down; mirror that here
            if self.tick < pos.tick_lower {
                AmountPair::new(amount0_delta(sqrt_lo, sqrt_hi, pos.liquidity, false)?, 0)
            } else if self.tick < pos.tick_upper {
                AmountPair::new(
                    amount0_delta(self.sqrt_price, sqrt_hi, pos.liquidity, false)?,
                    amount1_delta(sqrt_lo, self.sqrt_price, pos.liquidity, false)?,
                )
            } else {
                AmountPair::new(0, amount1_delta(sqrt_lo, sqrt_hi, pos.liquidity, false)?)
            }
        };
        let (inside0, inside1) = self.fee_growth_inside(pos.tick_lower, pos.tick_upper);
        let owed = AmountPair::new(
            pos.tokens_owed0.saturating_add(fees_owed(
                pos.liquidity,
                pos.fee_growth_inside0_last,
                inside0,
            )),
            pos.tokens_owed1.saturating_add(fees_owed(
                pos.liquidity,
                pos.fee_growth_inside1_last,
                inside1,
            )),
        );
        Ok(PositionValuation { principal, owed })
    }

    // ---- flash loans -----------------------------------------------------------

    /// A flash loan: lends `(amount0, amount1)` for the duration of the
    /// callback, which must return the repayment. The repayment must cover
    /// principal plus the pool fee on each token; fees are distributed to
    /// in-range LPs.
    ///
    /// # Errors
    /// Fails when the pool lacks reserves or the callback under-repays
    /// (in which case all state is left untouched — the "inverted loan" of
    /// the paper's §IV-B).
    pub fn flash<F>(
        &mut self,
        amount0: Amount,
        amount1: Amount,
        callback: F,
    ) -> Result<AmountPair, AmmError>
    where
        F: FnOnce(AmountPair) -> AmountPair,
    {
        if amount0 > self.balance0 || amount1 > self.balance1 {
            return Err(AmmError::InsufficientReserves);
        }
        let fee0 = ceil_fee(amount0, self.fee_pips);
        let fee1 = ceil_fee(amount1, self.fee_pips);
        let repayment = callback(AmountPair::new(amount0, amount1));
        if repayment.amount0 < amount0 + fee0 || repayment.amount1 < amount1 + fee1 {
            return Err(AmmError::FlashNotRepaid);
        }
        let paid0 = repayment.amount0 - amount0;
        let paid1 = repayment.amount1 - amount1;
        self.balance0 = self
            .balance0
            .checked_add(paid0)
            .ok_or(AmmError::BalanceOverflow)?;
        self.balance1 = self
            .balance1
            .checked_add(paid1)
            .ok_or(AmmError::BalanceOverflow)?;
        if self.liquidity > 0 {
            let l = U256::from_u128(self.liquidity);
            if paid0 > 0 {
                self.fee_growth_global0 = self
                    .fee_growth_global0
                    .wrapping_add(U256::from_u128(paid0).mul_div(U256::pow2(128), l));
            }
            if paid1 > 0 {
                self.fee_growth_global1 = self
                    .fee_growth_global1
                    .wrapping_add(U256::from_u128(paid1).mul_div(U256::pow2(128), l));
            }
        }
        Ok(AmountPair::new(paid0, paid1))
    }
}

fn ceil_fee(amount: Amount, fee_pips: u32) -> Amount {
    U256::from_u128(amount)
        .mul_div_rounding_up(
            U256::from_u64(fee_pips as u64),
            U256::from_u64(crate::types::PIPS_DENOMINATOR as u64),
        )
        .to_u128()
        .expect("fee fits")
}

fn fees_owed(liquidity: Liquidity, last: U256, now: U256) -> Amount {
    if liquidity == 0 {
        return 0;
    }
    let delta = now.wrapping_sub(last);
    // Fee-growth accumulators use wrapping arithmetic (as in Uniswap); a
    // delta with the top bit set is a wrapped "negative" — transiently
    // possible around tick (re)initialization — and owes nothing. Genuine
    // positive deltas are far below 2^255 (fees are bounded by traded
    // volume).
    if delta.bit(255) {
        return 0;
    }
    delta
        .mul_div(U256::from_u128(liquidity), U256::pow2(128))
        .to_u128()
        .unwrap_or(Amount::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(i: u64) -> Address {
        Address::from_index(i)
    }

    fn pid(i: u64) -> PositionId {
        PositionId::derive(&[b"test", &i.to_be_bytes()])
    }

    /// Standard pool with one wide in-range position.
    fn pool_with_liquidity() -> Pool {
        let mut pool = Pool::new_standard();
        pool.mint(pid(1), addr(1), -600, 600, 1_000_000_000, 1_000_000_000)
            .unwrap();
        pool
    }

    #[test]
    fn new_standard_is_at_price_one() {
        let pool = Pool::new_standard();
        assert_eq!(pool.tick(), 0);
        assert_eq!(pool.liquidity(), 0);
        assert_eq!(pool.fee_pips, 3000);
    }

    #[test]
    fn invalid_fee_and_spacing_rejected() {
        let p = sqrt_ratio_at_tick(0).unwrap();
        assert!(Pool::new(1_000_000, 60, p).is_err());
        assert!(Pool::new(3000, 0, p).is_err());
    }

    #[test]
    fn mint_in_range_takes_both_tokens() {
        let pool = pool_with_liquidity();
        let b = pool.balances();
        assert!(b.amount0 > 0 && b.amount1 > 0);
        assert!(pool.liquidity() > 0);
        assert_eq!(pool.position_count(), 1);
        assert_eq!(pool.initialized_tick_count(), 2);
    }

    #[test]
    fn mint_misaligned_ticks_rejected() {
        let mut pool = Pool::new_standard();
        let err = pool.mint(pid(1), addr(1), -601, 600, 1000, 1000);
        assert!(matches!(err, Err(AmmError::InvalidTickRange { .. })));
    }

    #[test]
    fn mint_inverted_range_rejected() {
        let mut pool = Pool::new_standard();
        assert!(pool.mint(pid(1), addr(1), 600, -600, 1000, 1000).is_err());
        assert!(pool.mint(pid(1), addr(1), 60, 60, 1000, 1000).is_err());
    }

    #[test]
    fn swap_exact_input_moves_price_down() {
        let mut pool = pool_with_liquidity();
        let before = pool.sqrt_price();
        let res = pool
            .swap(true, SwapKind::ExactInput(1_000_000), None)
            .unwrap();
        assert!(pool.sqrt_price() < before);
        assert_eq!(res.amount_in, 1_000_000);
        assert!(res.amount_out > 0);
        assert!(res.fee_paid > 0);
    }

    #[test]
    fn swap_exact_output_delivers_exactly() {
        let mut pool = pool_with_liquidity();
        let res = pool
            .swap(false, SwapKind::ExactOutput(500_000), None)
            .unwrap();
        assert_eq!(res.amount_out, 500_000);
        assert!(res.amount_in > 500_000 * 997 / 1000 / 2); // sane magnitude
    }

    #[test]
    fn swap_zero_amount_rejected() {
        let mut pool = pool_with_liquidity();
        assert!(matches!(
            pool.swap(true, SwapKind::ExactInput(0), None),
            Err(AmmError::ZeroAmount)
        ));
    }

    #[test]
    fn swap_bad_limit_rejected() {
        let mut pool = pool_with_liquidity();
        // zero_for_one with a limit above current price
        let bad = pool.sqrt_price() + U256::ONE;
        assert!(matches!(
            pool.swap(true, SwapKind::ExactInput(10), Some(bad)),
            Err(AmmError::InvalidPriceLimit)
        ));
    }

    #[test]
    fn swap_respects_price_limit() {
        let mut pool = pool_with_liquidity();
        let limit = sqrt_ratio_at_tick(-30).unwrap();
        let res = pool
            .swap(true, SwapKind::ExactInput(u128::MAX >> 8), Some(limit))
            .unwrap();
        assert_eq!(pool.sqrt_price(), limit);
        // budget not exhausted: the swap stopped at the limit
        assert!(res.amount_in < u128::MAX >> 8);
    }

    #[test]
    fn swap_crosses_ticks() {
        let mut pool = Pool::new_standard();
        // two nested ranges
        pool.mint(pid(1), addr(1), -600, 600, 10_000_000, 10_000_000)
            .unwrap();
        pool.mint(pid(2), addr(2), -120, 120, 50_000_000, 50_000_000)
            .unwrap();
        let liquidity_inside = pool.liquidity();
        // swap big enough to exit the inner range (stops at the -480 limit)
        let res = pool
            .swap(
                true,
                SwapKind::ExactInput(150_000_000),
                Some(sqrt_ratio_at_tick(-480).unwrap()),
            )
            .unwrap();
        assert!(res.ticks_crossed >= 1, "crossed {}", res.ticks_crossed);
        assert!(pool.tick() < -120);
        assert!(pool.liquidity() < liquidity_inside);
    }

    #[test]
    fn exact_output_beyond_liquidity_fails() {
        let mut pool = pool_with_liquidity();
        let err = pool.swap(true, SwapKind::ExactOutput(u128::MAX >> 8), None);
        assert!(matches!(err, Err(AmmError::InsufficientLiquidity { .. })));
    }

    #[test]
    fn failed_swap_leaves_pool_untouched() {
        let mut pool = pool_with_liquidity();
        let price = pool.sqrt_price();
        let tick = pool.tick();
        let liq = pool.liquidity();
        let bal = pool.balances();
        let growth = pool.fee_growth_global();
        let _ = pool
            .swap(true, SwapKind::ExactOutput(u128::MAX >> 8), None)
            .unwrap_err();
        assert_eq!(pool.sqrt_price(), price);
        assert_eq!(pool.tick(), tick);
        assert_eq!(pool.liquidity(), liq);
        assert_eq!(pool.balances(), bal);
        assert_eq!(pool.fee_growth_global(), growth);
    }

    #[test]
    fn quote_mint_matches_actual_mint() {
        let pool = pool_with_liquidity();
        let (ql, qa) = pool.quote_mint(-1200, 1200, 777_000, 555_000).unwrap();
        let mut pool2 = pool.clone();
        let (ml, ma) = pool2
            .mint(pid(7), addr(7), -1200, 1200, 777_000, 555_000)
            .unwrap();
        assert_eq!(ql, ml);
        assert_eq!(qa, ma);
        assert!(pool2.quote_mint(-1200, 1200, 0, 0).is_err());
    }

    #[test]
    fn fees_accrue_to_position() {
        let mut pool = pool_with_liquidity();
        pool.swap(true, SwapKind::ExactInput(10_000_000), None)
            .unwrap();
        pool.swap(false, SwapKind::ExactInput(10_000_000), None)
            .unwrap();
        // collect everything owed
        let collected = pool
            .collect(pid(1), addr(1), Amount::MAX, Amount::MAX)
            .unwrap();
        assert!(collected.amount0 > 0, "no token0 fees");
        assert!(collected.amount1 > 0, "no token1 fees");
    }

    #[test]
    fn fee_split_proportional_to_liquidity() {
        let mut pool = Pool::new_standard();
        // position 2 has ~3x the liquidity of position 1 over the same range
        let (l1, _) = pool
            .mint(pid(1), addr(1), -600, 600, 10_000_000, 10_000_000)
            .unwrap();
        let (l2, _) = pool
            .mint(pid(2), addr(2), -600, 600, 30_000_000, 30_000_000)
            .unwrap();
        pool.swap(true, SwapKind::ExactInput(5_000_000), None)
            .unwrap();
        let c1 = pool
            .collect(pid(1), addr(1), Amount::MAX, Amount::MAX)
            .unwrap();
        let c2 = pool
            .collect(pid(2), addr(2), Amount::MAX, Amount::MAX)
            .unwrap();
        let ratio_liquidity = l2 as f64 / l1 as f64;
        let ratio_fees = c2.amount0 as f64 / c1.amount0 as f64;
        assert!(
            (ratio_fees - ratio_liquidity).abs() / ratio_liquidity < 0.01,
            "liquidity ratio {ratio_liquidity} vs fee ratio {ratio_fees}"
        );
    }

    #[test]
    fn out_of_range_position_earns_no_fees() {
        let mut pool = pool_with_liquidity();
        // a range far above the current price
        pool.mint(pid(9), addr(9), 6000, 6600, 1_000_000, 0)
            .unwrap();
        pool.swap(true, SwapKind::ExactInput(1_000_000), None)
            .unwrap();
        let c = pool
            .collect(pid(9), addr(9), Amount::MAX, Amount::MAX)
            .unwrap();
        assert_eq!(c, AmountPair::ZERO);
    }

    #[test]
    fn burn_credits_principal_then_collect_pays_out() {
        let mut pool = pool_with_liquidity();
        let liq = pool.position(&pid(1)).unwrap().liquidity;
        let burned = pool.burn(pid(1), addr(1), liq).unwrap();
        assert!(burned.amount0 > 0 && burned.amount1 > 0);
        // principal sits in tokens_owed until collected
        let pos = pool.position(&pid(1)).unwrap();
        assert_eq!(pos.liquidity, 0);
        assert_eq!(pos.tokens_owed0, burned.amount0);
        let collected = pool
            .collect(pid(1), addr(1), Amount::MAX, Amount::MAX)
            .unwrap();
        assert_eq!(collected.amount0, burned.amount0);
        assert_eq!(collected.amount1, burned.amount1);
        // fully drained position removed (paper: deleted from state)
        assert!(pool.position(&pid(1)).is_none());
        assert_eq!(pool.initialized_tick_count(), 0);
    }

    #[test]
    fn burn_more_than_owned_rejected() {
        let mut pool = pool_with_liquidity();
        let liq = pool.position(&pid(1)).unwrap().liquidity;
        assert!(matches!(
            pool.burn(pid(1), addr(1), liq + 1),
            Err(AmmError::InsufficientLiquidity { .. })
        ));
    }

    #[test]
    fn wrong_owner_rejected() {
        let mut pool = pool_with_liquidity();
        assert!(matches!(
            pool.burn(pid(1), addr(2), 1),
            Err(AmmError::NotPositionOwner(_))
        ));
        assert!(matches!(
            pool.collect(pid(1), addr(2), 1, 1),
            Err(AmmError::NotPositionOwner(_))
        ));
        assert!(matches!(
            pool.mint_liquidity(pid(1), addr(2), -600, 600, 10),
            Err(AmmError::NotPositionOwner(_))
        ));
    }

    #[test]
    fn pool_solvency_after_full_exit() {
        // everyone leaves; the pool keeps only rounding dust
        let mut pool = Pool::new_standard();
        pool.mint(pid(1), addr(1), -600, 600, 10_000_000, 10_000_000)
            .unwrap();
        pool.swap(true, SwapKind::ExactInput(3_000_000), None)
            .unwrap();
        pool.swap(false, SwapKind::ExactInput(2_000_000), None)
            .unwrap();
        let liq = pool.position(&pid(1)).unwrap().liquidity;
        pool.burn(pid(1), addr(1), liq).unwrap();
        pool.collect(pid(1), addr(1), Amount::MAX, Amount::MAX)
            .unwrap();
        let b = pool.balances();
        // dust only: a few units from pool-favourable rounding
        assert!(b.amount0 < 10, "token0 dust {}", b.amount0);
        assert!(b.amount1 < 10, "token1 dust {}", b.amount1);
    }

    #[test]
    fn flash_loan_repaid_with_fee() {
        let mut pool = pool_with_liquidity();
        let before = pool.balances();
        let fees = pool
            .flash(100_000, 50_000, |loan| {
                AmountPair::new(loan.amount0 + 300, loan.amount1 + 150)
            })
            .unwrap();
        assert_eq!(fees, AmountPair::new(300, 150));
        let after = pool.balances();
        assert_eq!(after.amount0, before.amount0 + 300);
        assert_eq!(after.amount1, before.amount1 + 150);
    }

    #[test]
    fn flash_loan_underpaid_reverts() {
        let mut pool = pool_with_liquidity();
        let before = pool.balances();
        let err = pool.flash(100_000, 0, |loan| AmountPair::new(loan.amount0, 0));
        assert!(matches!(err, Err(AmmError::FlashNotRepaid)));
        assert_eq!(pool.balances(), before, "state must be untouched");
    }

    #[test]
    fn flash_loan_exceeding_reserves_rejected() {
        let mut pool = pool_with_liquidity();
        let b = pool.balances();
        assert!(matches!(
            pool.flash(b.amount0 + 1, 0, |l| l),
            Err(AmmError::InsufficientReserves)
        ));
    }

    #[test]
    fn flash_fees_flow_to_lps() {
        let mut pool = pool_with_liquidity();
        pool.flash(1_000_000, 1_000_000, |loan| {
            AmountPair::new(loan.amount0 + 3_000, loan.amount1 + 3_000)
        })
        .unwrap();
        let c = pool
            .collect(pid(1), addr(1), Amount::MAX, Amount::MAX)
            .unwrap();
        assert!(c.amount0 > 0 && c.amount1 > 0);
    }

    #[test]
    fn swap_roundtrip_costs_about_two_fees() {
        let mut pool = pool_with_liquidity();
        let start = 10_000_000u128;
        let r1 = pool.swap(true, SwapKind::ExactInput(start), None).unwrap();
        let r2 = pool
            .swap(false, SwapKind::ExactInput(r1.amount_out), None)
            .unwrap();
        // after selling and buying back, the loss is ~2 x 0.3% fees + slippage
        let lost = start - r2.amount_out;
        let lost_frac = lost as f64 / start as f64;
        assert!(lost_frac > 0.005 && lost_frac < 0.02, "lost {lost_frac}");
    }

    #[test]
    fn bitmap_stays_in_lockstep_with_tick_table() {
        let mut pool = Pool::new_standard();
        pool.mint(pid(1), addr(1), -600, 600, 10_000_000, 10_000_000)
            .unwrap();
        pool.mint(pid(2), addr(2), -120, 120, 10_000_000, 10_000_000)
            .unwrap();
        assert_eq!(pool.tick_bitmap.initialized_count(), 4);
        assert!(pool.tick_bitmap.is_initialized(-600));
        assert!(pool.tick_bitmap.is_initialized(120));
        // burning the inner position removes exactly its two ticks
        let liq = pool.position(&pid(2)).unwrap().liquidity;
        pool.burn(pid(2), addr(2), liq).unwrap();
        pool.collect(pid(2), addr(2), Amount::MAX, Amount::MAX)
            .unwrap();
        assert_eq!(pool.tick_bitmap.initialized_count(), 2);
        assert!(!pool.tick_bitmap.is_initialized(-120));
        assert!(!pool.tick_bitmap.is_initialized(120));
        assert_eq!(
            pool.tick_bitmap.initialized_count(),
            pool.initialized_tick_count()
        );
    }

    #[test]
    fn rebuild_tick_index_matches_incremental() {
        let mut pool = pool_with_liquidity();
        pool.mint(pid(2), addr(2), -1200, -600, 5_000_000, 5_000_000)
            .unwrap();
        pool.swap(true, SwapKind::ExactInput(5_000_000), None)
            .unwrap();
        let mut rebuilt = pool.clone();
        rebuilt.rebuild_tick_index().unwrap();
        assert_eq!(rebuilt.tick_bitmap, pool.tick_bitmap);
        // and swaps behave identically afterwards
        let a = pool.swap(false, SwapKind::ExactInput(1_000_000), None);
        let b = rebuilt.swap(false, SwapKind::ExactInput(1_000_000), None);
        assert_eq!(a, b);
    }

    /// One random operation on a four-slot pool: a mint of half-width
    /// `60 · width` (0: the full domain), a burn of all or half of a
    /// slot's liquidity (all of it clears the slot's ticks unless another
    /// slot shares them), or a swap of `amount` either way.
    #[derive(Clone, Debug)]
    enum IndexOp {
        Mint { slot: u64, width: i32, amount: u128 },
        Burn { slot: u64, all: bool },
        Swap { zero_for_one: bool, amount: u128 },
    }

    fn index_op() -> impl proptest::strategy::Strategy<Value = IndexOp> {
        use proptest::prelude::*;
        prop_oneof![
            (0u64..4, 0i32..40, 50_000u128..50_000_000).prop_map(|(slot, width, amount)| {
                IndexOp::Mint {
                    slot,
                    width,
                    amount,
                }
            }),
            (0u64..4, any::<bool>()).prop_map(|(slot, all)| IndexOp::Burn { slot, all }),
            (any::<bool>(), 1_000u128..80_000_000).prop_map(|(zero_for_one, amount)| {
                IndexOp::Swap {
                    zero_for_one,
                    amount,
                }
            }),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// After every mint, burn and swap the bitmap index marks exactly
        /// the tick table's ticks, and at the end the incrementally kept
        /// index equals a from-scratch rebuild.
        #[test]
        fn tick_index_tracks_the_tick_table_and_equals_a_rebuild(
            ops in proptest::collection::vec(index_op(), 1..40),
        ) {
            let mut pool = Pool::new(3000, 4, U256::ONE << 96).unwrap();
            for op in ops {
                match op {
                    IndexOp::Mint { slot, width, amount } => {
                        let (lower, upper) = match width {
                            0 => (MIN_TICK, MAX_TICK),
                            w => (-60 * w, 60 * w),
                        };
                        let _ = pool.mint(pid(slot), addr(slot), lower, upper, amount, amount);
                    }
                    IndexOp::Burn { slot, all } => {
                        let held = pool.position(&pid(slot)).map_or(0, |p| p.liquidity);
                        let burn = if all { held } else { held / 2 };
                        if burn > 0 {
                            let _ = pool.burn(pid(slot), addr(slot), burn);
                        }
                    }
                    IndexOp::Swap { zero_for_one, amount } => {
                        let _ = pool.swap(zero_for_one, SwapKind::ExactInput(amount), None);
                    }
                }
                let index = &pool.tick_bitmap;
                proptest::prop_assert_eq!(index.initialized_count(), pool.ticks.len());
                for t in pool.ticks.keys() {
                    proptest::prop_assert!(index.is_initialized(*t), "tick {} unmarked", t);
                }
            }
            let mut rebuilt = pool.clone();
            rebuilt.rebuild_tick_index().unwrap();
            proptest::prop_assert_eq!(rebuilt.tick_bitmap, pool.tick_bitmap);
        }
    }

    #[test]
    fn export_restore_roundtrip_is_bit_identical() {
        let mut pool = pool_with_liquidity();
        pool.mint(pid(2), addr(2), -1200, -600, 5_000_000, 5_000_000)
            .unwrap();
        pool.swap(true, SwapKind::ExactInput(7_000_000), None)
            .unwrap();
        let state = pool.export_state();
        // export is deterministic
        assert_eq!(state, pool.export_state());
        let mut restored = Pool::from_state(state.clone()).unwrap();
        // derived structures regenerated in lockstep
        assert_eq!(restored.tick_bitmap, pool.tick_bitmap);
        assert_eq!(restored.export_state(), state);
        // identical behaviour afterwards
        for (dir, amt) in [(false, 3_000_000u128), (true, 123_456)] {
            let a = pool.swap(dir, SwapKind::ExactInput(amt), None);
            let b = restored.swap(dir, SwapKind::ExactInput(amt), None);
            assert_eq!(a, b);
        }
        assert_eq!(restored.export_state(), pool.export_state());
    }

    #[test]
    fn from_state_rejects_corrupt_snapshots() {
        let pool = pool_with_liquidity();
        let good = pool.export_state();
        let mut bad_fee = good.clone();
        bad_fee.fee_pips = crate::types::PIPS_DENOMINATOR;
        assert!(Pool::from_state(bad_fee).is_err());
        let mut bad_spacing = good.clone();
        bad_spacing.tick_spacing = 0;
        assert!(Pool::from_state(bad_spacing).is_err());
        let mut bad_tick = good.clone();
        bad_tick.ticks.push((MAX_TICK + 60, TickInfo::default()));
        assert!(Pool::from_state(bad_tick).is_err());
        // in-range but unaligned to the pool's spacing: must fail closed,
        // not land on the wrong bitmap bit
        let mut misaligned = good.clone();
        misaligned.ticks.push((90, TickInfo::default()));
        assert!(matches!(
            Pool::from_state(misaligned),
            Err(AmmError::InvalidTickRange {
                lower: 90,
                upper: 90
            })
        ));
        // duplicate ticks would silently collapse in the BTreeMap: fail
        // closed
        let mut duplicated = good;
        let first = duplicated.ticks[0].clone();
        duplicated.ticks.insert(1, first);
        assert!(matches!(
            Pool::from_state(duplicated),
            Err(AmmError::InvalidTickRange { .. })
        ));
    }

    /// A pool with an initialized tick at -120 between the current price
    /// and the wide position's lower bound, which a zero-for-one swap of
    /// `SWAP_PAST_INNER_TICK` crosses.
    #[cfg(debug_assertions)]
    fn pool_with_inner_tick() -> Pool {
        let mut pool = pool_with_liquidity();
        pool.mint(pid(2), addr(2), -120, 120, 50_000_000, 50_000_000)
            .unwrap();
        pool
    }

    #[cfg(debug_assertions)]
    const SWAP_PAST_INNER_TICK: Amount = 500_000_000;

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "tick cache disagrees with the tick table at tick -120")]
    fn swap_checks_the_tick_cache_in_debug_builds() {
        let mut pool = pool_with_inner_tick();
        let cached = pool.tick_cache.get_mut(&-120).expect("live tick");
        cached.sqrt_price = cached.sqrt_price + U256::ONE;
        let _ = pool.swap(true, SwapKind::ExactInput(SWAP_PAST_INNER_TICK), None);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "tick bitmap disagrees with the tick table from tick")]
    fn swap_checks_the_tick_bitmap_in_debug_builds() {
        let mut pool = pool_with_inner_tick();
        pool.tick_bitmap.clear(-120);
        let _ = pool.swap(true, SwapKind::ExactInput(SWAP_PAST_INNER_TICK), None);
    }

    #[test]
    fn price_continuity_across_many_small_swaps() {
        let mut pool = pool_with_liquidity();
        let mut last = pool.sqrt_price();
        for _ in 0..50 {
            pool.swap(true, SwapKind::ExactInput(10_000), None).unwrap();
            let now = pool.sqrt_price();
            assert!(now < last);
            last = now;
        }
    }
}
