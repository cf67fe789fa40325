//! The multi-engine subsystem: one functional interface over several AMM
//! designs.
//!
//! The AMM-theory literature (Bartoletti et al.) frames every AMM as an
//! instance of one interface — a swap function, a liquidity join/exit,
//! and an invariant. [`AmmEngine`] is that interface here: the
//! concentrated-liquidity [`Pool`] implements it natively, and this
//! module adds two reserve-pair instances, the constant-product
//! [`CpEngine`] and the weighted geometric-mean [`WeightedEngine`].
//! Every implementation preserves the compute/commit swap split, so a
//! quote view over any engine is bit-identical to execution.
//!
//! [`Engine`] is the closed sum of the three — what heterogeneous shards
//! actually hold — with [`EngineState`] as its tagged serializable form
//! (the snapshot codec writes the [`EngineKind`] tag ahead of each pool
//! section).

use crate::error::AmmError;
use crate::pool::{Pool, PoolState, PositionValuation, SwapKind, SwapResult};
use crate::types::{Amount, AmountPair, Liquidity, PositionId, Tick};
use ammboost_crypto::{Address, U256};
use serde::{Deserialize, Serialize};

pub mod bmath;
pub mod constant_product;
pub mod shares;
pub mod weighted;

pub use constant_product::{CpEngine, CpState};
pub use shares::{ShareBook, SharePosition};
pub use weighted::{WeightedEngine, WeightedState};

/// Which AMM design a pool runs. The discriminants are the on-wire
/// section tags of the snapshot codec — stable, never reused.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum EngineKind {
    /// Uniswap-v3-style concentrated liquidity (tick grid, ranged
    /// positions, per-position fee growth).
    ConcentratedLiquidity,
    /// Uniswap-v2-style constant product (full-range shares, fees folded
    /// into reserves).
    ConstantProduct,
    /// Balancer-style weighted geometric mean (fixed-point pow pricing).
    Weighted,
}

impl EngineKind {
    /// The stable on-wire tag.
    pub fn tag(self) -> u8 {
        match self {
            EngineKind::ConcentratedLiquidity => 0,
            EngineKind::ConstantProduct => 1,
            EngineKind::Weighted => 2,
        }
    }

    /// Decodes an on-wire tag.
    pub fn from_tag(tag: u8) -> Option<EngineKind> {
        match tag {
            0 => Some(EngineKind::ConcentratedLiquidity),
            1 => Some(EngineKind::ConstantProduct),
            2 => Some(EngineKind::Weighted),
            _ => None,
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            EngineKind::ConcentratedLiquidity => "cl",
            EngineKind::ConstantProduct => "cp",
            EngineKind::Weighted => "weighted",
        })
    }
}

/// An engine-agnostic view of one liquidity position — the common
/// denominator the sidechain processor needs for coverage checks and
/// epoch summaries. Share-based engines report their share count as
/// `liquidity`, a zero tick range, and zero fee-growth snapshots (their
/// fees accrue in the reserves, not per position).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PositionInfo {
    /// The owner's address.
    pub owner: Address,
    /// Lower tick of the active range (0 for full-range share engines).
    pub tick_lower: Tick,
    /// Upper tick of the active range (0 for full-range share engines).
    pub tick_upper: Tick,
    /// Liquidity (CL) or pool shares (reserve-pair engines).
    pub liquidity: Liquidity,
    /// Token0 owed to the owner.
    pub tokens_owed0: Amount,
    /// Token1 owed to the owner.
    pub tokens_owed1: Amount,
    /// Fee growth inside the range at last touch, token0 (Q128; zero for
    /// share engines).
    pub fee_growth_inside0_last: U256,
    /// Fee growth inside the range at last touch, token1 (Q128; zero for
    /// share engines).
    pub fee_growth_inside1_last: U256,
}

/// The common swap/mint/burn/quote surface of every AMM engine.
///
/// Mutating operations are atomic (state untouched on error), quotes are
/// read-only and bit-identical to the execution they predict, and tick
/// arguments are interpreted by ranged engines and ignored by full-range
/// ones — callers pass them through unconditionally.
pub trait AmmEngine {
    /// Which design this engine runs.
    fn kind(&self) -> EngineKind;

    /// Pool token balances (token0, token1), owed amounts included.
    fn balances(&self) -> AmountPair;

    /// Engine-agnostic view of one position.
    fn position_info(&self, id: &PositionId) -> Option<PositionInfo>;

    /// Ids of all live positions. No ordering guarantee — sort if order
    /// matters.
    fn position_ids(&self) -> Vec<PositionId>;

    /// Number of live positions.
    fn position_count(&self) -> usize;

    /// Quotes a mint without touching state.
    ///
    /// # Errors
    /// Engine-specific validation; zero resulting liquidity always fails.
    fn quote_mint(
        &self,
        tick_lower: Tick,
        tick_upper: Tick,
        amount0_desired: Amount,
        amount1_desired: Amount,
    ) -> Result<(Liquidity, AmountPair), AmmError>;

    /// Mints liquidity from a two-token budget, returning the liquidity
    /// (or shares) created and the amounts actually taken.
    ///
    /// # Errors
    /// Engine-specific validation; owner mismatch on an existing
    /// position always fails.
    fn mint(
        &mut self,
        id: PositionId,
        owner: Address,
        tick_lower: Tick,
        tick_upper: Tick,
        amount0_desired: Amount,
        amount1_desired: Amount,
    ) -> Result<(Liquidity, AmountPair), AmmError>;

    /// Burns liquidity; principal is credited to the position's owed
    /// balance, withdrawn later via [`AmmEngine::collect`].
    ///
    /// # Errors
    /// Unknown position, wrong owner, or over-burn.
    fn burn(
        &mut self,
        id: PositionId,
        owner: Address,
        liquidity: Liquidity,
    ) -> Result<AmountPair, AmmError>;

    /// Collects owed tokens (capped at what is owed) out of the pool.
    ///
    /// # Errors
    /// Unknown position or wrong owner.
    fn collect(
        &mut self,
        id: PositionId,
        owner: Address,
        amount0_requested: Amount,
        amount1_requested: Amount,
    ) -> Result<AmountPair, AmmError>;

    /// Executes a swap with slippage bounds enforced before committing.
    ///
    /// # Errors
    /// [`AmmError::SlippageExceeded`] on a violated bound (state
    /// untouched) plus engine-specific validation.
    fn swap_with_protection(
        &mut self,
        zero_for_one: bool,
        kind: SwapKind,
        sqrt_price_limit: Option<U256>,
        min_amount_out: Amount,
        max_amount_in: Amount,
    ) -> Result<SwapResult, AmmError>;

    /// Read-only variant of [`AmmEngine::swap_with_protection`]: the
    /// exact [`SwapResult`] execution would produce right now.
    ///
    /// # Errors
    /// Identical to [`AmmEngine::swap_with_protection`].
    fn quote_swap_with_protection(
        &self,
        zero_for_one: bool,
        kind: SwapKind,
        sqrt_price_limit: Option<U256>,
        min_amount_out: Amount,
        max_amount_in: Amount,
    ) -> Result<SwapResult, AmmError>;

    /// Values a position at the current price, read-only.
    ///
    /// # Errors
    /// Unknown position id.
    fn value_position(&self, id: &PositionId) -> Result<PositionValuation, AmmError>;
}

impl AmmEngine for Pool {
    fn kind(&self) -> EngineKind {
        EngineKind::ConcentratedLiquidity
    }

    fn balances(&self) -> AmountPair {
        Pool::balances(self)
    }

    fn position_info(&self, id: &PositionId) -> Option<PositionInfo> {
        self.position(id).map(|p| PositionInfo {
            owner: p.owner,
            tick_lower: p.tick_lower,
            tick_upper: p.tick_upper,
            liquidity: p.liquidity,
            tokens_owed0: p.tokens_owed0,
            tokens_owed1: p.tokens_owed1,
            fee_growth_inside0_last: p.fee_growth_inside0_last,
            fee_growth_inside1_last: p.fee_growth_inside1_last,
        })
    }

    fn position_ids(&self) -> Vec<PositionId> {
        self.positions().map(|(id, _)| id).collect()
    }

    fn position_count(&self) -> usize {
        Pool::position_count(self)
    }

    fn quote_mint(
        &self,
        tick_lower: Tick,
        tick_upper: Tick,
        amount0_desired: Amount,
        amount1_desired: Amount,
    ) -> Result<(Liquidity, AmountPair), AmmError> {
        Pool::quote_mint(
            self,
            tick_lower,
            tick_upper,
            amount0_desired,
            amount1_desired,
        )
    }

    fn mint(
        &mut self,
        id: PositionId,
        owner: Address,
        tick_lower: Tick,
        tick_upper: Tick,
        amount0_desired: Amount,
        amount1_desired: Amount,
    ) -> Result<(Liquidity, AmountPair), AmmError> {
        Pool::mint(
            self,
            id,
            owner,
            tick_lower,
            tick_upper,
            amount0_desired,
            amount1_desired,
        )
    }

    fn burn(
        &mut self,
        id: PositionId,
        owner: Address,
        liquidity: Liquidity,
    ) -> Result<AmountPair, AmmError> {
        Pool::burn(self, id, owner, liquidity)
    }

    fn collect(
        &mut self,
        id: PositionId,
        owner: Address,
        amount0_requested: Amount,
        amount1_requested: Amount,
    ) -> Result<AmountPair, AmmError> {
        Pool::collect(self, id, owner, amount0_requested, amount1_requested)
    }

    fn swap_with_protection(
        &mut self,
        zero_for_one: bool,
        kind: SwapKind,
        sqrt_price_limit: Option<U256>,
        min_amount_out: Amount,
        max_amount_in: Amount,
    ) -> Result<SwapResult, AmmError> {
        Pool::swap_with_protection(
            self,
            zero_for_one,
            kind,
            sqrt_price_limit,
            min_amount_out,
            max_amount_in,
        )
    }

    fn quote_swap_with_protection(
        &self,
        zero_for_one: bool,
        kind: SwapKind,
        sqrt_price_limit: Option<U256>,
        min_amount_out: Amount,
        max_amount_in: Amount,
    ) -> Result<SwapResult, AmmError> {
        Pool::quote_swap_with_protection(
            self,
            zero_for_one,
            kind,
            sqrt_price_limit,
            min_amount_out,
            max_amount_in,
        )
    }

    fn value_position(&self, id: &PositionId) -> Result<PositionValuation, AmmError> {
        Pool::value_position(self, id)
    }
}

impl AmmEngine for CpEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::ConstantProduct
    }

    fn balances(&self) -> AmountPair {
        CpEngine::balances(self)
    }

    fn position_info(&self, id: &PositionId) -> Option<PositionInfo> {
        self.book().position(id).map(share_position_info)
    }

    fn position_ids(&self) -> Vec<PositionId> {
        self.book().iter().map(|(id, _)| *id).collect()
    }

    fn position_count(&self) -> usize {
        self.book().len()
    }

    fn quote_mint(
        &self,
        _tick_lower: Tick,
        _tick_upper: Tick,
        amount0_desired: Amount,
        amount1_desired: Amount,
    ) -> Result<(Liquidity, AmountPair), AmmError> {
        CpEngine::quote_mint(self, amount0_desired, amount1_desired)
    }

    fn mint(
        &mut self,
        id: PositionId,
        owner: Address,
        _tick_lower: Tick,
        _tick_upper: Tick,
        amount0_desired: Amount,
        amount1_desired: Amount,
    ) -> Result<(Liquidity, AmountPair), AmmError> {
        CpEngine::mint(self, id, owner, amount0_desired, amount1_desired)
    }

    fn burn(
        &mut self,
        id: PositionId,
        owner: Address,
        liquidity: Liquidity,
    ) -> Result<AmountPair, AmmError> {
        CpEngine::burn(self, id, owner, liquidity)
    }

    fn collect(
        &mut self,
        id: PositionId,
        owner: Address,
        amount0_requested: Amount,
        amount1_requested: Amount,
    ) -> Result<AmountPair, AmmError> {
        CpEngine::collect(self, id, owner, amount0_requested, amount1_requested)
    }

    fn swap_with_protection(
        &mut self,
        zero_for_one: bool,
        kind: SwapKind,
        sqrt_price_limit: Option<U256>,
        min_amount_out: Amount,
        max_amount_in: Amount,
    ) -> Result<SwapResult, AmmError> {
        CpEngine::swap_with_protection(
            self,
            zero_for_one,
            kind,
            sqrt_price_limit,
            min_amount_out,
            max_amount_in,
        )
    }

    fn quote_swap_with_protection(
        &self,
        zero_for_one: bool,
        kind: SwapKind,
        sqrt_price_limit: Option<U256>,
        min_amount_out: Amount,
        max_amount_in: Amount,
    ) -> Result<SwapResult, AmmError> {
        CpEngine::quote_swap_with_protection(
            self,
            zero_for_one,
            kind,
            sqrt_price_limit,
            min_amount_out,
            max_amount_in,
        )
    }

    fn value_position(&self, id: &PositionId) -> Result<PositionValuation, AmmError> {
        CpEngine::value_position(self, id)
    }
}

impl AmmEngine for WeightedEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Weighted
    }

    fn balances(&self) -> AmountPair {
        WeightedEngine::balances(self)
    }

    fn position_info(&self, id: &PositionId) -> Option<PositionInfo> {
        self.book().position(id).map(share_position_info)
    }

    fn position_ids(&self) -> Vec<PositionId> {
        self.book().iter().map(|(id, _)| *id).collect()
    }

    fn position_count(&self) -> usize {
        self.book().len()
    }

    fn quote_mint(
        &self,
        _tick_lower: Tick,
        _tick_upper: Tick,
        amount0_desired: Amount,
        amount1_desired: Amount,
    ) -> Result<(Liquidity, AmountPair), AmmError> {
        WeightedEngine::quote_mint(self, amount0_desired, amount1_desired)
    }

    fn mint(
        &mut self,
        id: PositionId,
        owner: Address,
        _tick_lower: Tick,
        _tick_upper: Tick,
        amount0_desired: Amount,
        amount1_desired: Amount,
    ) -> Result<(Liquidity, AmountPair), AmmError> {
        WeightedEngine::mint(self, id, owner, amount0_desired, amount1_desired)
    }

    fn burn(
        &mut self,
        id: PositionId,
        owner: Address,
        liquidity: Liquidity,
    ) -> Result<AmountPair, AmmError> {
        WeightedEngine::burn(self, id, owner, liquidity)
    }

    fn collect(
        &mut self,
        id: PositionId,
        owner: Address,
        amount0_requested: Amount,
        amount1_requested: Amount,
    ) -> Result<AmountPair, AmmError> {
        WeightedEngine::collect(self, id, owner, amount0_requested, amount1_requested)
    }

    fn swap_with_protection(
        &mut self,
        zero_for_one: bool,
        kind: SwapKind,
        sqrt_price_limit: Option<U256>,
        min_amount_out: Amount,
        max_amount_in: Amount,
    ) -> Result<SwapResult, AmmError> {
        WeightedEngine::swap_with_protection(
            self,
            zero_for_one,
            kind,
            sqrt_price_limit,
            min_amount_out,
            max_amount_in,
        )
    }

    fn quote_swap_with_protection(
        &self,
        zero_for_one: bool,
        kind: SwapKind,
        sqrt_price_limit: Option<U256>,
        min_amount_out: Amount,
        max_amount_in: Amount,
    ) -> Result<SwapResult, AmmError> {
        WeightedEngine::quote_swap_with_protection(
            self,
            zero_for_one,
            kind,
            sqrt_price_limit,
            min_amount_out,
            max_amount_in,
        )
    }

    fn value_position(&self, id: &PositionId) -> Result<PositionValuation, AmmError> {
        WeightedEngine::value_position(self, id)
    }
}

fn share_position_info(p: &SharePosition) -> PositionInfo {
    PositionInfo {
        owner: p.owner,
        tick_lower: 0,
        tick_upper: 0,
        liquidity: p.shares,
        tokens_owed0: p.owed0,
        tokens_owed1: p.owed1,
        fee_growth_inside0_last: U256::ZERO,
        fee_growth_inside1_last: U256::ZERO,
    }
}

/// The closed sum of the fleet's engines — what a heterogeneous shard
/// actually executes. Dispatch is by inherent forwarding methods (one
/// `match` each), so call sites need no trait import and the compiler
/// devirtualizes everything.
// One `Engine` lives per shard (never in bulk collections), and the CL
// variant is the hot path — boxing it would trade a pointer chase on
// every swap for a few hundred idle bytes on the smaller variants.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum Engine {
    /// Concentrated-liquidity pool.
    Cl(Pool),
    /// Constant-product pool.
    Cp(CpEngine),
    /// Weighted geometric-mean pool.
    Weighted(WeightedEngine),
}

/// Tagged serializable engine state: [`EngineState`] is to [`Engine`]
/// what [`PoolState`] is to [`Pool`]. The variant tag is
/// [`EngineKind::tag`] on the wire.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum EngineState {
    /// Concentrated-liquidity state.
    Cl(PoolState),
    /// Constant-product state.
    Cp(CpState),
    /// Weighted state.
    Weighted(WeightedState),
}

impl EngineState {
    /// Which engine this state rebuilds into.
    pub fn kind(&self) -> EngineKind {
        match self {
            EngineState::Cl(_) => EngineKind::ConcentratedLiquidity,
            EngineState::Cp(_) => EngineKind::ConstantProduct,
            EngineState::Weighted(_) => EngineKind::Weighted,
        }
    }
}

macro_rules! dispatch {
    ($self:ident, $e:ident => $body:expr) => {
        match $self {
            Engine::Cl($e) => $body,
            Engine::Cp($e) => $body,
            Engine::Weighted($e) => $body,
        }
    };
}

impl Engine {
    /// A fresh standard-parameter engine of the given kind (0.3% fee
    /// everywhere; spacing 60 for CL, 80/20 weights for the G3M).
    pub fn new_standard(kind: EngineKind) -> Engine {
        match kind {
            EngineKind::ConcentratedLiquidity => Engine::Cl(Pool::new_standard()),
            EngineKind::ConstantProduct => Engine::Cp(CpEngine::new_standard()),
            EngineKind::Weighted => Engine::Weighted(WeightedEngine::new_standard()),
        }
    }

    /// Which design this engine runs.
    pub fn kind(&self) -> EngineKind {
        dispatch!(self, e => AmmEngine::kind(e))
    }

    /// The concentrated-liquidity pool, when this engine is one.
    pub fn as_cl(&self) -> Option<&Pool> {
        match self {
            Engine::Cl(p) => Some(p),
            _ => None,
        }
    }

    /// Mutable access to the concentrated-liquidity pool, when this
    /// engine is one.
    pub fn as_cl_mut(&mut self) -> Option<&mut Pool> {
        match self {
            Engine::Cl(p) => Some(p),
            _ => None,
        }
    }

    /// Pool token balances, owed amounts included.
    pub fn balances(&self) -> AmountPair {
        dispatch!(self, e => AmmEngine::balances(e))
    }

    /// Engine-agnostic view of one position.
    pub fn position_info(&self, id: &PositionId) -> Option<PositionInfo> {
        dispatch!(self, e => AmmEngine::position_info(e, id))
    }

    /// Ids of all live positions (no ordering guarantee).
    pub fn position_ids(&self) -> Vec<PositionId> {
        dispatch!(self, e => AmmEngine::position_ids(e))
    }

    /// Number of live positions.
    pub fn position_count(&self) -> usize {
        dispatch!(self, e => AmmEngine::position_count(e))
    }

    /// Quotes a mint without touching state.
    ///
    /// # Errors
    /// See [`AmmEngine::quote_mint`].
    pub fn quote_mint(
        &self,
        tick_lower: Tick,
        tick_upper: Tick,
        amount0_desired: Amount,
        amount1_desired: Amount,
    ) -> Result<(Liquidity, AmountPair), AmmError> {
        dispatch!(self, e => AmmEngine::quote_mint(e, tick_lower, tick_upper, amount0_desired, amount1_desired))
    }

    /// Mints liquidity from a two-token budget.
    ///
    /// # Errors
    /// See [`AmmEngine::mint`].
    pub fn mint(
        &mut self,
        id: PositionId,
        owner: Address,
        tick_lower: Tick,
        tick_upper: Tick,
        amount0_desired: Amount,
        amount1_desired: Amount,
    ) -> Result<(Liquidity, AmountPair), AmmError> {
        dispatch!(self, e => AmmEngine::mint(e, id, owner, tick_lower, tick_upper, amount0_desired, amount1_desired))
    }

    /// Burns liquidity into the position's owed balance.
    ///
    /// # Errors
    /// See [`AmmEngine::burn`].
    pub fn burn(
        &mut self,
        id: PositionId,
        owner: Address,
        liquidity: Liquidity,
    ) -> Result<AmountPair, AmmError> {
        dispatch!(self, e => AmmEngine::burn(e, id, owner, liquidity))
    }

    /// Collects owed tokens out of the pool.
    ///
    /// # Errors
    /// See [`AmmEngine::collect`].
    pub fn collect(
        &mut self,
        id: PositionId,
        owner: Address,
        amount0_requested: Amount,
        amount1_requested: Amount,
    ) -> Result<AmountPair, AmmError> {
        dispatch!(self, e => AmmEngine::collect(e, id, owner, amount0_requested, amount1_requested))
    }

    /// Executes a swap with slippage bounds enforced before committing.
    ///
    /// # Errors
    /// See [`AmmEngine::swap_with_protection`].
    pub fn swap_with_protection(
        &mut self,
        zero_for_one: bool,
        kind: SwapKind,
        sqrt_price_limit: Option<U256>,
        min_amount_out: Amount,
        max_amount_in: Amount,
    ) -> Result<SwapResult, AmmError> {
        dispatch!(self, e => AmmEngine::swap_with_protection(e, zero_for_one, kind, sqrt_price_limit, min_amount_out, max_amount_in))
    }

    /// Read-only swap quote, bit-identical to execution.
    ///
    /// # Errors
    /// See [`AmmEngine::quote_swap_with_protection`].
    pub fn quote_swap_with_protection(
        &self,
        zero_for_one: bool,
        kind: SwapKind,
        sqrt_price_limit: Option<U256>,
        min_amount_out: Amount,
        max_amount_in: Amount,
    ) -> Result<SwapResult, AmmError> {
        dispatch!(self, e => AmmEngine::quote_swap_with_protection(e, zero_for_one, kind, sqrt_price_limit, min_amount_out, max_amount_in))
    }

    /// Unprotected swap (no slippage bounds).
    ///
    /// # Errors
    /// See [`AmmEngine::swap_with_protection`].
    pub fn swap(
        &mut self,
        zero_for_one: bool,
        kind: SwapKind,
        sqrt_price_limit: Option<U256>,
    ) -> Result<SwapResult, AmmError> {
        self.swap_with_protection(zero_for_one, kind, sqrt_price_limit, 0, Amount::MAX)
    }

    /// Unprotected read-only quote.
    ///
    /// # Errors
    /// See [`AmmEngine::quote_swap_with_protection`].
    pub fn quote_swap(
        &self,
        zero_for_one: bool,
        kind: SwapKind,
        sqrt_price_limit: Option<U256>,
    ) -> Result<SwapResult, AmmError> {
        self.quote_swap_with_protection(zero_for_one, kind, sqrt_price_limit, 0, Amount::MAX)
    }

    /// Values a position at the current price, read-only.
    ///
    /// # Errors
    /// See [`AmmEngine::value_position`].
    pub fn value_position(&self, id: &PositionId) -> Result<PositionValuation, AmmError> {
        dispatch!(self, e => AmmEngine::value_position(e, id))
    }

    /// Exports tagged, deterministic, serializable state.
    pub fn export_state(&self) -> EngineState {
        match self {
            Engine::Cl(p) => EngineState::Cl(p.export_state()),
            Engine::Cp(e) => EngineState::Cp(e.export_state()),
            Engine::Weighted(e) => EngineState::Weighted(e.export_state()),
        }
    }

    /// Rebuilds an engine from tagged state (regenerating the CL tick
    /// index where needed).
    ///
    /// # Errors
    /// Propagates the per-engine state validation.
    pub fn from_state(state: EngineState) -> Result<Engine, AmmError> {
        Ok(match state {
            EngineState::Cl(s) => Engine::Cl(Pool::from_state(s)?),
            EngineState::Cp(s) => Engine::Cp(CpEngine::from_state(s)?),
            EngineState::Weighted(s) => Engine::Weighted(WeightedEngine::from_state(s)?),
        })
    }
}

/// `sqrt(num / den)` in Q64.96 — the spot sqrt price of a reserve-pair
/// engine, computed as `isqrt(num · 2^192 / den)` over 512-bit
/// intermediates.
///
/// # Errors
/// [`AmmError::InsufficientReserves`] when `den` is zero.
pub(crate) fn spot_sqrt_price_q96(num: U256, den: U256) -> Result<U256, AmmError> {
    if den.is_zero() {
        return Err(AmmError::InsufficientReserves);
    }
    let scaled = num.full_mul(U256::pow2(192));
    let (q, _) = scaled.div_rem_u256(den);
    Ok(q.isqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_kind_tags_roundtrip() {
        for kind in [
            EngineKind::ConcentratedLiquidity,
            EngineKind::ConstantProduct,
            EngineKind::Weighted,
        ] {
            assert_eq!(EngineKind::from_tag(kind.tag()), Some(kind));
        }
        assert_eq!(EngineKind::from_tag(3), None);
    }

    #[test]
    fn spot_price_of_balanced_cp_pool_is_one() {
        let r = U256::from_u128(4_000_000_000_000_000);
        assert_eq!(spot_sqrt_price_q96(r, r).unwrap(), U256::pow2(96));
    }

    fn seeded(kind: EngineKind) -> Engine {
        let mut e = Engine::new_standard(kind);
        e.mint(
            PositionId::derive(&[b"engine-seed"]),
            Address::from_index(1),
            -120_000,
            120_000,
            4_000_000_000_000_000,
            4_000_000_000_000_000,
        )
        .expect("seed mint");
        e
    }

    #[test]
    fn every_engine_serves_the_full_surface() {
        for kind in [
            EngineKind::ConcentratedLiquidity,
            EngineKind::ConstantProduct,
            EngineKind::Weighted,
        ] {
            let mut e = seeded(kind);
            assert_eq!(e.kind(), kind);
            assert_eq!(e.position_count(), 1);
            let id = e.position_ids()[0];
            let info = e.position_info(&id).expect("position exists");
            assert_eq!(info.owner, Address::from_index(1));
            assert!(info.liquidity > 0);

            // quote == execute, for both budgets and directions
            for (zf1, kind_) in [
                (true, SwapKind::ExactInput(1_000_000_000)),
                (false, SwapKind::ExactOutput(999_999_999)),
            ] {
                let q = e.quote_swap(zf1, kind_, None).expect("quote");
                let x = e.swap(zf1, kind_, None).expect("swap");
                assert_eq!(q, x, "{kind:?} quote/execute diverged");
                assert!(x.amount_in > 0 && x.amount_out > 0 && x.fee_paid > 0);
            }

            // valuation, burn, collect
            let val = e.value_position(&id).expect("valuation");
            assert!(!val.principal.is_zero());
            let burned = e
                .burn(id, Address::from_index(1), info.liquidity)
                .expect("burn");
            assert!(!burned.is_zero());
            let collected = e
                .collect(id, Address::from_index(1), u128::MAX, u128::MAX)
                .expect("collect");
            assert!(collected.amount0 >= burned.amount0 && collected.amount1 >= burned.amount1);

            // tagged state round-trip
            let state = e.export_state();
            assert_eq!(state.kind(), kind);
            let rebuilt = Engine::from_state(state.clone()).expect("from_state");
            assert_eq!(rebuilt.export_state(), state);
        }
    }

    #[test]
    fn wrong_owner_rejected_uniformly() {
        for kind in [
            EngineKind::ConcentratedLiquidity,
            EngineKind::ConstantProduct,
            EngineKind::Weighted,
        ] {
            let mut e = seeded(kind);
            let id = e.position_ids()[0];
            assert!(matches!(
                e.burn(id, Address::from_index(2), 1),
                Err(AmmError::NotPositionOwner(_))
            ));
            assert!(matches!(
                e.mint(id, Address::from_index(2), -120_000, 120_000, 1_000, 1_000),
                Err(AmmError::NotPositionOwner(_))
            ));
        }
    }
}
