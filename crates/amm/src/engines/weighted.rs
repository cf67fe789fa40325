//! Weighted geometric-mean engine (Balancer-style G3M): the invariant is
//! `r0^w0 · r1^w1` with normalized weights `w0 + w1 = 1`, swaps priced by
//! the fixed-point power function in [`super::bmath`], LP accounting by
//! the same proportional [`ShareBook`] the constant-product engine uses
//! (an all-asset join/exit never moves the spot price, so it needs no
//! weighted math).
//!
//! The compute/commit swap split is preserved: quotes run the exact
//! staged computation the write path commits. Its differential oracle,
//! which re-derives both swap directions in `f64` — a genuinely different
//! numeric domain — and bounds the fixed-point error, is test code in
//! `crates/amm/tests/engine_oracles.rs`.

use super::bmath::{bdiv, bmul, bmul_up, bpow, BONE};
use super::shares::{mul_div_ceil_u128, mul_div_u128, ShareBook, SharePosition};
use super::spot_sqrt_price_q96;
use crate::error::AmmError;
use crate::pool::{PositionValuation, SwapKind, SwapResult};
use crate::types::{Amount, AmountPair, PositionId, PIPS_DENOMINATOR};
use ammboost_crypto::{Address, U256};
use serde::{Deserialize, Serialize};

/// Largest gross input as a fraction of the in-side reserve: `r_in / 2`.
/// Keeps the pow base `r_in / (r_in + in)` above `2/3`, well inside the
/// binomial series' convergent range.
const MAX_IN_DIVISOR: u128 = 2;

/// Largest output as a fraction of the out-side reserve: `r_out / 3`.
/// Keeps the pow base `r_out / (r_out − out)` below `1.5`, inside
/// `[MIN_BPOW_BASE, MAX_BPOW_BASE]`.
const MAX_OUT_DIVISOR: u128 = 3;

/// The staged outcome of a weighted swap.
#[derive(Clone, Copy, Debug)]
struct WeightedPlan {
    amount_in: Amount,
    amount_out: Amount,
    fee_paid: Amount,
    reserve0: Amount,
    reserve1: Amount,
}

/// A two-token weighted pool.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WeightedEngine {
    fee_pips: u32,
    /// Normalized token0 weight, BONE-scaled; `weight0 + weight1 = BONE`.
    weight0: u128,
    weight1: u128,
    reserve0: Amount,
    reserve1: Amount,
    book: ShareBook,
}

/// Serializable weighted engine state.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct WeightedState {
    /// Swap fee in pips.
    pub fee_pips: u32,
    /// Normalized token0 weight (BONE-scaled).
    pub weight0: u128,
    /// Normalized token1 weight (BONE-scaled).
    pub weight1: u128,
    /// Token0 trading reserve.
    pub reserve0: Amount,
    /// Token1 trading reserve.
    pub reserve1: Amount,
    /// LP positions, ascending by id.
    pub positions: Vec<(PositionId, SharePosition)>,
}

impl WeightedEngine {
    /// Creates an empty pool. `weight0`/`weight1` are relative parts
    /// (e.g. `80, 20`); they are normalized so `w0 + w1 = BONE`.
    ///
    /// # Errors
    /// [`AmmError::InvalidFee`] at or above 100%;
    /// [`AmmError::MathRange`] on a zero weight.
    pub fn new(fee_pips: u32, weight0: u32, weight1: u32) -> Result<WeightedEngine, AmmError> {
        if fee_pips >= PIPS_DENOMINATOR {
            return Err(AmmError::InvalidFee(fee_pips));
        }
        if weight0 == 0 || weight1 == 0 {
            return Err(AmmError::MathRange("weighted pool weight is zero"));
        }
        let total = weight0 as u128 + weight1 as u128;
        let w0 = mul_div_u128(weight0 as u128, BONE, total)?;
        Ok(WeightedEngine {
            fee_pips,
            weight0: w0,
            weight1: BONE - w0,
            reserve0: 0,
            reserve1: 0,
            book: ShareBook::new(),
        })
    }

    /// An empty 80/20 pool with the 0.3% fee tier — Balancer's flagship
    /// configuration, and deliberately asymmetric so heterogeneous-fleet
    /// scenarios exercise a price surface the other engines cannot.
    pub fn new_standard() -> WeightedEngine {
        WeightedEngine::new(3000, 80, 20).expect("standard weighted parameters are valid")
    }

    /// Swap fee in pips.
    pub fn fee_pips(&self) -> u32 {
        self.fee_pips
    }

    /// Normalized `(weight0, weight1)`, BONE-scaled.
    pub fn weights(&self) -> (u128, u128) {
        (self.weight0, self.weight1)
    }

    /// Trading reserves `(reserve0, reserve1)`.
    pub fn reserves(&self) -> AmountPair {
        AmountPair::new(self.reserve0, self.reserve1)
    }

    /// Pool token balances: reserves plus everything owed to LPs.
    pub fn balances(&self) -> AmountPair {
        let owed = self.book.owed_totals();
        AmountPair::new(self.reserve0 + owed.amount0, self.reserve1 + owed.amount1)
    }

    /// The share ledger.
    pub fn book(&self) -> &ShareBook {
        &self.book
    }

    /// Spot sqrt price in Q64.96: `sqrt((r1·w0) / (r0·w1))` — the G3M
    /// marginal price of token0 in token1.
    ///
    /// # Errors
    /// Fails while either reserve is empty (no price yet).
    pub fn sqrt_price(&self) -> Result<U256, AmmError> {
        spot_sqrt_price_q96(
            U256::from_u128(self.reserve1)
                .checked_mul(U256::from_u128(self.weight0))
                .ok_or(AmmError::BalanceOverflow)?,
            U256::from_u128(self.reserve0)
                .checked_mul(U256::from_u128(self.weight1))
                .ok_or(AmmError::BalanceOverflow)?,
        )
    }

    // ---- liquidity -------------------------------------------------------

    /// Quotes a proportional all-asset join.
    ///
    /// # Errors
    /// Mirrors [`ShareBook::quote_join`].
    pub fn quote_mint(
        &self,
        amount0_desired: Amount,
        amount1_desired: Amount,
    ) -> Result<(u128, AmountPair), AmmError> {
        self.book.quote_join(
            self.reserve0,
            self.reserve1,
            amount0_desired,
            amount1_desired,
        )
    }

    /// Joins the pool with both tokens pro-rata.
    ///
    /// # Errors
    /// Mirrors [`ShareBook::join`].
    pub fn mint(
        &mut self,
        id: PositionId,
        owner: Address,
        amount0_desired: Amount,
        amount1_desired: Amount,
    ) -> Result<(u128, AmountPair), AmmError> {
        self.book.join(
            id,
            owner,
            &mut self.reserve0,
            &mut self.reserve1,
            amount0_desired,
            amount1_desired,
        )
    }

    /// Burns shares; principal moves to the position's owed balance.
    ///
    /// # Errors
    /// Mirrors [`ShareBook::exit`].
    pub fn burn(
        &mut self,
        id: PositionId,
        owner: Address,
        shares: u128,
    ) -> Result<AmountPair, AmmError> {
        self.book
            .exit(id, owner, &mut self.reserve0, &mut self.reserve1, shares)
    }

    /// Collects owed tokens out of the pool.
    ///
    /// # Errors
    /// Mirrors [`ShareBook::collect`].
    pub fn collect(
        &mut self,
        id: PositionId,
        owner: Address,
        amount0_requested: Amount,
        amount1_requested: Amount,
    ) -> Result<AmountPair, AmmError> {
        self.book
            .collect(id, owner, amount0_requested, amount1_requested)
    }

    /// Values a position read-only, mirroring what burn-now would credit.
    ///
    /// # Errors
    /// Fails on an unknown position id.
    pub fn value_position(&self, id: &PositionId) -> Result<PositionValuation, AmmError> {
        let pos = self
            .book
            .position(id)
            .ok_or(AmmError::PositionNotFound(*id))?;
        let principal = if pos.shares == 0 {
            AmountPair::ZERO
        } else {
            AmountPair::new(
                mul_div_u128(pos.shares, self.reserve0, self.book.total_shares())?,
                mul_div_u128(pos.shares, self.reserve1, self.book.total_shares())?,
            )
        };
        Ok(PositionValuation {
            principal,
            owed: AmountPair::new(pos.owed0, pos.owed1),
        })
    }

    // ---- swaps -----------------------------------------------------------

    /// Balancer `calcOutGivenIn`: `out = r_out · (1 − (r_in/(r_in+in))^(w_in/w_out))`.
    fn out_given_in(
        r_in: Amount,
        r_out: Amount,
        w_in: u128,
        w_out: u128,
        in_eff: Amount,
    ) -> Result<Amount, AmmError> {
        let weight_ratio = bdiv(w_in, w_out)?;
        let denom = r_in.checked_add(in_eff).ok_or(AmmError::BalanceOverflow)?;
        let y = bdiv(r_in, denom)?;
        let multiplier = BONE
            .checked_sub(bpow(y, weight_ratio)?)
            .ok_or(AmmError::MathRange("weighted out multiplier negative"))?;
        bmul(r_out, multiplier)
    }

    /// Balancer `calcInGivenOut`, rounding the charge up so the pool is
    /// never undercharged: `in = r_in · ((r_out/(r_out−out))^(w_out/w_in) − 1)`.
    fn in_given_out(
        r_in: Amount,
        r_out: Amount,
        w_in: u128,
        w_out: u128,
        out: Amount,
    ) -> Result<Amount, AmmError> {
        let weight_ratio = bdiv(w_out, w_in)?;
        let y = bdiv(r_out, r_out - out)?;
        let multiplier = bpow(y, weight_ratio)?
            .checked_sub(BONE)
            .ok_or(AmmError::MathRange("weighted in multiplier negative"))?;
        bmul_up(r_in, multiplier)
    }

    /// Read-only staged computation shared by the quote and write paths.
    fn compute_swap(
        &self,
        zero_for_one: bool,
        kind: SwapKind,
        sqrt_price_limit: Option<U256>,
        min_amount_out: Amount,
        max_amount_in: Amount,
    ) -> Result<WeightedPlan, AmmError> {
        if sqrt_price_limit.is_some() {
            return Err(AmmError::InvalidPriceLimit);
        }
        if self.reserve0 == 0 || self.reserve1 == 0 {
            return Err(AmmError::InsufficientReserves);
        }
        let (r_in, r_out, w_in, w_out) = if zero_for_one {
            (self.reserve0, self.reserve1, self.weight0, self.weight1)
        } else {
            (self.reserve1, self.reserve0, self.weight1, self.weight0)
        };
        let (amount_in, amount_out, fee_paid) = match kind {
            SwapKind::ExactInput(amount) => {
                if amount == 0 {
                    return Err(AmmError::ZeroAmount);
                }
                // Balancer's MAX_IN_RATIO: beyond half the reserve the
                // pow base leaves its convergent range
                let max_in = r_in / MAX_IN_DIVISOR;
                if amount > max_in {
                    return Err(AmmError::InsufficientLiquidity {
                        requested: amount,
                        available: max_in,
                    });
                }
                let fee =
                    mul_div_ceil_u128(amount, self.fee_pips as u128, PIPS_DENOMINATOR as u128)?;
                let in_eff = amount - fee;
                if in_eff == 0 {
                    return Err(AmmError::ZeroAmount);
                }
                let out = Self::out_given_in(r_in, r_out, w_in, w_out, in_eff)?;
                (amount, out, fee)
            }
            SwapKind::ExactOutput(amount) => {
                if amount == 0 {
                    return Err(AmmError::ZeroAmount);
                }
                // Balancer's MAX_OUT_RATIO, same convergence argument
                let max_out = r_out / MAX_OUT_DIVISOR;
                if amount > max_out {
                    return Err(AmmError::InsufficientLiquidity {
                        requested: amount,
                        available: max_out,
                    });
                }
                let in_eff = Self::in_given_out(r_in, r_out, w_in, w_out, amount)?;
                if in_eff == 0 {
                    return Err(AmmError::ZeroAmount);
                }
                let gross = mul_div_ceil_u128(
                    in_eff,
                    PIPS_DENOMINATOR as u128,
                    (PIPS_DENOMINATOR - self.fee_pips) as u128,
                )?;
                (gross, amount, gross - in_eff)
            }
        };
        if amount_out >= r_out {
            return Err(AmmError::InsufficientLiquidity {
                requested: amount_out,
                available: r_out,
            });
        }
        if amount_out < min_amount_out || amount_in > max_amount_in {
            return Err(AmmError::SlippageExceeded {
                amount_in,
                amount_out,
            });
        }
        let (reserve0, reserve1) = if zero_for_one {
            (
                self.reserve0
                    .checked_add(amount_in)
                    .ok_or(AmmError::BalanceOverflow)?,
                self.reserve1 - amount_out,
            )
        } else {
            (
                self.reserve0 - amount_out,
                self.reserve1
                    .checked_add(amount_in)
                    .ok_or(AmmError::BalanceOverflow)?,
            )
        };
        Ok(WeightedPlan {
            amount_in,
            amount_out,
            fee_paid,
            reserve0,
            reserve1,
        })
    }

    fn result_from_plan(plan: WeightedPlan) -> SwapResult {
        SwapResult {
            amount_in: plan.amount_in,
            amount_out: plan.amount_out,
            fee_paid: plan.fee_paid,
            ticks_crossed: 0,
        }
    }

    /// Quotes a swap without touching state.
    ///
    /// # Errors
    /// Identical to [`WeightedEngine::swap_with_protection`].
    pub fn quote_swap_with_protection(
        &self,
        zero_for_one: bool,
        kind: SwapKind,
        sqrt_price_limit: Option<U256>,
        min_amount_out: Amount,
        max_amount_in: Amount,
    ) -> Result<SwapResult, AmmError> {
        let plan = self.compute_swap(
            zero_for_one,
            kind,
            sqrt_price_limit,
            min_amount_out,
            max_amount_in,
        )?;
        Ok(Self::result_from_plan(plan))
    }

    /// Executes a swap with slippage bounds enforced before committing.
    ///
    /// # Errors
    /// [`AmmError::SlippageExceeded`] on a violated bound (state
    /// untouched), [`AmmError::InsufficientLiquidity`] beyond the
    /// Balancer in/out ratio caps, plus budget/reserve validation.
    pub fn swap_with_protection(
        &mut self,
        zero_for_one: bool,
        kind: SwapKind,
        sqrt_price_limit: Option<U256>,
        min_amount_out: Amount,
        max_amount_in: Amount,
    ) -> Result<SwapResult, AmmError> {
        let plan = self.compute_swap(
            zero_for_one,
            kind,
            sqrt_price_limit,
            min_amount_out,
            max_amount_in,
        )?;
        // ---- commit ----
        self.reserve0 = plan.reserve0;
        self.reserve1 = plan.reserve1;
        Ok(Self::result_from_plan(plan))
    }

    // ---- state -----------------------------------------------------------

    /// Exports deterministic, serializable state.
    pub fn export_state(&self) -> WeightedState {
        WeightedState {
            fee_pips: self.fee_pips,
            weight0: self.weight0,
            weight1: self.weight1,
            reserve0: self.reserve0,
            reserve1: self.reserve1,
            positions: self.book.to_sorted_entries(),
        }
    }

    /// Rebuilds an engine from exported state.
    ///
    /// # Errors
    /// Fails on an out-of-range fee, weights that do not sum to BONE, or
    /// a share book [`ShareBook::from_entries`] rejects.
    pub fn from_state(state: WeightedState) -> Result<WeightedEngine, AmmError> {
        if state.fee_pips >= PIPS_DENOMINATOR {
            return Err(AmmError::InvalidFee(state.fee_pips));
        }
        if state.weight0 == 0
            || state.weight1 == 0
            || state.weight0.checked_add(state.weight1) != Some(BONE)
        {
            return Err(AmmError::MathRange("weighted weights must sum to BONE"));
        }
        Ok(WeightedEngine {
            fee_pips: state.fee_pips,
            weight0: state.weight0,
            weight1: state.weight1,
            reserve0: state.reserve0,
            reserve1: state.reserve1,
            book: ShareBook::from_entries(state.positions)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded() -> WeightedEngine {
        let mut e = WeightedEngine::new_standard();
        e.mint(
            PositionId::derive(&[b"w-seed"]),
            Address::from_index(1),
            4_000_000_000_000_000,
            4_000_000_000_000_000,
        )
        .unwrap();
        e
    }

    #[test]
    fn weights_normalize_to_bone() {
        let e = WeightedEngine::new(3000, 80, 20).unwrap();
        assert_eq!(e.weights(), (8 * BONE / 10, 2 * BONE / 10));
        let odd = WeightedEngine::new(3000, 1, 3).unwrap();
        let (w0, w1) = odd.weights();
        assert_eq!(w0 + w1, BONE);
    }

    #[test]
    fn quote_equals_execution() {
        let e = seeded();
        let q = e
            .quote_swap_with_protection(true, SwapKind::ExactOutput(77_777_777), None, 0, u128::MAX)
            .unwrap();
        let mut w = e.clone();
        let x = w
            .swap_with_protection(true, SwapKind::ExactOutput(77_777_777), None, 0, u128::MAX)
            .unwrap();
        assert_eq!(q, x);
        assert_eq!(x.amount_out, 77_777_777);
    }

    #[test]
    fn exact_output_never_undercharges() {
        let e = seeded();
        let out = 55_555_555u128;
        let q = e
            .quote_swap_with_protection(false, SwapKind::ExactOutput(out), None, 0, u128::MAX)
            .unwrap();
        // replaying the charged input as exact-in must deliver >= out
        let fwd = e
            .quote_swap_with_protection(
                false,
                SwapKind::ExactInput(q.amount_in),
                None,
                0,
                u128::MAX,
            )
            .unwrap();
        assert!(fwd.amount_out >= out, "{} < {out}", fwd.amount_out);
    }

    #[test]
    fn ratio_caps_enforced() {
        let e = seeded();
        let r = e.reserves();
        assert!(matches!(
            e.quote_swap_with_protection(
                true,
                SwapKind::ExactInput(r.amount0 / 2 + 1),
                None,
                0,
                u128::MAX
            ),
            Err(AmmError::InsufficientLiquidity { .. })
        ));
        assert!(matches!(
            e.quote_swap_with_protection(
                true,
                SwapKind::ExactOutput(r.amount1 / 3 + 1),
                None,
                0,
                u128::MAX
            ),
            Err(AmmError::InsufficientLiquidity { .. })
        ));
    }

    #[test]
    fn state_roundtrip_is_lossless() {
        let mut e = seeded();
        e.swap_with_protection(false, SwapKind::ExactInput(9_999_999), None, 0, u128::MAX)
            .unwrap();
        e.burn(
            PositionId::derive(&[b"w-seed"]),
            Address::from_index(1),
            1_000_000_000_000_000,
        )
        .unwrap();
        let state = e.export_state();
        let rebuilt = WeightedEngine::from_state(state.clone()).unwrap();
        assert_eq!(rebuilt, e);
        assert_eq!(rebuilt.export_state(), state);
    }

    #[test]
    fn bad_state_rejected() {
        let mut state = seeded().export_state();
        state.weight0 += 1;
        assert!(matches!(
            WeightedEngine::from_state(state),
            Err(AmmError::MathRange(_))
        ));
    }

    #[test]
    fn asymmetric_weights_skew_price() {
        // 80/20 pool with equal reserves: token0 is the scarce-weighted
        // side, so its price in token1 is w0/w1 = 4.0 → sqrt = 2.0
        let e = seeded();
        let q96 = U256::pow2(96);
        let sqrt = e.sqrt_price().unwrap();
        let two_q96 = q96.checked_mul(U256::from_u128(2)).unwrap();
        assert_eq!(sqrt, two_q96);
    }
}
