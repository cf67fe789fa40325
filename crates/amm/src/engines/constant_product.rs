//! Constant-product (Uniswap-V2-style) engine: `x · y = k`, full-range
//! proportional LP shares, fees folded into the reserves.
//!
//! The swap surface keeps the CL engine's compute/commit split: every
//! quote runs the exact staged computation the write path commits, so a
//! `QuoteView` serving a constant-product pool is bit-identical to
//! execution by construction. Its differential oracle, which re-derives
//! both swap directions from the `k`-complement identity — a genuinely
//! different integer computation that provably produces the same bits —
//! is test code in `crates/amm/tests/engine_oracles.rs`.

use super::shares::{mul_div_ceil_u128, mul_div_u128, ShareBook, SharePosition};
use super::spot_sqrt_price_q96;
use crate::error::AmmError;
use crate::pool::{PositionValuation, SwapKind, SwapResult};
use crate::types::{Amount, AmountPair, PositionId, PIPS_DENOMINATOR};
use ammboost_crypto::{Address, U256};
use serde::{Deserialize, Serialize};

/// The staged outcome of a constant-product swap: everything the commit
/// step writes plus the trader-facing totals.
#[derive(Clone, Copy, Debug)]
struct CpPlan {
    amount_in: Amount,
    amount_out: Amount,
    fee_paid: Amount,
    reserve0: Amount,
    reserve1: Amount,
}

/// A constant-product pool.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CpEngine {
    fee_pips: u32,
    reserve0: Amount,
    reserve1: Amount,
    book: ShareBook,
}

/// Serializable constant-product engine state: the reserves plus the
/// sorted share ledger. The share total is derived, not shipped.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CpState {
    /// Swap fee in pips.
    pub fee_pips: u32,
    /// Token0 trading reserve.
    pub reserve0: Amount,
    /// Token1 trading reserve.
    pub reserve1: Amount,
    /// LP positions, ascending by id.
    pub positions: Vec<(PositionId, SharePosition)>,
}

impl CpEngine {
    /// Creates an empty pool with the given fee.
    ///
    /// # Errors
    /// [`AmmError::InvalidFee`] at or above 100%.
    pub fn new(fee_pips: u32) -> Result<CpEngine, AmmError> {
        if fee_pips >= PIPS_DENOMINATOR {
            return Err(AmmError::InvalidFee(fee_pips));
        }
        Ok(CpEngine {
            fee_pips,
            reserve0: 0,
            reserve1: 0,
            book: ShareBook::new(),
        })
    }

    /// An empty pool with the 0.3% fee tier, matching
    /// [`Pool::new_standard`](crate::pool::Pool::new_standard).
    pub fn new_standard() -> CpEngine {
        CpEngine::new(3000).expect("standard fee is valid")
    }

    /// Swap fee in pips.
    pub fn fee_pips(&self) -> u32 {
        self.fee_pips
    }

    /// Trading reserves `(reserve0, reserve1)` — fee income included,
    /// owed-but-uncollected exit principal excluded.
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

    /// Spot sqrt price `sqrt(reserve1 / reserve0)` in Q64.96.
    ///
    /// # Errors
    /// Fails while either reserve is empty (no price yet).
    pub fn sqrt_price(&self) -> Result<U256, AmmError> {
        spot_sqrt_price_q96(
            U256::from_u128(self.reserve1),
            U256::from_u128(self.reserve0),
        )
    }

    // ---- liquidity -------------------------------------------------------

    /// Quotes a proportional join; tick arguments are accepted for
    /// surface compatibility and ignored (positions are full-range).
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

    /// Joins the pool: issues shares for a two-token deposit.
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

    /// Burns shares: pro-rata principal moves from the reserves into the
    /// position's owed balance (collected separately, like the CL flow).
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

    /// Values a position read-only: the principal its shares would redeem
    /// if burned now (rounded down, exactly as [`CpEngine::burn`] credits
    /// it) plus tokens already owed.
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

    /// Read-only staged computation shared by the quote and write paths.
    fn compute_swap(
        &self,
        zero_for_one: bool,
        kind: SwapKind,
        sqrt_price_limit: Option<U256>,
        min_amount_out: Amount,
        max_amount_in: Amount,
    ) -> Result<CpPlan, AmmError> {
        if sqrt_price_limit.is_some() {
            // reserve-pair engines have no tick grid to bound a price walk
            return Err(AmmError::InvalidPriceLimit);
        }
        if self.reserve0 == 0 || self.reserve1 == 0 {
            return Err(AmmError::InsufficientReserves);
        }
        let (r_in, r_out) = if zero_for_one {
            (self.reserve0, self.reserve1)
        } else {
            (self.reserve1, self.reserve0)
        };
        let (amount_in, amount_out, fee_paid) = match kind {
            SwapKind::ExactInput(amount) => {
                if amount == 0 {
                    return Err(AmmError::ZeroAmount);
                }
                let fee =
                    mul_div_ceil_u128(amount, self.fee_pips as u128, PIPS_DENOMINATOR as u128)?;
                let in_eff = amount - fee;
                if in_eff == 0 {
                    return Err(AmmError::ZeroAmount);
                }
                let denom = r_in.checked_add(in_eff).ok_or(AmmError::BalanceOverflow)?;
                let out = mul_div_u128(in_eff, r_out, denom)?;
                (amount, out, fee)
            }
            SwapKind::ExactOutput(amount) => {
                if amount == 0 {
                    return Err(AmmError::ZeroAmount);
                }
                if amount >= r_out {
                    return Err(AmmError::InsufficientLiquidity {
                        requested: amount,
                        available: r_out,
                    });
                }
                let in_eff = mul_div_ceil_u128(amount, r_in, r_out - amount)?;
                let gross = mul_div_ceil_u128(
                    in_eff,
                    PIPS_DENOMINATOR as u128,
                    (PIPS_DENOMINATOR - self.fee_pips) as u128,
                )?;
                (gross, amount, gross - in_eff)
            }
        };
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
        Ok(CpPlan {
            amount_in,
            amount_out,
            fee_paid,
            reserve0,
            reserve1,
        })
    }

    fn result_from_plan(plan: CpPlan) -> SwapResult {
        SwapResult {
            amount_in: plan.amount_in,
            amount_out: plan.amount_out,
            fee_paid: plan.fee_paid,
            ticks_crossed: 0,
        }
    }

    /// Quotes a swap without touching state — the exact [`SwapResult`]
    /// [`CpEngine::swap_with_protection`] would produce right now.
    ///
    /// # Errors
    /// Identical to [`CpEngine::swap_with_protection`].
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

    /// Executes a swap with the trader's slippage bounds enforced before
    /// committing. The gross input (fee included) enters the in-side
    /// reserve — fees accrue to all LPs in place, V2-style.
    ///
    /// # Errors
    /// [`AmmError::SlippageExceeded`] on a violated bound (state
    /// untouched), [`AmmError::InsufficientLiquidity`] on an unfillable
    /// exact-output request, plus budget/reserve validation errors.
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
    pub fn export_state(&self) -> CpState {
        CpState {
            fee_pips: self.fee_pips,
            reserve0: self.reserve0,
            reserve1: self.reserve1,
            positions: self.book.to_sorted_entries(),
        }
    }

    /// Rebuilds an engine from exported state.
    ///
    /// # Errors
    /// [`AmmError::InvalidFee`] on an out-of-range fee; the share book's
    /// [`ShareBook::from_entries`] errors.
    pub fn from_state(state: CpState) -> Result<CpEngine, AmmError> {
        if state.fee_pips >= PIPS_DENOMINATOR {
            return Err(AmmError::InvalidFee(state.fee_pips));
        }
        Ok(CpEngine {
            fee_pips: state.fee_pips,
            reserve0: state.reserve0,
            reserve1: state.reserve1,
            book: ShareBook::from_entries(state.positions)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded() -> CpEngine {
        let mut e = CpEngine::new_standard();
        e.mint(
            PositionId::derive(&[b"cp-seed"]),
            Address::from_index(1),
            4_000_000_000_000_000,
            4_000_000_000_000_000,
        )
        .unwrap();
        e
    }

    #[test]
    fn initial_mint_issues_geometric_shares() {
        let e = seeded();
        assert_eq!(e.book().total_shares(), 4_000_000_000_000_000);
        assert_eq!(
            e.reserves(),
            AmountPair::new(4_000_000_000_000_000, 4_000_000_000_000_000)
        );
    }

    #[test]
    fn swap_conserves_k_net_of_fees() {
        let mut e = seeded();
        let before = e.reserves();
        let k_before = U256::from_u128(before.amount0).full_mul(U256::from_u128(before.amount1));
        let r = e
            .swap_with_protection(
                true,
                SwapKind::ExactInput(1_000_000_000),
                None,
                0,
                u128::MAX,
            )
            .unwrap();
        assert!(r.amount_out > 0 && r.fee_paid > 0);
        let after = e.reserves();
        let k_after = U256::from_u128(after.amount0).full_mul(U256::from_u128(after.amount1));
        assert!(k_after >= k_before, "k must not decrease");
    }

    #[test]
    fn quote_equals_execution() {
        let e = seeded();
        let q = e
            .quote_swap_with_protection(
                false,
                SwapKind::ExactOutput(123_456_789),
                None,
                0,
                u128::MAX,
            )
            .unwrap();
        let mut w = e.clone();
        let x = w
            .swap_with_protection(
                false,
                SwapKind::ExactOutput(123_456_789),
                None,
                0,
                u128::MAX,
            )
            .unwrap();
        assert_eq!(q, x);
    }

    #[test]
    fn exact_output_round_trips_through_exact_input() {
        let e = seeded();
        let out = 987_654_321u128;
        let q = e
            .quote_swap_with_protection(true, SwapKind::ExactOutput(out), None, 0, u128::MAX)
            .unwrap();
        assert_eq!(q.amount_out, out);
        // paying the quoted input must deliver at least the requested output
        let fwd = e
            .quote_swap_with_protection(true, SwapKind::ExactInput(q.amount_in), None, 0, u128::MAX)
            .unwrap();
        assert!(fwd.amount_out >= out);
    }

    #[test]
    fn slippage_protection_fires_atomically() {
        let mut e = seeded();
        let before = e.export_state();
        let err = e
            .swap_with_protection(
                true,
                SwapKind::ExactInput(1_000_000),
                None,
                u128::MAX,
                u128::MAX,
            )
            .unwrap_err();
        assert!(matches!(err, AmmError::SlippageExceeded { .. }));
        assert_eq!(e.export_state(), before);
    }

    #[test]
    fn burn_then_collect_returns_principal() {
        let mut e = seeded();
        let id = PositionId::derive(&[b"cp-seed"]);
        let owner = Address::from_index(1);
        let out = e.burn(id, owner, 2_000_000_000_000_000).unwrap();
        assert_eq!(
            out,
            AmountPair::new(2_000_000_000_000_000, 2_000_000_000_000_000)
        );
        // principal sits in owed until collected; balances still include it
        assert_eq!(
            e.balances(),
            AmountPair::new(4_000_000_000_000_000, 4_000_000_000_000_000)
        );
        let got = e.collect(id, owner, u128::MAX, u128::MAX).unwrap();
        assert_eq!(got, out);
        assert_eq!(
            e.balances(),
            AmountPair::new(2_000_000_000_000_000, 2_000_000_000_000_000)
        );
    }

    #[test]
    fn price_limit_rejected() {
        let e = seeded();
        assert_eq!(
            e.quote_swap_with_protection(
                true,
                SwapKind::ExactInput(1_000),
                Some(U256::pow2(96)),
                0,
                u128::MAX
            ),
            Err(AmmError::InvalidPriceLimit)
        );
    }

    #[test]
    fn state_roundtrip_is_lossless() {
        let mut e = seeded();
        e.swap_with_protection(true, SwapKind::ExactInput(7_777_777), None, 0, u128::MAX)
            .unwrap();
        let state = e.export_state();
        let rebuilt = CpEngine::from_state(state.clone()).unwrap();
        assert_eq!(rebuilt, e);
        assert_eq!(rebuilt.export_state(), state);
    }
}
