//! Proportional LP-share bookkeeping shared by the reserve-based engines
//! (constant-product and weighted). Positions are full-range by
//! construction: a position holds `shares` of the pool's total share
//! supply, joins deposit both tokens pro-rata, exits withdraw pro-rata,
//! and accrued swap fees stay inside the reserves (so share value grows
//! in place — the V2/Balancer fee model, unlike the CL engine's
//! per-position fee-growth accounting).

use super::bmath::{mul_add_div_u128, rounded_down, rounded_up};
use crate::error::AmmError;
use crate::types::{Amount, AmountPair, PositionId};
use ammboost_crypto::{Address, U256};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One full-range LP position: a share claim plus tokens owed from exits
/// that have not been collected yet.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SharePosition {
    /// The position owner.
    pub owner: Address,
    /// Shares of the pool's total supply.
    pub shares: u128,
    /// Token0 owed from exits, awaiting collection.
    pub owed0: Amount,
    /// Token1 owed from exits, awaiting collection.
    pub owed1: Amount,
}

/// `floor(a * b / d)` over u128 via the 256-bit kernel.
pub(crate) fn mul_div_u128(a: u128, b: u128, d: u128) -> Result<u128, AmmError> {
    if d == 0 {
        return Err(AmmError::ZeroLiquidity);
    }
    rounded_down(mul_add_div_u128(a, b, 0, d))
}

/// `ceil(a * b / d)` over u128 via the 256-bit kernel.
pub(crate) fn mul_div_ceil_u128(a: u128, b: u128, d: u128) -> Result<u128, AmmError> {
    if d == 0 {
        return Err(AmmError::ZeroLiquidity);
    }
    rounded_up(mul_add_div_u128(a, b, 0, d))
}

/// Integer square root of `a * b` (exact floor), used for the initial
/// share issue `sqrt(amount0 * amount1)` — the geometric mean keeps the
/// first LP's share count independent of the price level.
pub(crate) fn geometric_shares(a: u128, b: u128) -> u128 {
    U256::from_u128(a)
        .full_mul(U256::from_u128(b))
        .isqrt()
        .to_u128()
        .expect("isqrt of a 256-bit product fits 128 bits")
}

/// The share ledger of a reserve-based engine.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShareBook {
    positions: BTreeMap<PositionId, SharePosition>,
    total_shares: u128,
}

impl ShareBook {
    /// An empty book.
    pub fn new() -> ShareBook {
        ShareBook::default()
    }

    /// Total outstanding shares.
    pub fn total_shares(&self) -> u128 {
        self.total_shares
    }

    /// Looks up a position.
    pub fn position(&self, id: &PositionId) -> Option<&SharePosition> {
        self.positions.get(id)
    }

    /// All positions, ascending by id.
    pub fn iter(&self) -> impl Iterator<Item = (&PositionId, &SharePosition)> {
        self.positions.iter()
    }

    /// Number of live positions.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the book holds no positions.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Quotes a proportional join against reserves `(r0, r1)`: the shares
    /// issued and the amounts actually taken (never more than desired).
    /// The first join issues `sqrt(a0·a1)` and takes the full budget;
    /// later joins issue `min(a0·S/r0, a1·S/r1)` (floor) and take the
    /// ceil-rounded pro-rata amounts, so the pool never under-collects.
    pub fn quote_join(
        &self,
        r0: Amount,
        r1: Amount,
        a0: Amount,
        a1: Amount,
    ) -> Result<(u128, AmountPair), AmmError> {
        if self.total_shares == 0 {
            let shares = geometric_shares(a0, a1);
            if shares == 0 {
                return Err(AmmError::ZeroLiquidity);
            }
            return Ok((shares, AmountPair::new(a0, a1)));
        }
        if r0 == 0 || r1 == 0 {
            // shares outstanding but a reserve drained to zero: the pool
            // cannot price a proportional join
            return Err(AmmError::InsufficientReserves);
        }
        let shares =
            mul_div_u128(a0, self.total_shares, r0)?.min(mul_div_u128(a1, self.total_shares, r1)?);
        if shares == 0 {
            return Err(AmmError::ZeroLiquidity);
        }
        let used0 = mul_div_ceil_u128(shares, r0, self.total_shares)?;
        let used1 = mul_div_ceil_u128(shares, r1, self.total_shares)?;
        debug_assert!(used0 <= a0 && used1 <= a1, "join cannot exceed budget");
        Ok((shares, AmountPair::new(used0, used1)))
    }

    /// Commits a join against reserves `(r0, r1)`: issues the quoted
    /// shares and adds the amounts taken to the reserves. Top-ups must
    /// come from the existing position's owner. Atomic: every sum is
    /// checked before the book or either reserve moves.
    pub fn join(
        &mut self,
        id: PositionId,
        owner: Address,
        r0: &mut Amount,
        r1: &mut Amount,
        a0: Amount,
        a1: Amount,
    ) -> Result<(u128, AmountPair), AmmError> {
        let held = match self.positions.get(&id) {
            Some(existing) if existing.owner != owner => {
                return Err(AmmError::NotPositionOwner(id));
            }
            Some(existing) => existing.shares,
            None => 0,
        };
        let (shares, used) = self.quote_join(*r0, *r1, a0, a1)?;
        let sum = |x: u128, y: u128| x.checked_add(y).ok_or(AmmError::BalanceOverflow);
        let held = sum(held, shares)?;
        let total = sum(self.total_shares, shares)?;
        let new_r0 = sum(*r0, used.amount0)?;
        let new_r1 = sum(*r1, used.amount1)?;
        // ---- commit ----
        self.positions
            .entry(id)
            .or_insert(SharePosition {
                owner,
                shares: 0,
                owed0: 0,
                owed1: 0,
            })
            .shares = held;
        self.total_shares = total;
        (*r0, *r1) = (new_r0, new_r1);
        Ok((shares, used))
    }

    /// Exits `shares` from a position against reserves `(r0, r1)`: the
    /// pro-rata amounts (floor — the pool keeps the dust) move from the
    /// reserves into the position's owed balance; collection is separate,
    /// mirroring the CL engine's burn → collect flow. Atomic, like
    /// [`ShareBook::join`].
    pub fn exit(
        &mut self,
        id: PositionId,
        owner: Address,
        r0: &mut Amount,
        r1: &mut Amount,
        shares: u128,
    ) -> Result<AmountPair, AmmError> {
        let pos = self
            .positions
            .get_mut(&id)
            .ok_or(AmmError::PositionNotFound(id))?;
        if pos.owner != owner {
            return Err(AmmError::NotPositionOwner(id));
        }
        if shares == 0 {
            return Err(AmmError::ZeroLiquidity);
        }
        if shares > pos.shares {
            return Err(AmmError::InsufficientLiquidity {
                requested: shares,
                available: pos.shares,
            });
        }
        let out0 = mul_div_u128(shares, *r0, self.total_shares)?;
        let out1 = mul_div_u128(shares, *r1, self.total_shares)?;
        let owed0 = pos
            .owed0
            .checked_add(out0)
            .ok_or(AmmError::BalanceOverflow)?;
        let owed1 = pos
            .owed1
            .checked_add(out1)
            .ok_or(AmmError::BalanceOverflow)?;
        let new_r0 = r0.checked_sub(out0).ok_or(AmmError::PoolInsolvent)?;
        let new_r1 = r1.checked_sub(out1).ok_or(AmmError::PoolInsolvent)?;
        // ---- commit ----
        pos.shares -= shares;
        (pos.owed0, pos.owed1) = (owed0, owed1);
        self.total_shares -= shares;
        (*r0, *r1) = (new_r0, new_r1);
        Ok(AmountPair::new(out0, out1))
    }

    /// Collects up to the requested amounts of a position's owed tokens;
    /// a fully drained position (no shares, nothing owed) is removed.
    pub fn collect(
        &mut self,
        id: PositionId,
        owner: Address,
        amount0: Amount,
        amount1: Amount,
    ) -> Result<AmountPair, AmmError> {
        let pos = self
            .positions
            .get_mut(&id)
            .ok_or(AmmError::PositionNotFound(id))?;
        if pos.owner != owner {
            return Err(AmmError::NotPositionOwner(id));
        }
        let take0 = amount0.min(pos.owed0);
        let take1 = amount1.min(pos.owed1);
        pos.owed0 -= take0;
        pos.owed1 -= take1;
        if pos.shares == 0 && pos.owed0 == 0 && pos.owed1 == 0 {
            self.positions.remove(&id);
        }
        Ok(AmountPair::new(take0, take1))
    }

    /// Exports `(id, position)` entries ascending by id.
    pub fn to_sorted_entries(&self) -> Vec<(PositionId, SharePosition)> {
        self.positions.iter().map(|(id, p)| (*id, *p)).collect()
    }

    /// Rebuilds a book from sorted entries, recomputing the share total.
    ///
    /// # Errors
    /// [`AmmError::BalanceOverflow`] when the shares, or either owed
    /// token, sum past 128 bits — no pool can have produced such a book.
    pub fn from_entries(entries: Vec<(PositionId, SharePosition)>) -> Result<ShareBook, AmmError> {
        let mut sums = [0u128; 3];
        for (_, p) in &entries {
            for (sum, v) in sums.iter_mut().zip([p.shares, p.owed0, p.owed1]) {
                *sum = sum.checked_add(v).ok_or(AmmError::BalanceOverflow)?;
            }
        }
        Ok(ShareBook {
            positions: entries.into_iter().collect(),
            total_shares: sums[0],
        })
    }

    /// Sum of owed token amounts across all positions.
    pub fn owed_totals(&self) -> AmountPair {
        let mut owed0 = 0u128;
        let mut owed1 = 0u128;
        for p in self.positions.values() {
            owed0 += p.owed0;
            owed1 += p.owed1;
        }
        AmountPair::new(owed0, owed1)
    }
}
