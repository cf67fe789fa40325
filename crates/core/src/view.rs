//! Epoch-sealed quote views: the node's concurrent read path.
//!
//! A production AMM node answers orders of magnitude more price-quote /
//! simulate-swap queries than it executes trades. This module gives the
//! sidechain that read path without ever letting a reader near the write
//! path: when an epoch seals, [`crate::EpochProcessor::publish_view`]
//! publishes an immutable, [`Arc`]-shared [`QuoteView`] over every pool's
//! sealed state. Readers — on any number of threads — serve
//! [`QuoteView::quote_swap`], [`QuoteView::simulate_route`] and
//! [`QuoteView::value_position`] from it while the node executes the
//! *next* epoch against the live pools.
//!
//! The lifecycle is seal → publish → invalidate:
//!
//! 1. **Seal.** An epoch's last batch commits; the pools now hold the
//!    epoch-N state and nothing mutates them until epoch N+1 begins.
//! 2. **Publish.** `publish_view(N)` snapshots each pool behind an `Arc`
//!    and caches it beside the pool. Only the pools epoch N actually
//!    touched are re-cloned; every clean pool's `Arc` is reused from the
//!    previous view.
//! 3. **Invalidate.** Epoch N+1's writes drop the cached `Arc` of the
//!    pools they touch (at exactly the points that mark a pool dirty for
//!    the checkpointer); the next publication re-clones exactly those. Old
//!    views stay alive for as long as any reader holds the `Arc` —
//!    readers are never blocked and never observe a partially-executed
//!    epoch.
//!
//! In a run, [`crate::Node::serve_quotes`] hands each round's generated
//! quote traffic, with the view current when the round began, to one
//! dedicated reader thread that answers it while the main thread executes
//! that round; `SystemReport::{quotes_served, quotes_failed}` are its
//! counts, joined before [`crate::System::run`] returns.
//!
//! Quotes are **bit-identical** to execution by construction: the view
//! calls the same staged compute ([`Engine::quote_swap`]) that the write
//! path commits — whatever engine kind the pool runs.

use ammboost_amm::engines::Engine;
use ammboost_amm::pool::{PositionValuation, SwapKind, SwapResult};
use ammboost_amm::tx::{RouteError, RouteTx};
use ammboost_amm::types::{Amount, PoolId, PositionId};
use ammboost_amm::AmmError;
use ammboost_crypto::U256;
use std::fmt;
use std::sync::Arc;

/// Why a read-path query could not be answered.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QuoteError {
    /// The queried pool is not in the view.
    UnknownPool(PoolId),
    /// The route's shape is invalid ([`RouteTx::validate`]).
    Route(RouteError),
    /// The underlying AMM computation failed (exactly as execution would).
    Amm(AmmError),
}

impl fmt::Display for QuoteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuoteError::UnknownPool(id) => write!(f, "unknown pool {id:?}"),
            QuoteError::Route(e) => write!(f, "invalid route: {e}"),
            QuoteError::Amm(e) => write!(f, "amm: {e}"),
        }
    }
}

impl std::error::Error for QuoteError {}

impl From<AmmError> for QuoteError {
    fn from(e: AmmError) -> QuoteError {
        QuoteError::Amm(e)
    }
}

impl From<RouteError> for QuoteError {
    fn from(e: RouteError) -> QuoteError {
        QuoteError::Route(e)
    }
}

/// A simulated multi-hop route: the realized totals plus every per-hop
/// swap result, in execution order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RouteQuote {
    /// Input paid on the first hop, fee inclusive.
    pub amount_in: Amount,
    /// Output of the final hop.
    pub amount_out: Amount,
    /// Per-hop swap results, in hop order.
    pub hops: Vec<SwapResult>,
}

/// Statistics from one [`crate::EpochProcessor::publish_view`] call:
/// how many per-pool views the epoch's dirty tracking let us reuse.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ViewPublishStats {
    /// Pools whose cached `Arc` was reused (untouched since last publish).
    pub reused: usize,
    /// Pools re-cloned because the sealed epoch mutated them.
    pub recloned: usize,
}

/// An immutable, epoch-tagged snapshot of every pool's sealed state,
/// cheaply shared across reader threads via [`Arc`]. See the module docs
/// for the seal/publish/invalidate lifecycle.
#[derive(Clone, Debug)]
pub struct QuoteView {
    epoch: u64,
    /// Per-pool sealed engine state, ascending by pool id.
    pools: Vec<Arc<Engine>>,
    /// Strictly ascending, aligned with `pools`: [`QuoteView::pool`]
    /// binary-searches it.
    pool_ids: Vec<PoolId>,
}

impl QuoteView {
    /// Assembles a view over sealed per-pool states. `entries` must be in
    /// strictly ascending pool-id order (the processor's order); callers
    /// outside [`crate::EpochProcessor::publish_view`] are typically
    /// tests.
    ///
    /// # Panics
    /// If the pool ids are not strictly ascending (unsorted or repeated).
    pub fn new(epoch: u64, entries: Vec<(PoolId, Arc<Engine>)>) -> QuoteView {
        let (pool_ids, pools): (Vec<PoolId>, Vec<Arc<Engine>>) = entries.into_iter().unzip();
        assert!(
            pool_ids.windows(2).all(|w| w[0] < w[1]),
            "quote view pool ids must be strictly ascending: {pool_ids:?}"
        );
        QuoteView {
            epoch,
            pools,
            pool_ids,
        }
    }

    /// The epoch whose sealed state this view serves.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of pools in the view.
    pub fn pool_count(&self) -> usize {
        self.pools.len()
    }

    /// The pool ids covered, ascending.
    pub fn pool_ids(&self) -> &[PoolId] {
        &self.pool_ids
    }

    /// The sealed state of one pool, if covered. The returned `Arc` may
    /// be cloned out and read from any thread.
    pub fn pool(&self, id: PoolId) -> Option<&Arc<Engine>> {
        self.pool_ids
            .binary_search(&id)
            .ok()
            .map(|i| &self.pools[i])
    }

    /// Quotes a swap against the sealed epoch state — the exact
    /// [`SwapResult`] executing it on this state would produce.
    ///
    /// # Errors
    /// [`QuoteError::UnknownPool`] on an uncovered pool, otherwise
    /// exactly the errors execution would raise.
    pub fn quote_swap(
        &self,
        pool: PoolId,
        zero_for_one: bool,
        kind: SwapKind,
        sqrt_price_limit: Option<U256>,
    ) -> Result<SwapResult, QuoteError> {
        let p = self.pool(pool).ok_or(QuoteError::UnknownPool(pool))?;
        Ok(p.quote_swap(zero_for_one, kind, sqrt_price_limit)?)
    }

    /// Simulates a multi-hop route against the sealed epoch state:
    /// validates the route's shape, then chains exact-input quotes hop by
    /// hop (each hop's input is the previous hop's output), enforcing the
    /// route's `min_amount_out` on the final hop — mirroring how the
    /// two-phase epoch executes route legs. Route pools are distinct by
    /// validation, so the chained quotes equal executing the route alone
    /// on this sealed state.
    ///
    /// # Errors
    /// [`QuoteError::Route`] on an invalid shape,
    /// [`QuoteError::UnknownPool`] on an uncovered hop pool, and the AMM
    /// errors leg execution would raise (including the final-hop slippage
    /// check).
    pub fn simulate_route(&self, route: &RouteTx) -> Result<RouteQuote, QuoteError> {
        route.validate()?;
        let mut hops = Vec::with_capacity(route.hops.len());
        let mut amount = route.amount_in;
        let mut amount_in = 0;
        let last = route.hops.len() - 1;
        for (i, hop) in route.hops.iter().enumerate() {
            let p = self
                .pool(hop.pool)
                .ok_or(QuoteError::UnknownPool(hop.pool))?;
            let min_out = if i == last { route.min_amount_out } else { 0 };
            let result = p.quote_swap_with_protection(
                hop.zero_for_one,
                SwapKind::ExactInput(amount),
                None,
                min_out,
                Amount::MAX,
            )?;
            if i == 0 {
                amount_in = result.amount_in;
            }
            amount = result.amount_out;
            hops.push(result);
        }
        Ok(RouteQuote {
            amount_in,
            amount_out: amount,
            hops,
        })
    }

    /// Values a position against the sealed epoch state (principal at the
    /// sealed price plus owed tokens).
    ///
    /// # Errors
    /// [`QuoteError::UnknownPool`] on an uncovered pool, or the AMM's
    /// position-not-found error.
    pub fn value_position(
        &self,
        pool: PoolId,
        id: &PositionId,
    ) -> Result<PositionValuation, QuoteError> {
        let p = self.pool(pool).ok_or(QuoteError::UnknownPool(pool))?;
        Ok(p.value_position(id)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ammboost_amm::engines::EngineKind;

    fn entries(ids: &[u32]) -> Vec<(PoolId, Arc<Engine>)> {
        ids.iter()
            .map(|&id| {
                let engine = Engine::new_standard(EngineKind::ConstantProduct);
                (PoolId(id), Arc::new(engine))
            })
            .collect()
    }

    #[test]
    fn every_covered_pool_is_found_and_a_missing_one_is_rejected() {
        let ids = [0, 3, 4, 9, 17];
        let view = QuoteView::new(1, entries(&ids));
        for (i, id) in ids.iter().enumerate() {
            let found = view.pool(PoolId(*id)).expect("covered pool");
            assert!(Arc::ptr_eq(found, &view.pools[i]), "pool {id}");
        }
        for missing in [1, 5, 16, 18, u32::MAX] {
            let id = PoolId(missing);
            assert!(view.pool(id).is_none(), "pool {missing}");
            let quote = view.quote_swap(id, true, SwapKind::ExactInput(1_000), None);
            assert!(matches!(quote, Err(QuoteError::UnknownPool(p)) if p == id));
        }
        assert!(QuoteView::new(1, Vec::new()).pool(PoolId(0)).is_none());
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_pool_ids_are_refused() {
        QuoteView::new(1, entries(&[0, 2, 1]));
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn repeated_pool_ids_are_refused() {
        QuoteView::new(1, entries(&[0, 1, 1, 2]));
    }
}
