//! The AMM transaction vocabulary shared by the mainchain baseline and the
//! ammBoost sidechain: swaps (exact in/out), mints, burns, collects —
//! together with the wire-size model calibrated to the paper's Uniswap
//! traffic analysis (Appendix D, Table VII).

use crate::types::{Amount, PoolId, PositionId, Tick};
use ammboost_crypto::keccak::{keccak256_x4, Keccak256};
use ammboost_crypto::{Address, H256, U256};
use serde::{Deserialize, Serialize};

/// Where the wire encoding is written: a `Vec<u8>` keeps the bytes, a
/// [`Keccak256`] absorbs them into its own (stack) rate buffer — an id
/// needs the digest, not the bytes. The method names are `Vec`'s, so the
/// encoder reads the same over either.
trait Sink {
    fn extend_from_slice(&mut self, bytes: &[u8]);
    fn push(&mut self, byte: u8) {
        self.extend_from_slice(&[byte]);
    }
}

impl Sink for Vec<u8> {
    fn extend_from_slice(&mut self, bytes: &[u8]) {
        Vec::extend_from_slice(self, bytes);
    }
}

impl Sink for Keccak256 {
    fn extend_from_slice(&mut self, bytes: &[u8]) {
        self.update(bytes);
    }
}

/// Exact-input vs exact-output trade intent with its slippage protection
/// (paper §IV-B, "Swaps").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SwapIntent {
    /// Trade exactly `amount_in` input tokens for as much output as
    /// possible, but at least `min_amount_out`.
    ExactInput {
        /// Input budget, fee inclusive.
        amount_in: Amount,
        /// Slippage floor on the output.
        min_amount_out: Amount,
    },
    /// Receive exactly `amount_out`, spending as little input as possible,
    /// but at most `max_amount_in`.
    ExactOutput {
        /// Desired output.
        amount_out: Amount,
        /// Slippage ceiling on the input.
        max_amount_in: Amount,
    },
}

/// A swap transaction.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SwapTx {
    /// The trading client (also the recipient of the output).
    pub user: Address,
    /// The target pool.
    pub pool: PoolId,
    /// `true` to sell token0 for token1.
    pub zero_for_one: bool,
    /// The trade intent and slippage protection.
    pub intent: SwapIntent,
    /// Optional worst-case sqrt price (Q64.96).
    pub sqrt_price_limit: Option<U256>,
    /// Round number after which the trade is void (paper: "deadline").
    pub deadline_round: u64,
}

/// A mint (liquidity-provision) transaction.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MintTx {
    /// The liquidity provider.
    pub user: Address,
    /// The target pool.
    pub pool: PoolId,
    /// Existing position to top up, or `None` to create a new one.
    pub position: Option<PositionId>,
    /// Lower price tick of the range.
    pub tick_lower: Tick,
    /// Upper price tick of the range.
    pub tick_upper: Tick,
    /// Token0 budget.
    pub amount0_desired: Amount,
    /// Token1 budget.
    pub amount1_desired: Amount,
    /// Per-user uniquifier so identical mints derive distinct position
    /// ids.
    pub nonce: u64,
}

impl MintTx {
    /// The position id a *new* mint creates: the hash of the mint
    /// transaction and the LP's identity (paper §IV-B "Mints"). Top-ups
    /// (`position: Some(..)`) keep their existing id.
    pub fn derived_position_id(&self) -> PositionId {
        if let Some(existing) = self.position {
            return existing;
        }
        let mut h = Keccak256::new();
        h.update(b"mint-position");
        self.encode(&mut h);
        h.update(self.user.as_bytes());
        PositionId(H256(h.finalize()))
    }

    /// The mint arm of the sidechain wire format.
    fn encode(&self, out: &mut impl Sink) {
        out.push(1);
        out.extend_from_slice(self.user.as_bytes());
        out.extend_from_slice(&self.pool.0.to_be_bytes());
        match self.position {
            Some(p) => {
                out.push(1);
                out.extend_from_slice(&p.0 .0);
            }
            None => out.push(0),
        }
        out.extend_from_slice(&self.tick_lower.to_be_bytes());
        out.extend_from_slice(&self.tick_upper.to_be_bytes());
        out.extend_from_slice(&self.amount0_desired.to_be_bytes());
        out.extend_from_slice(&self.amount1_desired.to_be_bytes());
        out.extend_from_slice(&self.nonce.to_be_bytes());
    }
}

/// A burn (liquidity-withdrawal) transaction.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BurnTx {
    /// The liquidity provider.
    pub user: Address,
    /// The target pool.
    pub pool: PoolId,
    /// The position to withdraw from.
    pub position: PositionId,
    /// Liquidity to burn; `None` burns everything (deleting the position).
    pub liquidity: Option<u128>,
}

/// Maximum hop count of a [`RouteTx`]. Bounds per-route work and keeps
/// the wire form small; real router traffic rarely exceeds 3–4 hops.
pub const MAX_ROUTE_HOPS: usize = 8;

/// One hop of a multi-pool route: the pool to trade on and the trade
/// direction. The output token of hop *k* must be the input token of hop
/// *k+1*, so directions alternate along a well-formed route.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RouteHop {
    /// The pool this hop trades on.
    pub pool: PoolId,
    /// `true` to sell token0 for token1 on this hop.
    pub zero_for_one: bool,
}

/// Why a route's shape is invalid. Shape validation is purely syntactic
/// (no pool state consulted) and typed so callers can assert on the
/// precise violation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouteError {
    /// Fewer than two hops — a one-hop route is a plain swap.
    TooFewHops,
    /// More than [`MAX_ROUTE_HOPS`] hops.
    TooManyHops {
        /// The offending hop count.
        got: usize,
    },
    /// A pool appears more than once in the hop list. Each pool may be
    /// visited at most once, which is what lets an epoch's wave schedule
    /// assign every route at most one leg per shard per wave.
    DuplicatePool(PoolId),
    /// Hop `hop` consumes a token the previous hop did not produce
    /// (directions along a route must alternate).
    BrokenChain {
        /// Index of the hop whose direction breaks the chain.
        hop: usize,
    },
    /// Zero input budget.
    ZeroInput,
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteError::TooFewHops => write!(f, "route needs at least two hops"),
            RouteError::TooManyHops { got } => {
                write!(f, "route has {got} hops, maximum is {MAX_ROUTE_HOPS}")
            }
            RouteError::DuplicatePool(p) => write!(f, "route visits {p} twice"),
            RouteError::BrokenChain { hop } => {
                write!(
                    f,
                    "hop {hop} consumes a token the previous hop did not produce"
                )
            }
            RouteError::ZeroInput => write!(f, "route with zero input"),
        }
    }
}

impl std::error::Error for RouteError {}

/// A multi-hop routed swap: an ordered list of swap hops through
/// *distinct* pools, chained exact-input (hop *k*'s output is hop
/// *k+1*'s input). The sidechain executes the hops inside one epoch and
/// settles only the **net** per-user token deltas — per-hop transfers
/// never reach the settlement layer individually.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RouteTx {
    /// The trading client (pays the input, receives the final output).
    pub user: Address,
    /// The hops, in execution order. Must satisfy [`RouteTx::validate`].
    pub hops: Vec<RouteHop>,
    /// Input budget on the first hop's input token, fee inclusive.
    pub amount_in: Amount,
    /// Slippage floor on the final hop's output.
    pub min_amount_out: Amount,
    /// Round number after which the route is void.
    pub deadline_round: u64,
}

impl RouteTx {
    /// The entry pool (first hop) — what [`AmmTx::pool`] reports for a
    /// route. Falls back to an impossible sentinel for the (invalid)
    /// empty-hop form so accessors never panic.
    pub fn entry_pool(&self) -> PoolId {
        self.hops
            .first()
            .map(|h| h.pool)
            .unwrap_or(PoolId(u32::MAX))
    }

    /// `true` when the route's input is token0 (first hop sells token0).
    pub fn input_is_token0(&self) -> bool {
        self.hops.first().map(|h| h.zero_for_one).unwrap_or(true)
    }

    /// Validates the route's shape: 2..=[`MAX_ROUTE_HOPS`] hops, distinct
    /// pools, alternating directions, non-zero input.
    ///
    /// # Errors
    /// Returns the first violated rule as a typed [`RouteError`].
    pub fn validate(&self) -> Result<(), RouteError> {
        if self.hops.len() < 2 {
            return Err(RouteError::TooFewHops);
        }
        if self.hops.len() > MAX_ROUTE_HOPS {
            return Err(RouteError::TooManyHops {
                got: self.hops.len(),
            });
        }
        if self.amount_in == 0 {
            return Err(RouteError::ZeroInput);
        }
        for (i, hop) in self.hops.iter().enumerate() {
            if let Some(dup) = self.hops[..i].iter().find(|h| h.pool == hop.pool) {
                return Err(RouteError::DuplicatePool(dup.pool));
            }
            if i > 0 && hop.zero_for_one == self.hops[i - 1].zero_for_one {
                return Err(RouteError::BrokenChain { hop: i });
            }
        }
        Ok(())
    }
}

/// A collect (fee-withdrawal) transaction.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CollectTx {
    /// The liquidity provider.
    pub user: Address,
    /// The target pool.
    pub pool: PoolId,
    /// The position whose fees are collected.
    pub position: PositionId,
    /// Token0 fee amount requested (capped at what is owed).
    pub amount0: Amount,
    /// Token1 fee amount requested.
    pub amount1: Amount,
}

/// Any AMM transaction processed by the sidechain (flash loans stay on the
/// mainchain and are *not* part of this enum — paper §IV-B, "Flashes").
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum AmmTx {
    /// A trade.
    Swap(SwapTx),
    /// Liquidity provision.
    Mint(MintTx),
    /// Liquidity withdrawal.
    Burn(BurnTx),
    /// Fee collection.
    Collect(CollectTx),
    /// A multi-hop routed swap across distinct pools.
    Route(RouteTx),
}

/// Transaction-type discriminant (for traffic statistics).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AmmTxKind {
    /// Swap transactions.
    Swap,
    /// Mint transactions.
    Mint,
    /// Burn transactions.
    Burn,
    /// Collect transactions.
    Collect,
    /// Multi-hop routed swaps.
    Route,
}

impl AmmTxKind {
    /// The kind's lowercase name (`"swap"`, `"mint"`, …).
    pub const fn name(self) -> &'static str {
        match self {
            AmmTxKind::Swap => "swap",
            AmmTxKind::Mint => "mint",
            AmmTxKind::Burn => "burn",
            AmmTxKind::Collect => "collect",
            AmmTxKind::Route => "route",
        }
    }
}

impl AmmTx {
    /// The transaction kind.
    pub fn kind(&self) -> AmmTxKind {
        match self {
            AmmTx::Swap(_) => AmmTxKind::Swap,
            AmmTx::Mint(_) => AmmTxKind::Mint,
            AmmTx::Burn(_) => AmmTxKind::Burn,
            AmmTx::Collect(_) => AmmTxKind::Collect,
            AmmTx::Route(_) => AmmTxKind::Route,
        }
    }

    /// The issuing user.
    pub fn user(&self) -> Address {
        match self {
            AmmTx::Swap(t) => t.user,
            AmmTx::Mint(t) => t.user,
            AmmTx::Burn(t) => t.user,
            AmmTx::Collect(t) => t.user,
            AmmTx::Route(t) => t.user,
        }
    }

    /// The target pool. For a route this is the **entry pool** (first
    /// hop); the remaining hops are routed by the execution layer's wave
    /// schedule, not by this accessor.
    pub fn pool(&self) -> PoolId {
        match self {
            AmmTx::Swap(t) => t.pool,
            AmmTx::Mint(t) => t.pool,
            AmmTx::Burn(t) => t.pool,
            AmmTx::Collect(t) => t.pool,
            AmmTx::Route(t) => t.entry_pool(),
        }
    }

    /// A stable transaction id (hash of the serialized payload).
    pub fn tx_id(&self) -> H256 {
        // serde_json would be heavyweight; hash a compact manual encoding.
        let mut h = Keccak256::new();
        self.encode(&mut h);
        H256(h.finalize())
    }

    /// [`AmmTx::tx_id`] of the transaction `tx` finds in each of `items`,
    /// in order — the leaves of a block's transaction root. Four
    /// encodings share one reused buffer and one interleaved Keccak
    /// permutation (every well-formed encoding is 58–106 bytes, a single
    /// rate block); the < 4 remainder goes through `tx_id`. Ids are
    /// bit-identical to per-element `tx_id` calls.
    pub fn ids_of<T>(items: &[T], tx: impl Fn(&T) -> &AmmTx) -> Vec<H256> {
        let mut ids = Vec::with_capacity(items.len());
        let mut buf = Vec::with_capacity(4 * 128);
        let mut quads = items.chunks_exact(4);
        for quad in &mut quads {
            buf.clear();
            let mut ends = [0usize; 4];
            for (end, item) in ends.iter_mut().zip(quad) {
                tx(item).encode_into(&mut buf);
                *end = buf.len();
            }
            let [a, b, c, _] = ends;
            ids.extend(keccak256_x4([&buf[..a], &buf[a..b], &buf[b..c], &buf[c..]]).map(H256));
        }
        ids.extend(quads.remainder().iter().map(|item| tx(item).tx_id()));
        ids
    }

    /// Compact binary encoding — the *sidechain wire format*. Field-packed
    /// with no ABI padding, which is why sidechain entries are several times
    /// smaller than their mainchain counterparts (paper Table IV).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        self.encode(out);
    }

    fn encode(&self, out: &mut impl Sink) {
        match self {
            AmmTx::Swap(t) => {
                out.push(0);
                out.extend_from_slice(t.user.as_bytes());
                out.extend_from_slice(&t.pool.0.to_be_bytes());
                out.push(t.zero_for_one as u8);
                match t.intent {
                    SwapIntent::ExactInput {
                        amount_in,
                        min_amount_out,
                    } => {
                        out.push(0);
                        out.extend_from_slice(&amount_in.to_be_bytes());
                        out.extend_from_slice(&min_amount_out.to_be_bytes());
                    }
                    SwapIntent::ExactOutput {
                        amount_out,
                        max_amount_in,
                    } => {
                        out.push(1);
                        out.extend_from_slice(&amount_out.to_be_bytes());
                        out.extend_from_slice(&max_amount_in.to_be_bytes());
                    }
                }
                match t.sqrt_price_limit {
                    Some(p) => {
                        out.push(1);
                        out.extend_from_slice(&p.to_be_bytes());
                    }
                    None => out.push(0),
                }
                out.extend_from_slice(&t.deadline_round.to_be_bytes());
            }
            AmmTx::Mint(t) => t.encode(out),
            AmmTx::Burn(t) => {
                out.push(2);
                out.extend_from_slice(t.user.as_bytes());
                out.extend_from_slice(&t.pool.0.to_be_bytes());
                out.extend_from_slice(&t.position.0 .0);
                match t.liquidity {
                    Some(l) => {
                        out.push(1);
                        out.extend_from_slice(&l.to_be_bytes());
                    }
                    None => out.push(0),
                }
            }
            AmmTx::Collect(t) => {
                out.push(3);
                out.extend_from_slice(t.user.as_bytes());
                out.extend_from_slice(&t.pool.0.to_be_bytes());
                out.extend_from_slice(&t.position.0 .0);
                out.extend_from_slice(&t.amount0.to_be_bytes());
                out.extend_from_slice(&t.amount1.to_be_bytes());
            }
            AmmTx::Route(t) => {
                out.push(4);
                out.extend_from_slice(t.user.as_bytes());
                out.push(t.hops.len() as u8);
                for hop in &t.hops {
                    out.extend_from_slice(&hop.pool.0.to_be_bytes());
                    out.push(hop.zero_for_one as u8);
                }
                out.extend_from_slice(&t.amount_in.to_be_bytes());
                out.extend_from_slice(&t.min_amount_out.to_be_bytes());
                out.extend_from_slice(&t.deadline_round.to_be_bytes());
            }
        }
    }

    /// The transaction's size in bytes **as observed on Ethereum mainnet**
    /// (paper Table VII: swap 1007.83 B, mint 814.49 B, burn 907.07 B,
    /// collect 921.80 B). Used when modelling baseline chain growth for
    /// production Ethereum.
    pub fn mainnet_size_bytes(&self) -> usize {
        match self {
            AmmTx::Swap(_) => 1008,
            AmmTx::Mint(_) => 814,
            AmmTx::Burn(_) => 907,
            AmmTx::Collect(_) => 922,
            // Routed swaps are not a Table VII row; modelled as a swap
            // plus one path element (pool id + fee tier + direction,
            // ABI-padded) per additional hop, as the universal router's
            // multi-hop `path` calldata grows.
            AmmTx::Route(t) => 1008 + 32 * t.hops.len().saturating_sub(1),
        }
    }

    /// The transaction's size in bytes as observed on **Sepolia** (paper
    /// Table IV: 365.27 / 565.55 / 280.21 / 150.18 B — smaller because the
    /// testnet deploys the simple router without the universal router).
    pub fn sepolia_size_bytes(&self) -> usize {
        match self {
            AmmTx::Swap(_) => 365,
            AmmTx::Mint(_) => 566,
            AmmTx::Burn(_) => 280,
            AmmTx::Collect(_) => 150,
            // simple-router multi-hop path: 23 B per extra path element
            AmmTx::Route(t) => 365 + 23 * t.hops.len().saturating_sub(1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_swap() -> AmmTx {
        AmmTx::Swap(SwapTx {
            user: Address::from_index(1),
            pool: PoolId(0),
            zero_for_one: true,
            intent: SwapIntent::ExactInput {
                amount_in: 1000,
                min_amount_out: 900,
            },
            sqrt_price_limit: None,
            deadline_round: 77,
        })
    }

    #[test]
    fn tx_ids_are_stable_and_distinct() {
        let a = sample_swap();
        assert_eq!(a.tx_id(), a.tx_id());
        let mut b = sample_swap();
        if let AmmTx::Swap(s) = &mut b {
            s.deadline_round = 78;
        }
        assert_ne!(a.tx_id(), b.tx_id());
    }

    fn sample_mint(position: Option<PositionId>) -> MintTx {
        MintTx {
            user: Address::from_index(3),
            pool: PoolId(2),
            position,
            tick_lower: -120,
            tick_upper: 180,
            amount0_desired: 5_000,
            amount1_desired: u128::MAX,
            nonce: 9,
        }
    }

    #[test]
    fn streamed_ids_equal_the_hash_of_the_wire_bytes() {
        let route = AmmTx::Route(sample_route(&[(2, false), (7, true), (3, false)]));
        let mint = AmmTx::Mint(sample_mint(Some(PositionId::derive(&[b"p"]))));
        for tx in [sample_swap(), mint, route] {
            let mut wire = Vec::new();
            tx.encode_into(&mut wire);
            assert_eq!(tx.tx_id(), H256::hash(&wire));
        }
        // a new mint's position id: the tag, the wire bytes, the LP
        let mint = sample_mint(None);
        let mut wire = Vec::new();
        AmmTx::Mint(mint.clone()).encode_into(&mut wire);
        assert_eq!(
            mint.derived_position_id(),
            PositionId::derive(&[b"mint-position", &wire, mint.user.as_bytes()])
        );
        // a top-up keeps the id it names
        let existing = PositionId::derive(&[b"p"]);
        assert_eq!(sample_mint(Some(existing)).derived_position_id(), existing);
    }

    #[test]
    fn ids_of_a_slice_match_tx_id_for_every_remainder() {
        // a long route spills past one Keccak rate block
        let long: Vec<(u32, bool)> = (0..40).map(|i| (i, i % 2 == 0)).collect();
        let pool = [
            sample_swap(),
            AmmTx::Mint(sample_mint(None)),
            AmmTx::Route(sample_route(&long)),
            AmmTx::Route(sample_route(&[(0, true), (1, false)])),
            AmmTx::Mint(sample_mint(Some(PositionId::derive(&[b"p"])))),
        ];
        let txs: Vec<AmmTx> = pool.iter().cycle().take(11).cloned().collect();
        for n in 0..=txs.len() {
            let want: Vec<H256> = txs[..n].iter().map(AmmTx::tx_id).collect();
            assert_eq!(AmmTx::ids_of(&txs[..n], |tx| tx), want, "{n} transactions");
        }
    }

    #[test]
    fn kind_and_user_accessors() {
        let tx = sample_swap();
        assert_eq!(tx.kind(), AmmTxKind::Swap);
        assert_eq!(tx.user(), Address::from_index(1));
        assert_eq!(tx.pool(), PoolId(0));
    }

    #[test]
    fn size_models_match_paper_tables() {
        let swap = sample_swap();
        assert_eq!(swap.mainnet_size_bytes(), 1008);
        assert_eq!(swap.sepolia_size_bytes(), 365);
        let burn = AmmTx::Burn(BurnTx {
            user: Address::from_index(2),
            pool: PoolId(0),
            position: PositionId::derive(&[b"p"]),
            liquidity: None,
        });
        assert_eq!(burn.mainnet_size_bytes(), 907);
        assert_eq!(burn.sepolia_size_bytes(), 280);
    }

    #[test]
    fn compact_encoding_is_much_smaller_than_abi_sizes() {
        let tx = sample_swap();
        let mut buf = Vec::new();
        tx.encode_into(&mut buf);
        assert!(buf.len() < 120, "compact swap is {} bytes", buf.len());
    }

    fn sample_route(hops: &[(u32, bool)]) -> RouteTx {
        RouteTx {
            user: Address::from_index(5),
            hops: hops
                .iter()
                .map(|&(p, d)| RouteHop {
                    pool: PoolId(p),
                    zero_for_one: d,
                })
                .collect(),
            amount_in: 10_000,
            min_amount_out: 0,
            deadline_round: 99,
        }
    }

    #[test]
    fn route_shape_validation() {
        assert_eq!(sample_route(&[(0, true), (1, false)]).validate(), Ok(()));
        assert_eq!(
            sample_route(&[(0, true)]).validate(),
            Err(RouteError::TooFewHops)
        );
        assert_eq!(
            sample_route(&[(0, true), (1, false), (0, true)]).validate(),
            Err(RouteError::DuplicatePool(PoolId(0)))
        );
        assert_eq!(
            sample_route(&[(0, true), (1, true)]).validate(),
            Err(RouteError::BrokenChain { hop: 1 })
        );
        let mut zero = sample_route(&[(0, true), (1, false)]);
        zero.amount_in = 0;
        assert_eq!(zero.validate(), Err(RouteError::ZeroInput));
        let long: Vec<(u32, bool)> = (0..9).map(|i| (i, i % 2 == 0)).collect();
        assert_eq!(
            sample_route(&long).validate(),
            Err(RouteError::TooManyHops { got: 9 })
        );
    }

    #[test]
    fn route_accessors_and_encoding() {
        let tx = AmmTx::Route(sample_route(&[(2, false), (7, true), (3, false)]));
        assert_eq!(tx.kind(), AmmTxKind::Route);
        assert_eq!(tx.user(), Address::from_index(5));
        assert_eq!(tx.pool(), PoolId(2), "route pool is the entry pool");
        assert_eq!(tx.tx_id(), tx.tx_id());
        let mut other = sample_route(&[(2, false), (7, true), (3, false)]);
        other.amount_in += 1;
        assert_ne!(tx.tx_id(), AmmTx::Route(other).tx_id());
        // size grows with hop count
        let two = AmmTx::Route(sample_route(&[(0, true), (1, false)]));
        assert_eq!(two.mainnet_size_bytes(), 1008 + 32);
        assert_eq!(tx.mainnet_size_bytes(), 1008 + 64);
        assert_eq!(two.sepolia_size_bytes(), 365 + 23);
    }

    #[test]
    fn encoding_distinguishes_exact_input_and_output() {
        let a = sample_swap();
        let b = AmmTx::Swap(SwapTx {
            intent: SwapIntent::ExactOutput {
                amount_out: 1000,
                max_amount_in: 900,
            },
            ..match sample_swap() {
                AmmTx::Swap(s) => s,
                _ => unreachable!(),
            }
        });
        assert_ne!(a.tx_id(), b.tx_id());
    }
}
