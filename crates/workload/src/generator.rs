//! Deterministic traffic generation calibrated to the paper's setup
//! (§V "Traffic generation" and §VI-A): a configurable user population
//! issues swaps, mints, burns and collects at a constant arrival rate
//! `ρ = ⌈V_D · bt / 86400⌉` per sidechain round, following a configurable
//! mix (default: Table VII).
//!
//! Traffic can span a *set* of pools: each user has a home pool (fixed
//! round-robin assignment), per-transaction pool choice follows a
//! configurable skew ([`TrafficSkew`] — uniform, or Zipf-distributed as
//! real AMM fleets are), and every transaction a user issues targets
//! their home pool, so per-pool traffic streams are independent.

use crate::mix::TrafficMix;
use crate::uniswap2023;
use ammboost_amm::engines::EngineKind;
use ammboost_amm::tx::{
    AmmTx, BurnTx, CollectTx, MintTx, RouteHop, RouteTx, SwapIntent, SwapTx, MAX_ROUTE_HOPS,
};
use ammboost_amm::types::{PoolId, PositionId};
use ammboost_crypto::{Address, DigestMap};
use ammboost_sim::rng::DetRng;
use ammboost_sim::time::SimDuration;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// How generated mints fragment liquidity across ticks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum LiquidityStyle {
    /// The paper's setup: a modest number of wide ranges centred near the
    /// price (default).
    #[default]
    PaperSpread,
    /// Many narrow single-spacing ranges tiled across a wide band — a
    /// tick-dense pool in which swaps cross initialized ticks constantly
    /// (the regime-switching rebalancing pattern of impulse-control LPs).
    /// This is the workload that makes next-tick lookup the hot path.
    Fragmented,
}

/// How per-transaction traffic distributes across the configured pool
/// set.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub enum TrafficSkew {
    /// Every pool receives the same expected share (default).
    #[default]
    Uniform,
    /// Pool `k` (by position in the pool set) receives a share
    /// proportional to `1 / (k+1)^exponent` — the skewed popularity
    /// profile real AMM deployments exhibit, where a few pools carry most
    /// of the volume.
    Zipf {
        /// The Zipf exponent `s` (1.0 is the classic rank-frequency law).
        exponent: f64,
    },
}

impl TrafficSkew {
    /// The (unnormalized) per-pool weights for a pool set of size `n`.
    pub fn weights(&self, n: usize) -> Vec<f64> {
        match self {
            TrafficSkew::Uniform => vec![1.0; n],
            TrafficSkew::Zipf { exponent } => (0..n)
                .map(|k| 1.0 / ((k + 1) as f64).powf(*exponent))
                .collect(),
        }
    }
}

/// How a fleet's pool set splits across AMM engine implementations: a
/// repeating pattern of `cl` concentrated-liquidity pools, then
/// `constant_product` V2-style pools, then `weighted` Balancer-style
/// pools, assigned by pool *index*. Pool popularity (the
/// [`TrafficSkew`]) is drawn independently of engine kind, so a Zipf
/// head can land on any engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineMix {
    /// Concentrated-liquidity pools per pattern repetition.
    pub cl: u32,
    /// Constant-product pools per pattern repetition.
    pub constant_product: u32,
    /// Weighted (80/20) pools per pattern repetition.
    pub weighted: u32,
}

impl Default for EngineMix {
    fn default() -> Self {
        EngineMix::all_cl()
    }
}

impl EngineMix {
    /// Every pool runs the concentrated-liquidity engine (the paper's
    /// setup; the default).
    fn all_cl() -> EngineMix {
        EngineMix {
            cl: 1,
            constant_product: 0,
            weighted: 0,
        }
    }

    /// A mix with the given per-pattern pool counts.
    pub fn of(cl: u32, constant_product: u32, weighted: u32) -> EngineMix {
        EngineMix {
            cl,
            constant_product,
            weighted,
        }
    }

    /// The engine kind of pool index `i`: indices walk the repeating
    /// `[cl × CL, constant_product × CP, weighted × W]` pattern, so any
    /// fleet size gets a deterministic, evenly interleaved assignment.
    /// An all-zero mix degenerates to concentrated liquidity.
    fn engine_for(&self, i: u32) -> EngineKind {
        let period = self.cl + self.constant_product + self.weighted;
        if period == 0 {
            return EngineKind::ConcentratedLiquidity;
        }
        let slot = i % period;
        if slot < self.cl {
            EngineKind::ConcentratedLiquidity
        } else if slot < self.cl + self.constant_product {
            EngineKind::ConstantProduct
        } else {
            EngineKind::Weighted
        }
    }

    /// Assigns an engine kind to every pool of a fleet, by position in
    /// the pool set — the shape [`ShardMap::new_with_engines`] takes.
    ///
    /// [`ShardMap::new_with_engines`]: https://docs.rs/ammboost-core
    pub fn engines(&self, pools: &[PoolId]) -> Vec<(PoolId, EngineKind)> {
        pools
            .iter()
            .enumerate()
            .map(|(i, &p)| (p, self.engine_for(i as u32)))
            .collect()
    }
}

/// How routed (multi-hop) traffic is generated: which share of the swap
/// flow routes through several pools, and the hop-count distribution.
/// Routes are always constrained to the configured pool set, visit
/// distinct pools, and chain directions (hop *k*'s output token is hop
/// *k+1*'s input token).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RouteStyle {
    /// Fraction of generated *swaps* upgraded to multi-hop routes
    /// (0.0 = the paper's single-pool traffic, the default). Routes need
    /// at least two pools; with a single-pool set the share is ignored.
    pub routed_share: f64,
    /// Minimum hops per route (clamped to ≥ 2).
    pub min_hops: usize,
    /// Maximum hops per route (clamped to the pool count and
    /// [`MAX_ROUTE_HOPS`]); hop counts draw uniformly from
    /// `min_hops..=max_hops`.
    pub max_hops: usize,
}

impl Default for RouteStyle {
    fn default() -> Self {
        RouteStyle {
            routed_share: 0.0,
            min_hops: 2,
            max_hops: 3,
        }
    }
}

impl RouteStyle {
    /// A routed-traffic profile: `share` of swaps become 2..=`max_hops`
    /// routes.
    pub fn routed(share: f64, max_hops: usize) -> RouteStyle {
        RouteStyle {
            routed_share: share,
            min_hops: 2,
            max_hops,
        }
    }

    /// `true` when this style can emit routes over `pool_count` pools.
    pub fn active(&self, pool_count: usize) -> bool {
        self.routed_share > 0.0 && pool_count >= 2
    }
}

/// How much read (quote) traffic rides along with the write stream: a
/// production AMM node answers many price-quote / simulate / valuation
/// queries per executed trade, and this knob models that ratio. Quote
/// requests draw from an RNG stream *independent* of the transaction
/// stream, so enabling quotes leaves the executed traffic bit-identical.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct QuoteStyle {
    /// Average quote queries issued per executed transaction
    /// (0.0 = none, the default — the paper's write-only workloads).
    pub quotes_per_tx: f64,
}

impl Default for QuoteStyle {
    fn default() -> Self {
        QuoteStyle { quotes_per_tx: 0.0 }
    }
}

impl QuoteStyle {
    /// A read-heavy profile issuing `n` quotes per executed transaction.
    pub fn per_tx(n: f64) -> QuoteStyle {
        QuoteStyle { quotes_per_tx: n }
    }

    /// `true` when this style emits any quote traffic.
    pub fn active(&self) -> bool {
        self.quotes_per_tx > 0.0
    }
}

/// One read-path query, answered from the current sealed epoch view
/// without touching the write path.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum QuoteRequest {
    /// Price a single exact-input swap.
    Swap {
        /// The pool to quote on.
        pool: PoolId,
        /// `true` to sell token0 for token1.
        zero_for_one: bool,
        /// Input budget, fee inclusive.
        amount_in: u128,
    },
    /// Simulate a multi-hop route (distinct pools, alternating
    /// directions, as [`RouteTx::validate`] requires).
    Route {
        /// The hops, in execution order.
        hops: Vec<RouteHop>,
        /// Input budget on the first hop.
        amount_in: u128,
    },
    /// Value a position (principal at the sealed price plus owed fees).
    Valuation {
        /// The pool holding the position.
        pool: PoolId,
        /// The position to value.
        position: PositionId,
    },
}

/// Generator configuration.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GeneratorConfig {
    /// Daily transaction volume `V_D` (paper default: 25 × 10⁶).
    pub daily_volume: u64,
    /// Traffic mix (default: Table VII).
    pub mix: TrafficMix,
    /// Number of simulated users (paper: 100). Must be at least the pool
    /// count so every pool has a user population.
    pub users: u64,
    /// Sidechain round duration `bt` (paper default: 7 s).
    pub round_duration: SimDuration,
    /// The pool set under test. User `i` is homed on
    /// `pools[i % pools.len()]` and only ever transacts there, so the
    /// per-pool traffic streams are independent (the property the
    /// sharded-vs-independent differential test relies on).
    pub pools: Vec<PoolId>,
    /// How per-transaction traffic distributes across the pool set.
    pub skew: TrafficSkew,
    /// Routed-traffic profile: share of swaps upgraded to multi-hop
    /// routes and the hop-count distribution (default: no routes).
    pub route_style: RouteStyle,
    /// Rounds after submission before a swap's deadline expires. Large by
    /// default so congested runs measure queueing latency rather than
    /// deadline drops (set small to exercise expiry).
    pub deadline_slack_rounds: u64,
    /// Maximum live positions per user; beyond it, mints top up existing
    /// positions instead of creating new ones. This keeps the position
    /// population bounded by the user count (as in the paper, where sync
    /// gas scales "with the number of clients and liquidity providers",
    /// not with traffic volume) and keeps sync transactions within the
    /// mainchain block gas limit.
    pub max_positions_per_user: usize,
    /// Mint range shape (default: the paper's spread).
    pub liquidity_style: LiquidityStyle,
    /// Read-traffic profile: quote queries per executed transaction
    /// (default: none).
    pub quote_style: QuoteStyle,
    /// How the pool set splits across engine implementations (default:
    /// all concentrated-liquidity, the paper's setup). Assignment is by
    /// pool index, independent of the popularity skew.
    pub engine_mix: EngineMix,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            daily_volume: 25_000_000,
            mix: TrafficMix::uniswap_2023(),
            users: 100,
            round_duration: SimDuration::from_secs(7),
            pools: vec![PoolId(0)],
            skew: TrafficSkew::default(),
            route_style: RouteStyle::default(),
            deadline_slack_rounds: 1_000_000,
            max_positions_per_user: 1,
            liquidity_style: LiquidityStyle::default(),
            quote_style: QuoteStyle::default(),
            engine_mix: EngineMix::default(),
            seed: 7,
        }
    }
}

/// A generated transaction with its wire size (Table VII averages).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct GeneratedTx {
    /// The transaction.
    pub tx: AmmTx,
    /// Its size in bytes as counted against block budgets.
    pub wire_size: usize,
    /// The issuer's population index: `tx.user()` is
    /// [`TrafficGenerator::user`]`(user)`.
    pub user: u32,
}

/// User `i`'s address is `Address::from_index(USER_INDEX_BASE + i)`.
const USER_INDEX_BASE: u64 = 0xA110_0000;

/// The deterministic traffic generator.
#[derive(Clone, Debug)]
pub struct TrafficGenerator {
    /// The configuration in force.
    pub config: GeneratorConfig,
    rng: DetRng,
    /// Independent stream for quote (read) traffic, so the executed
    /// transaction stream is bit-identical with quotes on or off.
    quote_rng: DetRng,
    nonces: Vec<u64>,
    /// Positions fed back from mints, with their owner's population
    /// index, indexed by pool so burns/collects draw from the right pool
    /// in O(1) without scanning the fleet. A position is tracked once;
    /// each vector keeps tracking order, which is what `pick_position`
    /// indexes into.
    positions: HashMap<PoolId, Vec<(u32, PositionId)>>,
    /// `owned[i]`: user `i`'s tracked positions (all on their home pool),
    /// in the order `positions` holds them — what a mint past the
    /// per-user cap tops up, without scanning the pool's vector for the
    /// owner.
    owned: Vec<Vec<PositionId>>,
    /// The pool each tracked position is on: `forget_position` goes to
    /// the one vector that holds it, and returns at once for a position
    /// already forgotten (the node feeds back every deleted position,
    /// most of which the generator dropped when it issued the burn).
    pool_of: DigestMap<PositionId, PoolId>,
    /// Cumulative, normalized pool-choice weights (one entry per pool).
    cumulative_weights: Vec<f64>,
    /// `users[i]` = [`TrafficGenerator::user_address`]`(i)`: one Keccak
    /// per user at construction, none per generated transaction.
    users: Vec<Address>,
    /// Reverse map address → user index (hence home pool), for
    /// [`TrafficGenerator::pool_for`].
    index_of: DigestMap<Address, u32>,
}

impl TrafficGenerator {
    /// Creates a generator.
    ///
    /// # Panics
    /// Panics when the pool set is empty or larger than the user
    /// population (every pool needs at least one user).
    pub fn new(config: GeneratorConfig) -> TrafficGenerator {
        assert!(!config.pools.is_empty(), "pool set must not be empty");
        assert!(
            config.users >= config.pools.len() as u64,
            "need at least one user per pool ({} users, {} pools)",
            config.users,
            config.pools.len()
        );
        let rng = DetRng::new(config.seed);
        let quote_rng = DetRng::new(config.seed ^ 0x5107_E57A_7E00_0001);
        let nonces = vec![0u64; config.users as usize];
        let weights = config.skew.weights(config.pools.len());
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cumulative_weights = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        let users = Address::from_index_range(USER_INDEX_BASE..USER_INDEX_BASE + config.users);
        let index_of = users.iter().zip(0..).map(|(user, i)| (*user, i)).collect();
        TrafficGenerator {
            config,
            rng,
            quote_rng,
            nonces,
            positions: HashMap::new(),
            owned: vec![Vec::new(); users.len()],
            pool_of: DigestMap::default(),
            cumulative_weights,
            users,
            index_of,
        }
    }

    /// The user population's addresses.
    pub fn users(&self) -> Vec<Address> {
        self.users.clone()
    }

    /// The address of population index `i` (a [`GeneratedTx::user`]).
    ///
    /// # Panics
    /// Panics when `i` is outside the population.
    pub fn user(&self, i: u32) -> Address {
        self.users[i as usize]
    }

    /// Deterministic address of simulated user `i`.
    pub fn user_address(i: u64) -> Address {
        Address::from_index(USER_INDEX_BASE + i)
    }

    /// The home pool of user index `i`.
    fn pool_of_index(&self, i: u64) -> PoolId {
        self.config.pools[(i % self.config.pools.len() as u64) as usize]
    }

    /// The home pool of a user address (`None` for addresses outside the
    /// simulated population). This is the deposit-routing map the system
    /// uses to split a TokenBank snapshot across shards.
    pub fn pool_for(&self, user: &Address) -> Option<PoolId> {
        let i = *self.index_of.get(user)?;
        Some(self.pool_of_index(u64::from(i)))
    }

    /// The configured fleet with engine kinds assigned: one
    /// `(PoolId, EngineKind)` entry per pool, in pool-set order.
    pub fn fleet(&self) -> Vec<(PoolId, EngineKind)> {
        self.config.engine_mix.engines(&self.config.pools)
    }

    /// The constant per-round arrival count
    /// `ρ = ⌈V_D · bt / (3600 · 24)⌉` (paper §VI-A).
    pub fn txs_per_round(&self) -> u64 {
        let bt = self.config.round_duration.as_secs_f64();
        ((self.config.daily_volume as f64 * bt) / 86_400.0).ceil() as u64
    }

    /// Number of positions currently known to the generator.
    #[cfg(test)]
    fn tracked_positions(&self) -> usize {
        self.pool_of.len()
    }

    /// Tracks a position population user `owner` minted on their home
    /// `pool`, so burns/collects can target it.
    fn register_position(&mut self, owner: u32, id: PositionId, pool: PoolId) {
        debug_assert_eq!(self.pool_of_index(u64::from(owner)), pool, "home pool");
        let known = self.pool_of.insert(id, pool);
        debug_assert!(known.is_none(), "position {id} registered twice");
        self.positions.entry(pool).or_default().push((owner, id));
        self.owned[owner as usize].push(id);
    }

    /// Removes a position (after a full burn); a no-op for one that is
    /// not tracked.
    pub fn forget_position(&mut self, id: PositionId) {
        let Some(pool) = self.pool_of.remove(&id) else {
            return;
        };
        let tracked = self
            .positions
            .get_mut(&pool)
            .expect("pool of a tracked position");
        let at = tracked.iter().position(|(_, p)| *p == id);
        // order-preserving removal: `pick_position` indexes by position
        let (owner, _) = tracked.remove(at.expect("tracked on its pool"));
        self.owned[owner as usize].retain(|p| *p != id);
    }

    /// Generates the transaction batch arriving during `round`.
    pub fn next_round(&mut self, round: u64) -> Vec<GeneratedTx> {
        let n = self.txs_per_round();
        let mut out = Vec::with_capacity(n as usize);
        for _ in 0..n {
            out.push(self.next_tx(round));
        }
        out
    }

    /// Generates one transaction with the configured mix, pool skew and
    /// routed-traffic share.
    pub fn next_tx(&mut self, round: u64) -> GeneratedTx {
        let pool_index = self.pick_pool();
        let weights = self.config.mix.weights();
        let kind = self.rng.weighted_index(&weights);
        match kind {
            0 => {
                if self.config.route_style.active(self.config.pools.len())
                    && self.rng.unit() < self.config.route_style.routed_share
                {
                    self.gen_route(round, pool_index)
                } else {
                    self.gen_swap(round, pool_index)
                }
            }
            1 => self.gen_mint(pool_index),
            2 => self.gen_burn(pool_index),
            _ => self.gen_collect(pool_index),
        }
    }

    /// Quote queries arriving alongside one round's transaction batch:
    /// `⌈quotes_per_tx · ρ⌉` read requests. Drawn from the independent
    /// quote RNG stream — calling (or not calling) this never perturbs
    /// the generated transaction sequence.
    pub fn next_quotes(&mut self) -> Vec<QuoteRequest> {
        if !self.config.quote_style.active() {
            return Vec::new();
        }
        let n = (self.config.quote_style.quotes_per_tx * self.txs_per_round() as f64).ceil() as u64;
        (0..n).map(|_| self.next_quote()).collect()
    }

    /// Generates one quote request: mostly single-swap price quotes, with
    /// route simulations mixed in when the pool set supports them and
    /// position valuations when any position is tracked.
    fn next_quote(&mut self) -> QuoteRequest {
        let pi = if self.config.pools.len() == 1 {
            0
        } else {
            let draw = self.quote_rng.unit();
            self.cumulative_weights
                .iter()
                .position(|&c| draw < c)
                .unwrap_or(self.config.pools.len() - 1)
        };
        let pool = self.config.pools[pi];
        let kind = self.quote_rng.unit();
        if kind < 0.10 && self.config.pools.len() >= 2 {
            return self.gen_quote_route(pi);
        }
        if kind < 0.20 {
            if let Some((_, position)) = self
                .positions
                .get(&pool)
                .and_then(|tracked| tracked.first())
            {
                return QuoteRequest::Valuation {
                    pool,
                    position: *position,
                };
            }
        }
        QuoteRequest::Swap {
            pool,
            zero_for_one: self.quote_rng.unit() < 0.5,
            amount_in: self.quote_rng.range_u128(1_000, 120_000),
        }
    }

    /// A route-simulation request: 2..=min(pools, MAX_ROUTE_HOPS) distinct
    /// pools starting at index `pi`, directions alternating (the shape
    /// [`RouteTx::validate`] accepts).
    fn gen_quote_route(&mut self, pi: usize) -> QuoteRequest {
        let pool_cap = self.config.pools.len().min(MAX_ROUTE_HOPS);
        let hop_count = 2 + self.quote_rng.range_u64(0, (pool_cap - 2) as u64 + 1) as usize;
        let mut remaining: Vec<usize> = (0..self.config.pools.len()).filter(|&p| p != pi).collect();
        let mut path = vec![pi];
        while path.len() < hop_count {
            let k = self.quote_rng.range_u64(0, remaining.len() as u64) as usize;
            path.push(remaining.swap_remove(k));
        }
        let mut zero_for_one = self.quote_rng.unit() < 0.5;
        let hops = path
            .into_iter()
            .map(|p| {
                let hop = RouteHop {
                    pool: self.config.pools[p],
                    zero_for_one,
                };
                zero_for_one = !zero_for_one;
                hop
            })
            .collect();
        QuoteRequest::Route {
            hops,
            amount_in: self.quote_rng.range_u128(1_000, 120_000),
        }
    }

    /// Draws a pool index following the configured skew. A single-pool
    /// set consumes no randomness.
    fn pick_pool(&mut self) -> usize {
        if self.config.pools.len() == 1 {
            return 0;
        }
        let draw = self.rng.unit();
        self.cumulative_weights
            .iter()
            .position(|&c| draw < c)
            .unwrap_or(self.config.pools.len() - 1)
    }

    /// Number of users homed on pool index `pi`.
    fn users_in_pool(&self, pi: usize) -> u64 {
        let p = self.config.pools.len() as u64;
        let users = self.config.users;
        // users pi, pi+P, pi+2P, … below `users`
        (users - pi as u64).div_ceil(p)
    }

    /// Picks a user homed on pool index `pi`: its population index and
    /// address.
    fn pick_user_in(&mut self, pi: usize) -> (u32, Address) {
        let p = self.config.pools.len() as u64;
        let k = self.rng.range_u64(0, self.users_in_pool(pi));
        let i = (pi as u64 + k * p) as u32;
        (i, self.users[i as usize])
    }

    fn gen_swap(&mut self, round: u64, pi: usize) -> GeneratedTx {
        let (ui, user) = self.pick_user_in(pi);
        let zero_for_one = self.rng.unit() < 0.5;
        let amount_in = self.rng.range_u128(1_000, 120_000);
        let exact_input = self.rng.unit() < 0.8;
        let intent = if exact_input {
            SwapIntent::ExactInput {
                amount_in,
                min_amount_out: 0,
            }
        } else {
            SwapIntent::ExactOutput {
                amount_out: amount_in * 9 / 10,
                max_amount_in: amount_in * 2,
            }
        };
        let tx = AmmTx::Swap(SwapTx {
            user,
            pool: self.config.pools[pi],
            zero_for_one,
            intent,
            sqrt_price_limit: None,
            deadline_round: round + self.config.deadline_slack_rounds,
        });
        self.wrap(tx, ui)
    }

    /// Generates a multi-hop route: entry on pool index `pi` (issued by a
    /// user homed there, so the deposit backing the route lives on the
    /// entry shard), continuing through distinct pools drawn uniformly
    /// from the rest of the configured set, directions alternating.
    fn gen_route(&mut self, round: u64, pi: usize) -> GeneratedTx {
        let (ui, user) = self.pick_user_in(pi);
        let style = self.config.route_style;
        let pool_cap = self.config.pools.len().min(MAX_ROUTE_HOPS);
        let min_hops = style.min_hops.max(2).min(pool_cap);
        let max_hops = style.max_hops.clamp(min_hops, pool_cap);
        let hop_count = min_hops as u64 + self.rng.range_u64(0, (max_hops - min_hops) as u64 + 1);
        // sample distinct pool indices: entry first, then draws from the
        // shrinking remainder
        let mut remaining: Vec<usize> = (0..self.config.pools.len()).filter(|&p| p != pi).collect();
        let mut path = vec![pi];
        while (path.len() as u64) < hop_count {
            let k = self.rng.range_u64(0, remaining.len() as u64) as usize;
            path.push(remaining.swap_remove(k));
        }
        let mut zero_for_one = self.rng.unit() < 0.5;
        let hops = path
            .into_iter()
            .map(|p| {
                let hop = RouteHop {
                    pool: self.config.pools[p],
                    zero_for_one,
                };
                zero_for_one = !zero_for_one;
                hop
            })
            .collect();
        let amount_in = self.rng.range_u128(1_000, 120_000);
        let tx = AmmTx::Route(RouteTx {
            user,
            hops,
            amount_in,
            min_amount_out: 0,
            deadline_round: round + self.config.deadline_slack_rounds,
        });
        self.wrap(tx, ui)
    }

    fn gen_mint(&mut self, pi: usize) -> GeneratedTx {
        let (ui, user) = self.pick_user_in(pi);
        let pool = self.config.pools[pi];
        // past the per-user cap, mints top up an existing position (a
        // user's positions all live on their home pool)
        let owned = self.owned[ui as usize].len();
        if owned >= self.config.max_positions_per_user {
            let pick = self.owned[ui as usize][self.rng.range_u64(0, owned as u64) as usize];
            self.nonces[ui as usize] += 1;
            let tx = MintTx {
                user,
                pool,
                position: Some(pick),
                // top-ups must match the existing range; the processor
                // looks it up by position id, so ticks here are advisory
                tick_lower: 0,
                tick_upper: 0,
                amount0_desired: self.rng.range_u128(100_000, 4_000_000),
                amount1_desired: self.rng.range_u128(100_000, 4_000_000),
                nonce: self.nonces[ui as usize],
            };
            return self.wrap(AmmTx::Mint(tx), ui);
        }
        let (tick_lower, tick_upper) = match self.config.liquidity_style {
            // ranges aligned to the standard 60-tick spacing, centred near
            // the current price region
            LiquidityStyle::PaperSpread => {
                let center = (self.rng.range_u64(0, 40) as i32 - 20) * 60;
                let half_width = (1 + self.rng.range_u64(0, 20) as i32) * 60;
                (center - half_width, center + half_width)
            }
            // one-spacing-wide rungs tiled over ±128 spacings: every mint
            // initializes (up to) two fresh ticks, so the pool's tick set
            // grows dense and swaps cross constantly
            LiquidityStyle::Fragmented => {
                let rung = self.rng.range_u64(0, 256) as i32 - 128;
                (rung * 60, (rung + 1) * 60)
            }
        };
        self.nonces[ui as usize] += 1;
        let tx = MintTx {
            user,
            pool,
            position: None,
            tick_lower,
            tick_upper,
            amount0_desired: self.rng.range_u128(100_000, 4_000_000),
            amount1_desired: self.rng.range_u128(100_000, 4_000_000),
            nonce: self.nonces[ui as usize],
        };
        // track the would-be position so later burns/collects can hit it
        self.register_position(ui, tx.derived_position_id(), pool);
        self.wrap(AmmTx::Mint(tx), ui)
    }

    fn gen_burn(&mut self, pi: usize) -> GeneratedTx {
        match self.pick_position(self.config.pools[pi]) {
            Some((owner, id)) => {
                let full = self.rng.unit() < 0.5;
                if full {
                    self.forget_position(id);
                }
                let tx = AmmTx::Burn(BurnTx {
                    user: self.user(owner),
                    pool: self.config.pools[pi],
                    position: id,
                    liquidity: if full { None } else { Some(1) },
                });
                self.wrap(tx, owner)
            }
            // no live position on this pool yet: fall back to a mint so
            // the mix keeps its liquidity-management share
            None => self.gen_mint(pi),
        }
    }

    fn gen_collect(&mut self, pi: usize) -> GeneratedTx {
        match self.pick_position(self.config.pools[pi]) {
            Some((owner, id)) => {
                let tx = AmmTx::Collect(CollectTx {
                    user: self.user(owner),
                    pool: self.config.pools[pi],
                    position: id,
                    amount0: u128::MAX,
                    amount1: u128::MAX,
                });
                self.wrap(tx, owner)
            }
            None => self.gen_mint(pi),
        }
    }

    /// Picks a tracked position on `pool` (burns/collects must reference
    /// positions of the pool the transaction targets), with its owner's
    /// population index.
    fn pick_position(&mut self, pool: PoolId) -> Option<(u32, PositionId)> {
        let tracked = self.positions.get(&pool)?;
        if tracked.is_empty() {
            return None;
        }
        let i = self.rng.range_u64(0, tracked.len() as u64) as usize;
        Some(tracked[i])
    }

    fn wrap(&self, tx: AmmTx, user: u32) -> GeneratedTx {
        let wire_size = match &tx {
            AmmTx::Route(r) => uniswap2023::route_size_for(r.hops.len()),
            _ => uniswap2023::size_for(tx.kind()),
        };
        GeneratedTx {
            tx,
            wire_size,
            user,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ammboost_amm::tx::AmmTxKind;
    use std::collections::{HashMap, HashSet};

    fn config(daily: u64, seed: u64) -> GeneratorConfig {
        GeneratorConfig {
            daily_volume: daily,
            seed,
            ..GeneratorConfig::default()
        }
    }

    fn pool_set(n: u32) -> Vec<PoolId> {
        (0..n).map(PoolId).collect()
    }

    #[test]
    fn rho_formula_matches_paper() {
        // V_D = 25M, bt = 7 s → ⌈2025.46⌉ = 2026
        let g = TrafficGenerator::new(config(25_000_000, 1));
        assert_eq!(g.txs_per_round(), 2026);
        // V_D = 50K → ⌈4.05⌉ = 5
        let g = TrafficGenerator::new(config(50_000, 1));
        assert_eq!(g.txs_per_round(), 5);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = TrafficGenerator::new(config(50_000, 9));
        let mut b = TrafficGenerator::new(config(50_000, 9));
        assert_eq!(a.next_round(0), b.next_round(0));
        let mut c = TrafficGenerator::new(config(50_000, 10));
        assert_ne!(a.next_round(1), c.next_round(1));
    }

    #[test]
    fn mix_fractions_respected() {
        let mut g = TrafficGenerator::new(config(1_000_000, 3));
        let mut counts = HashMap::new();
        for _ in 0..20_000 {
            let t = g.next_tx(0);
            *counts.entry(t.tx.kind()).or_insert(0usize) += 1;
        }
        let swaps = counts[&AmmTxKind::Swap] as f64 / 20_000.0;
        assert!((swaps - 0.9319).abs() < 0.01, "swap fraction {swaps}");
        assert!(counts[&AmmTxKind::Mint] > 0);
        // burns/collects appear once mints created positions
        assert!(counts.contains_key(&AmmTxKind::Burn));
        assert!(counts.contains_key(&AmmTxKind::Collect));
    }

    #[test]
    fn early_burns_fall_back_to_mints() {
        // force a burn with no positions: must produce a mint instead
        let mut g = TrafficGenerator::new(GeneratorConfig {
            mix: TrafficMix::from_tuple((0.0, 0.0, 100.0, 0.0)),
            ..config(50_000, 4)
        });
        let t = g.next_tx(0);
        assert_eq!(t.tx.kind(), AmmTxKind::Mint);
        // now a position exists; the next burn is a real burn
        let t2 = g.next_tx(0);
        assert_eq!(t2.tx.kind(), AmmTxKind::Burn);
    }

    #[test]
    fn wire_sizes_match_table_vii() {
        let mut g = TrafficGenerator::new(config(100_000, 5));
        for _ in 0..200 {
            let t = g.next_tx(0);
            assert_eq!(t.wire_size, uniswap2023::size_for(t.tx.kind()));
        }
    }

    #[test]
    fn burns_and_collects_reference_tracked_positions() {
        let mut g = TrafficGenerator::new(GeneratorConfig {
            mix: TrafficMix::from_tuple((0.0, 50.0, 25.0, 25.0)),
            ..config(100_000, 6)
        });
        for _ in 0..500 {
            let t = g.next_tx(0);
            if let AmmTx::Burn(b) = &t.tx {
                // the owner recorded for the position must match
                assert!(TrafficGenerator::user_address(0) != Address::ZERO);
                assert!(!b.position.0.is_zero());
            }
        }
        assert!(g.tracked_positions() > 0);
    }

    #[test]
    fn fragmented_style_tiles_many_distinct_ticks() {
        let mut g = TrafficGenerator::new(GeneratorConfig {
            mix: TrafficMix::from_tuple((0.0, 100.0, 0.0, 0.0)),
            users: 200,
            max_positions_per_user: 4,
            liquidity_style: LiquidityStyle::Fragmented,
            ..config(100_000, 11)
        });
        let mut ticks = HashSet::new();
        for _ in 0..400 {
            if let AmmTx::Mint(m) = g.next_tx(0).tx {
                if m.position.is_none() {
                    assert_eq!(m.tick_upper - m.tick_lower, 60, "one spacing wide");
                    assert_eq!(m.tick_lower % 60, 0);
                    ticks.insert(m.tick_lower);
                    ticks.insert(m.tick_upper);
                }
            }
        }
        // a dense tick population, far beyond the paper-spread handful
        assert!(ticks.len() > 100, "only {} distinct ticks", ticks.len());
    }

    #[test]
    fn users_are_stable() {
        let g = TrafficGenerator::new(config(50_000, 7));
        let users = g.users();
        assert_eq!(users.len(), 100);
        for (i, user) in users.iter().enumerate() {
            assert_eq!(*user, TrafficGenerator::user_address(i as u64));
        }
    }

    #[test]
    fn generated_stream_is_pinned() {
        // the digest was taken before the generator cached its user
        // table: the cache must not move a single generated byte
        let mut g = TrafficGenerator::new(GeneratorConfig {
            users: 1_000,
            pools: pool_set(4),
            skew: TrafficSkew::Zipf { exponent: 1.0 },
            route_style: RouteStyle {
                routed_share: 0.3,
                ..RouteStyle::default()
            },
            ..config(1_000_000, 7)
        });
        let mut stream = Vec::new();
        for i in 0..10_000 {
            let t = g.next_tx(i / 100);
            stream.extend_from_slice(&t.tx.user().0);
            stream.extend_from_slice(format!("{:?}/{}", t.tx, t.wire_size).as_bytes());
        }
        assert_eq!(
            ammboost_crypto::H256::hash(&stream).to_hex(),
            "21940bef928377c152389b5554ee8c6961aa19093c2e15702b26cf7ab9376c36"
        );
    }

    #[test]
    fn mint_burn_heavy_stream_is_pinned() {
        // the digest was taken while `gen_mint` and `forget_position`
        // still scanned every tracked position: the per-owner lists must
        // pick the same top-ups, and removal must keep tracking order
        let mut g = TrafficGenerator::new(GeneratorConfig {
            users: 200,
            pools: pool_set(4),
            mix: TrafficMix::from_tuple((60.0, 20.0, 10.0, 10.0)),
            max_positions_per_user: 4,
            ..config(1_000_000, 7)
        });
        let mut stream = Vec::new();
        let (mut full_burns, mut top_ups) = (0, 0);
        for i in 0..10_000 {
            let t = g.next_tx(i / 100);
            match &t.tx {
                // the node feeds every deleted position back, although
                // the generator forgot it when it issued the burn
                AmmTx::Burn(b) if b.liquidity.is_none() => {
                    g.forget_position(b.position);
                    full_burns += 1;
                }
                AmmTx::Mint(m) if m.position.is_some() => top_ups += 1,
                _ => {}
            }
            stream.extend_from_slice(format!("{:?}/{}", t.tx, t.wire_size).as_bytes());
        }
        assert_eq!((full_burns, top_ups), (511, 737));
        // the three indexes agree on what is tracked
        assert_eq!(g.tracked_positions(), 714);
        assert_eq!(g.positions.values().map(Vec::len).sum::<usize>(), 714);
        assert_eq!(g.owned.iter().map(Vec::len).sum::<usize>(), 714);
        assert_eq!(
            ammboost_crypto::H256::hash(&stream).to_hex(),
            "0c71b3e6808ed94dbb97effb23999091b933e96e692963ddcc2494eb52f200a6"
        );
    }

    /// `GeneratedTx::user` is the issuer's population index for every
    /// kind: swaps, routes and mints from the user draw, burns and
    /// collects from the position's owner.
    #[test]
    fn every_kind_carries_its_issuers_index() {
        let mut g = TrafficGenerator::new(GeneratorConfig {
            users: 300,
            pools: pool_set(4),
            mix: TrafficMix::from_tuple((40.0, 30.0, 15.0, 15.0)),
            route_style: RouteStyle::routed(0.5, 3),
            max_positions_per_user: 2,
            ..config(1_000_000, 17)
        });
        let mut kinds = HashSet::new();
        for i in 0..5_000 {
            let t = g.next_tx(i / 100);
            assert_eq!(t.tx.user(), g.user(t.user), "{:?}", t.tx.kind());
            kinds.insert(t.tx.kind());
        }
        assert_eq!(kinds.len(), 5, "every kind generated: {kinds:?}");
    }

    #[test]
    fn round_batch_size_matches_rho() {
        let mut g = TrafficGenerator::new(config(500_000, 8));
        let batch = g.next_round(0);
        assert_eq!(batch.len() as u64, g.txs_per_round());
    }

    #[test]
    fn every_tx_targets_its_users_home_pool() {
        // cross-pool mixes preserve the user→pool affinity invariant:
        // burns/collects included (they must hit positions of the pool)
        let mut g = TrafficGenerator::new(GeneratorConfig {
            pools: pool_set(8),
            users: 64,
            ..config(1_000_000, 21)
        });
        for _ in 0..5_000 {
            let t = g.next_tx(0);
            let home = g.pool_for(&t.tx.user()).expect("simulated user");
            assert_eq!(t.tx.pool(), home, "tx strays off its user's pool");
        }
    }

    #[test]
    fn routed_share_emits_well_formed_routes() {
        let mut g = TrafficGenerator::new(GeneratorConfig {
            pools: pool_set(8),
            users: 64,
            route_style: RouteStyle::routed(0.5, 4),
            ..config(1_000_000, 13)
        });
        let mut routes = 0usize;
        let mut swaps = 0usize;
        for _ in 0..5_000 {
            let t = g.next_tx(0);
            match &t.tx {
                AmmTx::Route(r) => {
                    routes += 1;
                    r.validate().expect("generated route must be well-formed");
                    assert!((2..=4).contains(&r.hops.len()), "{} hops", r.hops.len());
                    // constrained to the configured pool set
                    for hop in &r.hops {
                        assert!(hop.pool.0 < 8, "route strays off the pool set");
                    }
                    // the entry pool is the issuing user's home pool, so
                    // the deposit backing the route lives on that shard
                    assert_eq!(g.pool_for(&r.user), Some(r.entry_pool()));
                    assert_eq!(t.wire_size, uniswap2023::route_size_for(r.hops.len()));
                }
                AmmTx::Swap(_) => swaps += 1,
                _ => {}
            }
        }
        assert!(routes > 1_000, "only {routes} routes at 50% share");
        assert!(swaps > 1_000, "plain swaps must survive the split");
    }

    #[test]
    fn zero_routed_share_emits_no_routes() {
        let mut g = TrafficGenerator::new(GeneratorConfig {
            pools: pool_set(4),
            users: 16,
            ..config(500_000, 14)
        });
        for _ in 0..2_000 {
            assert!(!matches!(g.next_tx(0).tx, AmmTx::Route(_)));
        }
    }

    #[test]
    fn single_pool_set_never_routes() {
        // share > 0 but one pool: routes are impossible, swaps flow on
        let mut g = TrafficGenerator::new(GeneratorConfig {
            route_style: RouteStyle::routed(0.9, 4),
            ..config(500_000, 15)
        });
        for _ in 0..1_000 {
            assert!(!matches!(g.next_tx(0).tx, AmmTx::Route(_)));
        }
    }

    #[test]
    fn uniform_skew_spreads_and_zipf_concentrates() {
        let count_per_pool = |skew: TrafficSkew, seed: u64| {
            let mut g = TrafficGenerator::new(GeneratorConfig {
                pools: pool_set(8),
                users: 64,
                skew,
                ..config(1_000_000, seed)
            });
            let mut counts = vec![0u64; 8];
            for _ in 0..20_000 {
                counts[g.next_tx(0).tx.pool().0 as usize] += 1;
            }
            counts
        };
        let uniform = count_per_pool(TrafficSkew::Uniform, 31);
        for c in &uniform {
            let frac = *c as f64 / 20_000.0;
            assert!((frac - 0.125).abs() < 0.02, "uniform share {frac}");
        }
        let zipf = count_per_pool(TrafficSkew::Zipf { exponent: 1.0 }, 31);
        // rank 0 carries the Zipf head: 1 / H_8 ≈ 36.8%
        let head = zipf[0] as f64 / 20_000.0;
        assert!((head - 0.368).abs() < 0.03, "zipf head share {head}");
        assert!(zipf[0] > 2 * zipf[7], "tail not thinner than head");
    }

    #[test]
    fn home_pool_assignment_is_round_robin() {
        let g = TrafficGenerator::new(GeneratorConfig {
            pools: pool_set(4),
            users: 10,
            ..config(50_000, 3)
        });
        for i in 0..10u64 {
            assert_eq!(g.pool_of_index(i), PoolId((i % 4) as u32));
            assert_eq!(
                g.pool_for(&TrafficGenerator::user_address(i)),
                Some(PoolId((i % 4) as u32))
            );
        }
        assert_eq!(g.pool_for(&Address::ZERO), None);
    }

    #[test]
    #[should_panic(expected = "at least one user per pool")]
    fn more_pools_than_users_rejected() {
        TrafficGenerator::new(GeneratorConfig {
            pools: pool_set(16),
            users: 8,
            ..config(50_000, 1)
        });
    }

    #[test]
    fn engine_mix_cycles_deterministic_pattern() {
        let mix = EngineMix::of(2, 1, 1);
        let kinds: Vec<EngineKind> = (0..8).map(|i| mix.engine_for(i)).collect();
        assert_eq!(
            kinds,
            vec![
                EngineKind::ConcentratedLiquidity,
                EngineKind::ConcentratedLiquidity,
                EngineKind::ConstantProduct,
                EngineKind::Weighted,
                EngineKind::ConcentratedLiquidity,
                EngineKind::ConcentratedLiquidity,
                EngineKind::ConstantProduct,
                EngineKind::Weighted,
            ]
        );
        // degenerate mixes stay usable
        assert_eq!(
            EngineMix::of(0, 0, 0).engine_for(3),
            EngineKind::ConcentratedLiquidity
        );
        assert_eq!(EngineMix::default(), EngineMix::all_cl());
    }

    #[test]
    fn fleet_assignment_independent_of_skew() {
        // engine kinds come from pool position, not the traffic draw:
        // the same fleet layout under uniform and Zipf skews
        let fleet_of = |skew: TrafficSkew| {
            TrafficGenerator::new(GeneratorConfig {
                pools: pool_set(6),
                users: 12,
                skew,
                engine_mix: EngineMix::of(1, 1, 1),
                ..config(50_000, 2)
            })
            .fleet()
        };
        let uniform = fleet_of(TrafficSkew::Uniform);
        let zipf = fleet_of(TrafficSkew::Zipf { exponent: 1.0 });
        assert_eq!(uniform, zipf);
        assert_eq!(uniform[0].1, EngineKind::ConcentratedLiquidity);
        assert_eq!(uniform[1].1, EngineKind::ConstantProduct);
        assert_eq!(uniform[2].1, EngineKind::Weighted);
        assert_eq!(uniform[3].1, EngineKind::ConcentratedLiquidity);
    }

    #[test]
    fn zipf_weights_normalize() {
        let w = TrafficSkew::Zipf { exponent: 1.0 }.weights(4);
        assert_eq!(w.len(), 4);
        assert!((w[0] - 1.0).abs() < 1e-12);
        assert!((w[3] - 0.25).abs() < 1e-12);
        assert_eq!(TrafficSkew::Uniform.weights(3), vec![1.0; 3]);
    }
}
