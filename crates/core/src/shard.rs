//! Sharded multi-pool execution: `PoolId` as a routing key.
//!
//! A [`ShardMap`] owns one [`EpochProcessor`] per pool and routes every
//! [`AmmTx`] by its `pool` field. Because the system's traffic model pins
//! each user to a home pool (deposits are routed the same way at epoch
//! start), the shards share no mutable state — an epoch's per-pool
//! batches can execute on independent worker threads (the persistent
//! [`WorkerPool`]) and still produce results bit-identical to sequential
//! execution. Per-pool effects are merged deterministically (shards
//! iterate ascending by `PoolId`; payouts re-sorted by user) into one
//! epoch summary, one ledger entry and one Merkle-committed checkpoint
//! covering all shards.
//!
//! ## Cross-pool routing: the two-phase batch
//!
//! Multi-hop routes ([`AmmTx::Route`]) break the "every transaction
//! touches one pool" assumption, so [`ShardMap::execute_batch`] runs a
//! **two-phase** schedule with a canonical, scheduling-independent
//! order:
//!
//! 1. **Admission** (sequential, batch order): each route is
//!    shape-validated, its pools resolved, and its worst-case input
//!    *reserved* from the user's home-shard deposit — one deterministic
//!    coverage point before any leg executes.
//! 2. **Phase 1** — plain transactions execute per shard as before;
//!    then routes execute in *hop waves*: wave *k* carries hop *k* of
//!    every live route. A route's pools are distinct, so each route has
//!    at most one leg per shard per wave and the per-shard leg lists
//!    (ordered by batch index) execute on parallel workers exactly like
//!    plain sub-batches. A barrier between waves hands each route's
//!    output forward as the next hop's input.
//! 3. **Phase 2** — the **netting barrier** (sequential, batch order):
//!    every route's per-hop flows fold into per-(user, token) net
//!    deltas ([`NettingLedger`]); only the net credit (plus any
//!    unconsumed input refund) lands on the user's home-shard deposit.
//!    Payouts, summary blocks and `Sync` therefore carry **netted**
//!    amounts — per-hop transfers never reach the settlement layer.

use crate::processor::{EpochProcessor, ProcessorState, ProcessorStats};
use crate::view::{QuoteView, ViewPublishStats};
use crate::workers::WorkerPool;
use ammboost_amm::engines::{Engine, EngineKind};
use ammboost_amm::tx::{AmmTx, RouteTx};
use ammboost_amm::types::{Amount, PoolId, PositionId};
use ammboost_crypto::{Address, DigestMap};
use ammboost_sidechain::block::{ExecutedTx, RouteLeg, TxEffect};
use ammboost_sidechain::summary::{
    Deposits, NettingLedger, PayoutEntry, PoolUpdate, PositionEntry,
};
use ammboost_sim::{FaultInjector, FaultKind, InjectionPoint};
use serde::{Deserialize, Serialize};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, OnceLock};

/// One shard's sorted deposit entries, as exported for checkpointing.
pub type DepositEntries = Vec<(Address, (u128, u128))>;

/// Below this batch size the hand-off to the worker pool outweighs the
/// per-shard work; such rounds execute sequentially under
/// [`ExecMode::Auto`].
pub(crate) const PARALLEL_MIN_BATCH: usize = 64;

/// How a batch is scheduled across shards. Results are bit-identical
/// in every mode. The node always runs [`ExecMode::Auto`] and offers no
/// way to choose; the other two exist so that tests can pin a schedule
/// and show exactly that.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExecMode {
    /// Hand busy shards to the persistent worker pool when more than one
    /// shard has work, the batch holds at least `PARALLEL_MIN_BATCH`
    /// transactions and the host has more than one hardware thread;
    /// otherwise run them on the calling thread.
    #[default]
    Auto,
    /// Always execute shard-by-shard on the calling thread.
    Sequential,
    /// Use the worker pool whenever at least two shards have work,
    /// whatever the batch size or the host (test lever: reaches the
    /// pooled path on batches `Auto` would keep inline).
    Parallel,
}

fn hardware_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// A routing map of per-pool epoch processors, ascending by [`PoolId`].
#[derive(Clone, Debug)]
pub struct ShardMap {
    shards: Vec<EpochProcessor>,
    /// User → index of the shard holding their deposit (their *home*
    /// shard). Built when deposits are routed at epoch start, rebuilt
    /// from the per-shard deposit ledgers on restore. Routes reserve
    /// their input and receive their netted credit here.
    home: DigestMap<Address, usize>,
    /// Per-epoch netting ledger: every routed flow folded this epoch.
    /// Diagnostic/reporting state, reset at epoch start — the consensus
    /// state it summarizes lives entirely in pools and deposits.
    netting: NettingLedger,
    /// Cached per-pool sealed states from the last [`ShardMap::publish_view`]
    /// call, aligned with `shards`. A shard whose `view_stale` flag is
    /// clear reuses its cached `Arc`; only the pools the sealed epoch
    /// touched are re-cloned. Derived data — never checkpointed.
    view_cache: Vec<Option<Arc<Engine>>>,
    /// Fault injector armed by [`ShardMap::arm_chaos`]. When set, every
    /// busy shard's phase-1a sub-batch runs under panic containment:
    /// a job that panics (injected via [`InjectionPoint::Worker`] or
    /// otherwise) poisons only its own shard, which is rolled back to
    /// its pre-dispatch state and re-executed sequentially. `None` in
    /// production — the containment machinery is entirely off the hot
    /// path.
    chaos: Option<Arc<Mutex<FaultInjector>>>,
    /// Count of shard jobs that panicked and were contained (rolled
    /// back + re-executed). Diagnostic, reported via `SystemReport`.
    panics_contained: u64,
}

/// One wave leg awaiting execution: the admitted route's slot, the
/// hop's direction, its input amount, and the final-hop slippage floor.
type WaveLeg = (usize, bool, u128, Option<u128>);

/// One executed wave leg: the route slot and the realized `(in, out)`
/// amounts (or the failure reason).
type WaveResult = (usize, Result<(u128, u128), String>);

/// In-flight state of one admitted route inside a batch.
struct RouteRun<'b> {
    batch_index: usize,
    tx: &'b RouteTx,
    wire_size: usize,
    /// Index of the user's home shard (input already reserved there).
    home: usize,
    /// Legs executed so far, in hop order.
    legs: Vec<RouteLeg>,
    /// Input of the next hop (the previous hop's output).
    next_amount: u128,
    /// Set when a hop failed; remaining hops are skipped.
    failure: Option<String>,
}

impl ShardMap {
    /// Builds a shard map with a fresh standard pool per id.
    ///
    /// # Panics
    /// Panics on an empty or duplicate-carrying pool set — a
    /// configuration error.
    pub fn new(pool_ids: impl IntoIterator<Item = PoolId>) -> ShardMap {
        Self::new_with_engines(
            pool_ids
                .into_iter()
                .map(|id| (id, EngineKind::ConcentratedLiquidity)),
        )
    }

    /// Builds a heterogeneous shard map: a fresh standard pool of the
    /// named engine kind per id. This is how a mixed fleet comes up —
    /// concentrated-liquidity, constant-product and weighted shards
    /// side by side behind the same routing, batching and checkpointing.
    ///
    /// # Panics
    /// Panics on an empty or duplicate-carrying pool set — a
    /// configuration error.
    pub fn new_with_engines(pools: impl IntoIterator<Item = (PoolId, EngineKind)>) -> ShardMap {
        let mut entries: Vec<(PoolId, EngineKind)> = pools.into_iter().collect();
        entries.sort_by_key(|(id, _)| *id);
        let before = entries.len();
        entries.dedup_by_key(|(id, _)| *id);
        assert!(!entries.is_empty(), "shard map needs at least one pool");
        assert_eq!(before, entries.len(), "duplicate pool ids in shard map");
        let shards: Vec<EpochProcessor> = entries
            .into_iter()
            .map(|(id, kind)| EpochProcessor::with_engine(id, kind))
            .collect();
        let view_cache = vec![None; shards.len()];
        ShardMap {
            shards,
            home: DigestMap::default(),
            netting: NettingLedger::new(),
            view_cache,
            chaos: None,
            panics_contained: 0,
        }
    }

    /// Reassembles a shard map from restored processors (the snapshot
    /// path); sorts by pool id and rebuilds the user→home-shard routing
    /// from each shard's deposit ledger, so a restored node routes and
    /// nets exactly like the node that took the checkpoint.
    ///
    /// # Panics
    /// Panics on an empty or duplicate-carrying processor set.
    pub fn from_processors(mut processors: Vec<EpochProcessor>) -> ShardMap {
        assert!(!processors.is_empty(), "shard map needs at least one pool");
        processors.sort_by_key(|p| p.pool_id());
        assert!(
            processors
                .windows(2)
                .all(|w| w[0].pool_id() < w[1].pool_id()),
            "duplicate pool ids in shard map"
        );
        let mut home = DigestMap::default();
        for (idx, shard) in processors.iter().enumerate() {
            home.extend(shard.deposits().iter().map(|(user, _)| (user, idx)));
        }
        let view_cache = vec![None; processors.len()];
        ShardMap {
            shards: processors,
            home,
            netting: NettingLedger::new(),
            view_cache,
            chaos: None,
            panics_contained: 0,
        }
    }

    /// Arms deterministic worker-fault injection: subsequent
    /// [`ShardMap::execute_batch`] calls fire one
    /// [`InjectionPoint::Worker`]`(pool_id)` occurrence per busy shard
    /// per phase-1a dispatch (ascending pool id, so occurrence counting
    /// is identical under sequential and parallel execution), and a
    /// [`FaultKind::Panic`] verdict makes that shard's job panic inside
    /// the worker. The panic is contained: the shard rolls back to its
    /// pre-dispatch state and re-executes sequentially, the other
    /// shards' results stand, and the epoch completes with effects
    /// bit-identical to a fault-free run.
    pub fn arm_chaos(&mut self, injector: Arc<Mutex<FaultInjector>>) {
        self.chaos = Some(injector);
    }

    /// Number of shard jobs that panicked and were contained (rolled
    /// back and re-executed sequentially) since construction.
    pub fn panics_contained(&self) -> u64 {
        self.panics_contained
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// `true` when the map holds no shards (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// The pool ids, ascending.
    pub fn pool_ids(&self) -> Vec<PoolId> {
        self.shards.iter().map(|s| s.pool_id()).collect()
    }

    /// The shard executing `pool`.
    pub fn get(&self, pool: PoolId) -> Option<&EpochProcessor> {
        self.index_of(pool).map(|i| &self.shards[i])
    }

    /// Mutable access to the shard executing `pool`.
    pub fn get_mut(&mut self, pool: PoolId) -> Option<&mut EpochProcessor> {
        self.index_of(pool).map(move |i| &mut self.shards[i])
    }

    /// The first shard (lowest pool id) — the single-pool accessor legacy
    /// callers keep using.
    pub fn first(&self) -> &EpochProcessor {
        &self.shards[0]
    }

    /// Iterates shards ascending by pool id.
    pub fn iter(&self) -> impl Iterator<Item = &EpochProcessor> {
        self.shards.iter()
    }

    /// Mutably iterates shards ascending by pool id.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut EpochProcessor> {
        self.shards.iter_mut()
    }

    fn index_of(&self, pool: PoolId) -> Option<usize> {
        self.shards
            .binary_search_by_key(&pool, |s| s.pool_id())
            .ok()
    }

    /// Publishes the sealed state of every pool as an immutable,
    /// `Arc`-shared [`QuoteView`] tagged with `epoch`. Call at epoch seal
    /// — after the epoch's last batch has committed and before the next
    /// epoch begins — so readers on other threads serve quotes from it
    /// while the worker pool executes the next epoch.
    ///
    /// Per-shard staleness tracking keeps publication proportional to the
    /// write set: only pools the sealed epoch actually touched are
    /// re-cloned; every clean pool reuses its cached `Arc` from the
    /// previous publication. The returned [`ViewPublishStats`] reports
    /// that split.
    pub fn publish_view(&mut self, epoch: u64) -> (Arc<QuoteView>, ViewPublishStats) {
        let mut stats = ViewPublishStats::default();
        let mut entries = Vec::with_capacity(self.shards.len());
        for (i, shard) in self.shards.iter_mut().enumerate() {
            let stale = shard.take_view_stale();
            let arc = match (&self.view_cache[i], stale) {
                (Some(cached), false) => {
                    stats.reused += 1;
                    Arc::clone(cached)
                }
                _ => {
                    stats.recloned += 1;
                    let fresh = Arc::new(shard.pool().clone());
                    self.view_cache[i] = Some(Arc::clone(&fresh));
                    fresh
                }
            };
            entries.push((shard.pool_id(), arc));
        }
        (Arc::new(QuoteView::new(epoch, entries)), stats)
    }

    /// The engine kind of each shard, ascending by pool id.
    pub fn engine_kinds(&self) -> Vec<(PoolId, EngineKind)> {
        self.shards
            .iter()
            .map(|s| (s.pool_id(), s.engine_kind()))
            .collect()
    }

    /// Seeds standing liquidity on `pool`'s shard.
    ///
    /// # Panics
    /// Panics on an unknown pool — a configuration error.
    pub fn seed_liquidity(
        &mut self,
        pool: PoolId,
        owner: Address,
        tick_lower: i32,
        tick_upper: i32,
        amount0: Amount,
        amount1: Amount,
    ) -> PositionId {
        self.get_mut(pool)
            .unwrap_or_else(|| panic!("seeding liquidity on unknown {pool}"))
            .seed_liquidity(owner, tick_lower, tick_upper, amount0, amount1)
    }

    /// `SnapshotBank` across shards: routes every deposit entry to its
    /// owner's shard via `route` and begins the epoch on all shards.
    /// Entries whose route is unknown (or names a pool outside the map)
    /// land on the first shard so no deposit silently disappears.
    ///
    /// `route` must assign each user to exactly one pool — the
    /// disjointness that makes parallel shard execution and the payout
    /// merge exact.
    pub fn begin_epoch(
        &mut self,
        snapshot: impl IntoIterator<Item = (Address, (u128, u128))>,
        route: impl Fn(&Address) -> Option<PoolId>,
    ) {
        let snapshot = snapshot.into_iter();
        let users = snapshot.size_hint().0;
        // an even split is the usual case; a skewed route grows the rest
        let share = users.div_ceil(self.shards.len());
        let mut per_shard: Vec<DepositEntries> = (0..self.shards.len())
            .map(|_| Vec::with_capacity(share))
            .collect();
        self.home.clear();
        self.home.reserve(users);
        for (user, balance) in snapshot {
            let idx = route(&user)
                .and_then(|pool| self.index_of(pool))
                .unwrap_or(0);
            self.home.insert(user, idx);
            per_shard[idx].push((user, balance));
        }
        for (shard, deposits) in self.shards.iter_mut().zip(per_shard) {
            shard.begin_epoch_with(Deposits::from_snapshot(deposits));
        }
        self.netting = NettingLedger::new();
    }

    /// Begins an epoch on every shard without re-snapshotting deposits
    /// (the mass-sync carry-over path). Home-shard routing carries over
    /// with the deposits.
    pub fn carry_over_epoch(&mut self) {
        for s in &mut self.shards {
            s.carry_over_epoch();
        }
        self.netting = NettingLedger::new();
    }

    /// The user's home shard index — where their deposit lives and where
    /// routes reserve input and receive netted credit.
    pub fn home_shard_of(&self, user: &Address) -> Option<PoolId> {
        self.home.get(user).map(|&i| self.shards[i].pool_id())
    }

    /// The epoch's netting ledger: every routed flow folded since the
    /// epoch began, with netted-vs-naive settlement accounting.
    pub fn epoch_netting(&self) -> &NettingLedger {
        &self.netting
    }

    /// Executes one transaction on the shard its `pool` field routes to.
    /// Transactions addressing a pool outside the map are rejected
    /// without touching any shard. Routes run through the two-phase
    /// machinery as a batch of one, so a single-tx caller (tests, the
    /// fast-sync driver) sees exactly the batch semantics.
    pub fn execute(&mut self, tx: &AmmTx, wire_size: usize, round: u64) -> ExecutedTx {
        if matches!(tx, AmmTx::Route(_)) {
            return self
                .execute_batch(&[(tx, wire_size)], round, ExecMode::Sequential)
                .pop()
                .expect("one transaction in, one effect out");
        }
        match self.get_mut(tx.pool()) {
            Some(shard) => shard.execute(tx, wire_size, round),
            None => ExecutedTx {
                tx: tx.clone(),
                wire_size,
                effect: TxEffect::Rejected {
                    reason: format!("unknown pool {}", tx.pool()),
                },
            },
        }
    }

    /// Admits one route: deadline, shape, pool membership, then the
    /// deterministic coverage point — reserving the worst-case input on
    /// the user's home shard. Returns the home shard index, or the
    /// rejection reason plus the home shard (when known) to book the
    /// rejection on.
    fn admit_route(&mut self, r: &RouteTx, round: u64) -> Result<usize, (String, Option<usize>)> {
        let home = self.home.get(&r.user).copied();
        if round > r.deadline_round {
            return Err(("deadline exceeded".into(), home));
        }
        if let Err(e) = r.validate() {
            return Err((format!("invalid route: {e}"), home));
        }
        for hop in &r.hops {
            if self.index_of(hop.pool).is_none() {
                return Err((format!("unknown pool {}", hop.pool), home));
            }
        }
        let Some(home) = home else {
            return Err(("insufficient deposit for route input".into(), None));
        };
        let (need0, need1) = if r.input_is_token0() {
            (r.amount_in, 0)
        } else {
            (0, r.amount_in)
        };
        if !self.shards[home].reserve_route_input(r.user, need0, need1) {
            return Err(("insufficient deposit for route input".into(), Some(home)));
        }
        Ok(home)
    }

    /// Executes a round's batch, routing each transaction by pool and
    /// preserving per-pool submission order; routed transactions run the
    /// two-phase schedule (admission → plain sub-batches → hop waves →
    /// netting barrier, see the module docs). Under [`ExecMode::Auto`] /
    /// [`ExecMode::Parallel`] the busy shards of every phase run on the
    /// persistent worker pool; the returned effects are in the batch's
    /// original order and bit-identical to sequential execution
    /// regardless of mode.
    pub fn execute_batch(
        &mut self,
        batch: &[(&AmmTx, usize)],
        round: u64,
        mode: ExecMode,
    ) -> Vec<ExecutedTx> {
        let mut out: Vec<Option<ExecutedTx>> = batch.iter().map(|_| None).collect();
        let parallel_allowed = match mode {
            ExecMode::Sequential => false,
            ExecMode::Parallel => true,
            ExecMode::Auto => batch.len() >= PARALLEL_MIN_BATCH && hardware_threads() > 1,
        };

        // --- admission: partition plain txs by shard, reserve routes ---
        let mut per_shard: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        let mut routes: Vec<RouteRun<'_>> = Vec::new();
        for (i, (tx, size)) in batch.iter().enumerate() {
            match tx {
                AmmTx::Route(r) => match self.admit_route(r, round) {
                    Ok(home) => routes.push(RouteRun {
                        batch_index: i,
                        tx: r,
                        wire_size: *size,
                        home,
                        legs: Vec::new(),
                        next_amount: r.amount_in,
                        failure: None,
                    }),
                    Err((reason, home)) => {
                        if let Some(h) = home {
                            self.shards[h].note_route_rejected(&reason);
                        }
                        out[i] = Some(ExecutedTx {
                            tx: (*tx).clone(),
                            wire_size: *size,
                            effect: TxEffect::Rejected { reason },
                        });
                    }
                },
                _ => match self.index_of(tx.pool()) {
                    Some(s) => per_shard[s].push(i),
                    None => {
                        out[i] = Some(ExecutedTx {
                            tx: (*tx).clone(),
                            wire_size: *size,
                            effect: TxEffect::Rejected {
                                reason: format!("unknown pool {}", tx.pool()),
                            },
                        });
                    }
                },
            }
        }

        // --- phase 1a: plain per-pool sub-batches ---
        // the one sub-batch body both schedules run — keeping parallel
        // and sequential on literally the same code path
        let sub_batch = |shard: &mut EpochProcessor, indices: &Vec<usize>| {
            indices
                .iter()
                .map(|&i| {
                    let (tx, size) = batch[i];
                    (i, shard.execute(tx, size, round))
                })
                .collect::<Vec<(usize, ExecutedTx)>>()
        };
        let busy = per_shard.iter().filter(|v| !v.is_empty()).count();
        let mut chunks: Vec<Vec<(usize, ExecutedTx)>> = vec![Vec::new(); busy];
        if let Some(injector) = self.chaos.clone() {
            // chaos path: contained execution. Fire one Worker(pool_id)
            // occurrence per busy shard *before* dispatch, in ascending
            // pool-id order — the verdicts (and so the injector's
            // occurrence counters and event log) are then identical
            // whether the jobs run sequentially or on the pool.
            let busy_idx: Vec<usize> = per_shard
                .iter()
                .enumerate()
                .filter(|(_, v)| !v.is_empty())
                .map(|(s, _)| s)
                .collect();
            let verdicts: Vec<Option<FaultKind>> = {
                let mut inj = injector.lock().expect("fault injector poisoned");
                busy_idx
                    .iter()
                    .map(|&s| inj.fire(InjectionPoint::Worker(self.shards[s].pool_id().0)))
                    .collect()
            };
            // pre-dispatch backups: a poisoned shard may be torn
            // mid-transaction, so containment restores it wholesale
            let backups: Vec<EpochProcessor> =
                busy_idx.iter().map(|&s| self.shards[s].clone()).collect();
            let mut slots: Vec<Option<Vec<(usize, ExecutedTx)>>> = vec![None; busy];
            let busy_shards = self
                .shards
                .iter_mut()
                .zip(&per_shard)
                .filter(|(_, indices)| !indices.is_empty());
            // the contained job body: the panic is caught *inside* the
            // job, so the scope itself never sees a failure and the
            // other shards' results are preserved
            let contained =
                |shard: &mut EpochProcessor, indices: &Vec<usize>, verdict: Option<FaultKind>| {
                    catch_unwind(AssertUnwindSafe(|| {
                        if matches!(verdict, Some(FaultKind::Panic)) {
                            panic!("injected worker panic on pool {}", shard.pool_id());
                        }
                        sub_batch(shard, indices)
                    }))
                    .ok()
                };
            if parallel_allowed && busy > 1 {
                WorkerPool::global().scope(|scope| {
                    for (((shard, indices), slot), verdict) in
                        busy_shards.zip(slots.iter_mut()).zip(verdicts)
                    {
                        let contained = &contained;
                        scope.spawn(move || *slot = contained(shard, indices, verdict));
                    }
                });
            } else {
                for (((shard, indices), slot), verdict) in
                    busy_shards.zip(slots.iter_mut()).zip(verdicts)
                {
                    *slot = contained(shard, indices, verdict);
                }
            }
            // containment: every poisoned shard rolls back to its
            // pre-dispatch state and re-executes sequentially (no
            // second fault fire — the occurrence was already consumed),
            // so the epoch completes bit-identical to a fault-free run
            for ((slot, &s), backup) in slots.iter_mut().zip(&busy_idx).zip(backups) {
                if slot.is_none() {
                    self.shards[s] = backup;
                    *slot = Some(sub_batch(&mut self.shards[s], &per_shard[s]));
                    self.panics_contained += 1;
                }
            }
            for (chunk, slot) in chunks.iter_mut().zip(slots) {
                *chunk = slot.expect("every poisoned shard re-executed");
            }
        } else {
            let busy_shards = self
                .shards
                .iter_mut()
                .zip(&per_shard)
                .filter(|(_, indices)| !indices.is_empty());
            if parallel_allowed && busy > 1 {
                WorkerPool::global().scope(|scope| {
                    for ((shard, indices), chunk) in busy_shards.zip(chunks.iter_mut()) {
                        scope.spawn(move || *chunk = sub_batch(shard, indices));
                    }
                });
            } else {
                for ((shard, indices), chunk) in busy_shards.zip(chunks.iter_mut()) {
                    *chunk = sub_batch(shard, indices);
                }
            }
        }
        for chunk in chunks {
            for (i, executed) in chunk {
                out[i] = Some(executed);
            }
        }

        // --- phase 1b: hop waves ---
        self.run_route_waves(&mut routes, parallel_allowed);

        // --- phase 2: the netting barrier ---
        let mut netting = NettingLedger::new();
        for run in routes {
            let (executed, entry) = self.settle_route(run, &mut netting);
            out[executed] = Some(entry);
        }
        self.netting.merge(&netting);

        out.into_iter()
            .map(|o| o.expect("every transaction executed"))
            .collect()
    }

    /// Phase 1b: executes every admitted route's hops in waves. Wave `k`
    /// carries hop `k` of each live route; a route's pools are distinct,
    /// so the wave's legs group into per-shard lists (ordered by batch
    /// index) that execute on parallel workers exactly like plain
    /// sub-batches. The inter-wave barrier hands each route's output
    /// forward as its next hop's input.
    fn run_route_waves(&mut self, routes: &mut [RouteRun<'_>], parallel_allowed: bool) {
        let max_hops = routes.iter().map(|r| r.tx.hops.len()).max().unwrap_or(0);
        for wave in 0..max_hops {
            let mut legs: Vec<Vec<WaveLeg>> = vec![Vec::new(); self.shards.len()];
            for (slot, run) in routes.iter().enumerate() {
                if run.failure.is_some() || wave >= run.tx.hops.len() {
                    continue;
                }
                let hop = run.tx.hops[wave];
                let shard = self.index_of(hop.pool).expect("pools checked at admission");
                let final_min_out =
                    (wave + 1 == run.tx.hops.len()).then_some(run.tx.min_amount_out);
                legs[shard].push((slot, hop.zero_for_one, run.next_amount, final_min_out));
            }
            let busy = legs.iter().filter(|l| !l.is_empty()).count();
            if busy == 0 {
                break;
            }
            // one wave-leg body for both schedules
            let run_legs = |shard: &mut EpochProcessor, shard_legs: &Vec<WaveLeg>| {
                shard_legs
                    .iter()
                    .map(|&(r, dir, amount, min_out)| {
                        (
                            r,
                            shard
                                .execute_route_leg(dir, amount, min_out)
                                .map_err(|e| e.to_string()),
                        )
                    })
                    .collect::<Vec<WaveResult>>()
            };
            let mut results: Vec<Vec<WaveResult>> = vec![Vec::new(); busy];
            let busy_shards = self
                .shards
                .iter_mut()
                .zip(&legs)
                .filter(|(_, l)| !l.is_empty());
            if parallel_allowed && busy > 1 {
                WorkerPool::global().scope(|scope| {
                    for ((shard, shard_legs), slot) in busy_shards.zip(results.iter_mut()) {
                        scope.spawn(move || *slot = run_legs(shard, shard_legs));
                    }
                });
            } else {
                for ((shard, shard_legs), slot) in busy_shards.zip(results.iter_mut()) {
                    *slot = run_legs(shard, shard_legs);
                }
            }
            for (slot, result) in results.into_iter().flatten() {
                let run = &mut routes[slot];
                let hop = run.tx.hops[wave];
                match result {
                    Ok((amount_in, amount_out)) => {
                        run.legs.push(RouteLeg {
                            pool: hop.pool,
                            zero_for_one: hop.zero_for_one,
                            amount_in,
                            amount_out,
                        });
                        run.next_amount = amount_out;
                    }
                    Err(e) => run.failure = Some(e),
                }
            }
        }
    }

    /// Phase 2 for one route: folds its flows into the netting ledger,
    /// applies the single net credit — the last leg's output plus any
    /// unconsumed input at *every* hop boundary (an exact-input swap can
    /// consume less than its budget when the pool's liquidity runs out,
    /// so each boundary's leftover intermediate tokens stay the user's)
    /// — to the user's home shard, and builds the recorded effect. The
    /// deposit write equals the ledger's net delta for the route
    /// exactly. A route whose *first* hop already failed refunds its
    /// full reservation and is recorded as rejected — pools and
    /// deposits end untouched.
    fn settle_route(
        &mut self,
        run: RouteRun<'_>,
        netting: &mut NettingLedger,
    ) -> (usize, ExecutedTx) {
        let user = run.tx.user;
        let home = &mut self.shards[run.home];
        let (reserved0, reserved1) = if run.tx.input_is_token0() {
            (run.tx.amount_in, 0)
        } else {
            (0, run.tx.amount_in)
        };
        if run.legs.is_empty() {
            let reason = format!(
                "route failed: {}",
                run.failure.as_deref().unwrap_or("no hop executed")
            );
            home.credit_route_output(user, reserved0, reserved1);
            home.note_route_rejected(&reason);
            return (
                run.batch_index,
                ExecutedTx {
                    tx: AmmTx::Route(run.tx.clone()),
                    wire_size: run.wire_size,
                    effect: TxEffect::Rejected { reason },
                },
            );
        }

        netting.record_route();
        for leg in &run.legs {
            netting.record_leg(user, leg.zero_for_one, leg.amount_in, leg.amount_out);
        }
        let first = run.legs.first().expect("non-empty");
        let last = run.legs.last().expect("non-empty");
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
        home.credit_route_output(user, credit0, credit1);
        home.note_route_accepted();
        let completed = run.failure.is_none()
            && run.legs.len() == run.tx.hops.len()
            && run
                .legs
                .windows(2)
                .all(|pair| pair[0].amount_out == pair[1].amount_in);
        (
            run.batch_index,
            ExecutedTx {
                tx: AmmTx::Route(run.tx.clone()),
                wire_size: run.wire_size,
                effect: TxEffect::Route {
                    amount_in: first.amount_in,
                    amount_out: last.amount_out,
                    completed,
                    legs: run.legs,
                },
            },
        )
    }

    /// Ends the epoch on every shard and merges the per-pool effects
    /// deterministically: payouts (the users whose deposit moved)
    /// re-sorted by user (shard user sets are disjoint, so this is a pure
    /// merge), positions concatenated in pool order, and one
    /// [`PoolUpdate`] per shard ascending by pool id.
    pub fn end_epoch(&mut self) -> (Vec<PayoutEntry>, Vec<PositionEntry>, Vec<PoolUpdate>) {
        let mut payouts = Vec::new();
        let mut positions = Vec::new();
        let mut pools = Vec::with_capacity(self.shards.len());
        for shard in &mut self.shards {
            let (p, pos, update) = shard.end_epoch();
            payouts.extend(p);
            positions.extend(pos);
            pools.push(update);
        }
        payouts.sort_by_key(|p| p.user);
        (payouts, positions, pools)
    }

    /// One pass over every shard's deposit ledger: the per-shard sorted
    /// entry lists (ascending by pool id) plus their global union, sorted
    /// as well — the checkpoint's shard user lists and deposits section
    /// come from the same computation, so the two can never disagree.
    pub fn deposit_export(&self) -> (Vec<DepositEntries>, DepositEntries) {
        let mut per_shard = Vec::with_capacity(self.shards.len());
        let mut merged: DepositEntries = Vec::new();
        for shard in &self.shards {
            let entries = shard.deposits().to_sorted_entries();
            merged.extend(entries.iter().copied());
            per_shard.push(entries);
        }
        // a merge of sorted runs, which the stable sort detects
        merged.sort_by_key(|(user, _)| *user);
        (per_shard, merged)
    }

    /// The union of all shards' deposit ledgers (user sets are disjoint
    /// by routing), for the snapshot's global deposits section.
    pub fn merged_deposits(&self) -> Deposits {
        Deposits::from_sorted_entries(self.deposit_export().1)
    }

    /// Exports every shard's persistent state, ascending by pool id.
    pub fn export_states(&self) -> Vec<ProcessorState> {
        self.shards.iter().map(|s| s.export_state()).collect()
    }

    /// Aggregated accept/reject counters across shards (current epoch).
    pub fn stats(&self) -> ProcessorStats {
        let mut total = ProcessorStats::default();
        for s in &self.shards {
            total.accepted += s.stats().accepted;
            total.rejected += s.stats().rejected;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ammboost_amm::tx::{SwapIntent, SwapTx};
    use std::collections::HashMap;

    fn user(i: u64) -> Address {
        Address::from_index(i)
    }

    fn shard_map(pools: u32) -> ShardMap {
        let mut shards = ShardMap::new((0..pools).map(PoolId));
        for p in 0..pools {
            shards.seed_liquidity(
                PoolId(p),
                user(900 + p as u64),
                -60_000,
                60_000,
                10u128.pow(13),
                10u128.pow(13),
            );
        }
        shards
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

    /// Deposits for users 0..n, user i routed to pool i % pools.
    fn begin(shards: &mut ShardMap, users: u64, pools: u32) {
        let snapshot: HashMap<Address, (u128, u128)> = (0..users)
            .map(|i| (user(i), (1_000_000_000u128, 1_000_000_000u128)))
            .collect();
        shards.begin_epoch(snapshot, |a| {
            (0..users)
                .find(|i| user(*i) == *a)
                .map(|i| PoolId((i % pools as u64) as u32))
        });
    }

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

    #[test]
    fn routes_by_pool_id() {
        let mut shards = shard_map(4);
        begin(&mut shards, 8, 4);
        let tx = swap(user(2), 2, 50_000, true);
        let out = shards.execute(&tx, 1008, 0);
        assert!(out.accepted());
        assert_eq!(shards.get(PoolId(2)).unwrap().stats().accepted, 1);
        for p in [0u32, 1, 3] {
            assert_eq!(shards.get(PoolId(p)).unwrap().stats().accepted, 0);
        }
    }

    #[test]
    fn unknown_pool_rejected_without_state_change() {
        let mut shards = shard_map(2);
        begin(&mut shards, 4, 2);
        let tx = swap(user(1), 9, 50_000, true);
        let out = shards.execute(&tx, 1008, 0);
        assert!(!out.accepted());
        assert_eq!(shards.stats().accepted, 0);
        assert_eq!(shards.stats().rejected, 0, "no shard touched");
    }

    #[test]
    fn parallel_batch_matches_sequential_bit_for_bit() {
        let txs = batch_for(16, 4, 300);
        let batch: Vec<(&AmmTx, usize)> = txs.iter().map(|t| (t, 1008)).collect();

        let mut seq = shard_map(4);
        begin(&mut seq, 16, 4);
        let a = seq.execute_batch(&batch, 0, ExecMode::Sequential);

        let mut par = shard_map(4);
        begin(&mut par, 16, 4);
        let b = par.execute_batch(&batch, 0, ExecMode::Parallel);

        assert_eq!(a, b, "scheduling changed results");
        assert_eq!(seq.end_epoch(), par.end_epoch());
        assert_eq!(seq.export_states(), par.export_states());
    }

    #[test]
    fn injected_worker_panic_is_contained_and_bit_identical() {
        use ammboost_sim::FaultSpec;
        let txs = batch_for(16, 4, 300);
        let batch: Vec<(&AmmTx, usize)> = txs.iter().map(|t| (t, 1008)).collect();

        let mut clean = shard_map(4);
        begin(&mut clean, 16, 4);
        let reference = clean.execute_batch(&batch, 0, ExecMode::Sequential);
        let clean_epoch = clean.end_epoch();

        // the panic verdict fires before dispatch in ascending pool-id
        // order, so sequential and parallel runs consume the same
        // occurrence and contain the same shard
        for mode in [ExecMode::Sequential, ExecMode::Parallel] {
            let mut chaos = shard_map(4);
            begin(&mut chaos, 16, 4);
            let mut injector = FaultInjector::new(7);
            injector.schedule(FaultSpec {
                point: InjectionPoint::Worker(2),
                occurrence: 0,
                kind: FaultKind::Panic,
            });
            chaos.arm_chaos(Arc::new(Mutex::new(injector)));
            let out = chaos.execute_batch(&batch, 0, mode);
            assert_eq!(out, reference, "containment changed results ({mode:?})");
            assert_eq!(chaos.panics_contained(), 1, "one shard poisoned");
            assert_eq!(chaos.end_epoch(), clean_epoch);
            assert_eq!(chaos.export_states(), clean.export_states());
        }
    }

    #[test]
    fn armed_chaos_without_panics_changes_nothing() {
        use ammboost_sim::FaultSpec;
        let txs = batch_for(8, 2, 100);
        let batch: Vec<(&AmmTx, usize)> = txs.iter().map(|t| (t, 1008)).collect();

        let mut clean = shard_map(2);
        begin(&mut clean, 8, 2);
        let reference = clean.execute_batch(&batch, 0, ExecMode::Sequential);

        // a non-Panic kind at a Worker point consumes the occurrence
        // but executes normally (delivery-style kinds have no meaning
        // inside a shard job)
        let mut chaos = shard_map(2);
        begin(&mut chaos, 8, 2);
        let mut injector = FaultInjector::new(7);
        injector.schedule(FaultSpec {
            point: InjectionPoint::Worker(1),
            occurrence: 0,
            kind: FaultKind::Delay { millis: 5 },
        });
        chaos.arm_chaos(Arc::new(Mutex::new(injector)));
        let out = chaos.execute_batch(&batch, 0, ExecMode::Parallel);
        assert_eq!(out, reference);
        assert_eq!(chaos.panics_contained(), 0);
        assert_eq!(chaos.export_states(), clean.export_states());
    }

    #[test]
    fn batch_preserves_submission_order_per_pool() {
        let mut shards = shard_map(2);
        begin(&mut shards, 4, 2);
        let txs = batch_for(4, 2, 10);
        let batch: Vec<(&AmmTx, usize)> = txs.iter().map(|t| (t, 1008)).collect();
        let out = shards.execute_batch(&batch, 0, ExecMode::Parallel);
        assert_eq!(out.len(), txs.len());
        for (i, executed) in out.iter().enumerate() {
            assert_eq!(&executed.tx, &txs[i], "order scrambled at {i}");
        }
    }

    #[test]
    fn end_epoch_merges_sorted_payouts_and_pool_updates() {
        let mut shards = shard_map(3);
        begin(&mut shards, 9, 3);
        for tx in batch_for(9, 3, 30) {
            assert!(shards.execute(&tx, 1008, 0).accepted());
        }
        let (payouts, _, pools) = shards.end_epoch();
        assert_eq!(payouts.len(), 9, "one payout per depositor");
        assert!(payouts.windows(2).all(|w| w[0].user < w[1].user));
        assert_eq!(pools.len(), 3, "one update per shard");
        assert!(pools.windows(2).all(|w| w[0].pool < w[1].pool));
    }

    #[test]
    fn merged_deposits_union_all_shards() {
        let mut shards = shard_map(2);
        begin(&mut shards, 6, 2);
        let merged = shards.merged_deposits();
        assert_eq!(merged.len(), 6);
        for i in 0..6 {
            assert_eq!(merged.get(&user(i)), (1_000_000_000, 1_000_000_000));
        }
    }

    #[test]
    #[should_panic(expected = "duplicate pool ids")]
    fn duplicate_pools_rejected() {
        ShardMap::new([PoolId(1), PoolId(1)]);
    }

    // ---- cross-pool routing -------------------------------------------------

    use ammboost_amm::tx::{RouteHop, RouteTx};

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
        let mut shards = shard_map(3);
        begin(&mut shards, 6, 3);
        // user 0 is homed on pool 0; route 0 → 1 → 2
        let tx = route(user(0), &[0, 1, 2], true, 100_000);
        let out = shards.execute(&tx, 1072, 0);
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
        for p in 0..3u32 {
            let balances = shards.get(PoolId(p)).unwrap().pool().balances();
            assert_ne!(
                (balances.amount0, balances.amount1),
                (10u128.pow(13), 10u128.pow(13)),
                "pool {p} untouched"
            );
        }
        // deposit netted on the home shard only: -in on token0, +out on
        // token1 (3 hops: 0→1, 1→0, 0→1)
        let (d0, d1) = shards.get(PoolId(0)).unwrap().deposits().get(&user(0));
        assert_eq!(d0, 1_000_000_000 - 100_000);
        assert_eq!(d1, 1_000_000_000 + amount_out);
        // accounting lands on the home shard
        assert_eq!(shards.get(PoolId(0)).unwrap().stats().accepted, 1);
        assert_eq!(shards.get(PoolId(1)).unwrap().stats().accepted, 0);
        // the netting ledger folded 6 flows into 1 net entry
        assert_eq!(shards.epoch_netting().route_count(), 1);
        assert_eq!(shards.epoch_netting().flow_count(), 6);
        assert_eq!(shards.epoch_netting().net_entry_count(), 1);
        assert!(
            shards.epoch_netting().netted_settlement_bytes()
                < shards.epoch_netting().naive_settlement_bytes()
        );
    }

    #[test]
    fn route_rejections_are_typed_and_stateless() {
        let mut shards = shard_map(3);
        begin(&mut shards, 6, 3);
        let states_before = shards.export_states();

        // duplicate pool → the typed DuplicatePool shape error
        let dup = route(user(0), &[0, 1, 0], true, 10_000);
        let out = shards.execute(&dup, 1072, 0);
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
        let out = shards.execute(&broken, 1072, 0);
        assert!(!out.accepted());

        // unknown pool
        let stray = route(user(0), &[0, 9], true, 10_000);
        let out = shards.execute(&stray, 1072, 0);
        let TxEffect::Rejected { reason } = &out.effect else {
            panic!()
        };
        assert!(reason.contains("unknown pool"), "reason: {reason}");

        // insufficient deposit
        let broke = route(user(0), &[0, 1], true, u128::MAX >> 8);
        let out = shards.execute(&broke, 1072, 0);
        let TxEffect::Rejected { reason } = &out.effect else {
            panic!()
        };
        assert!(reason.contains("insufficient deposit"), "reason: {reason}");

        // none of the rejections touched pool or deposit state; the
        // rejection *counters* land on the issuer's home shard
        for (before, after) in states_before.iter().zip(shards.export_states()) {
            assert_eq!(before.pool, after.pool, "pool state mutated");
            assert_eq!(before.deposits, after.deposits, "deposits mutated");
        }
        assert_eq!(shards.get(PoolId(0)).unwrap().stats().rejected, 4);
        assert_eq!(shards.epoch_netting().route_count(), 0);
    }

    #[test]
    fn routed_batch_parallel_matches_sequential() {
        // a mixed batch: plain swaps interleaved with routes whose waves
        // overlap on the same pools
        let txs: Vec<AmmTx> = (0..60u64)
            .flat_map(|i| {
                let u = i % 12;
                vec![
                    swap(user(u), (u % 4) as u32, 10_000 + i as u128, i % 2 == 0),
                    route(
                        user(u),
                        &[(u % 4) as u32, ((u + 1) % 4) as u32, ((u + 2) % 4) as u32],
                        i % 2 == 1,
                        20_000 + i as u128,
                    ),
                ]
            })
            .collect();
        let batch: Vec<(&AmmTx, usize)> = txs.iter().map(|t| (t, 1040)).collect();

        let mut seq = shard_map(4);
        begin(&mut seq, 12, 4);
        let a = seq.execute_batch(&batch, 0, ExecMode::Sequential);

        let mut par = shard_map(4);
        begin(&mut par, 12, 4);
        let b = par.execute_batch(&batch, 0, ExecMode::Parallel);

        assert!(
            a.iter().any(|e| matches!(e.effect, TxEffect::Route { .. })),
            "routes must flow"
        );
        assert_eq!(a, b, "scheduling changed routed results");
        assert_eq!(seq.end_epoch(), par.end_epoch());
        assert_eq!(seq.export_states(), par.export_states());
        assert_eq!(seq.epoch_netting(), par.epoch_netting());
    }

    #[test]
    fn partial_mid_route_fill_strands_no_tokens() {
        // pool 1's liquidity is microscopic: hop 0's output overwhelms
        // it, so hop 1 consumes only part of its input. The unconsumed
        // intermediate tokens must come back to the user — global
        // deposit ↔ pool conservation holds and the deposit write
        // equals the netting ledger's net delta exactly.
        let mut shards = ShardMap::new([PoolId(0), PoolId(1)]);
        shards.seed_liquidity(
            PoolId(0),
            user(900),
            -60_000,
            60_000,
            10u128.pow(13),
            10u128.pow(13),
        );
        shards.seed_liquidity(PoolId(1), user(901), -600, 600, 2_000, 2_000);
        let deposit = 1_000_000_000u128;
        shards.begin_epoch([(user(0), (deposit, deposit))], |_| Some(PoolId(0)));
        let pool_before: Vec<(u128, u128)> = [0u32, 1]
            .iter()
            .map(|&p| {
                let b = shards.get(PoolId(p)).unwrap().pool().balances();
                (b.amount0, b.amount1)
            })
            .collect();

        let tx = route(user(0), &[0, 1], true, 50_000_000);
        let out = shards.execute(&tx, 1040, 0);
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

        // global conservation: user deltas mirror pool deltas
        let (d0, d1) = shards.get(PoolId(0)).unwrap().deposits().get(&user(0));
        let mut pool_delta0 = 0i128;
        let mut pool_delta1 = 0i128;
        for (i, &p) in [0u32, 1].iter().enumerate() {
            let b = shards.get(PoolId(p)).unwrap().pool().balances();
            pool_delta0 += b.amount0 as i128 - pool_before[i].0 as i128;
            pool_delta1 += b.amount1 as i128 - pool_before[i].1 as i128;
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

        // the deposit write equals the ledger's net delta
        let nets = shards.epoch_netting().net_entries();
        assert_eq!(nets.len(), 1);
        let (_, (n0, n1)) = nets[0];
        assert_eq!(d0 as i128, deposit as i128 + n0);
        assert_eq!(d1 as i128, deposit as i128 + n1);
    }

    #[test]
    fn restored_map_preserves_home_routing() {
        let mut shards = shard_map(2);
        begin(&mut shards, 4, 2);
        assert_eq!(shards.home_shard_of(&user(1)), Some(PoolId(1)));
        let rebuilt = ShardMap::from_processors(shards.iter().cloned().collect::<Vec<_>>());
        assert_eq!(rebuilt.home_shard_of(&user(1)), Some(PoolId(1)));
        assert_eq!(rebuilt.home_shard_of(&user(900)), None);
    }
}
