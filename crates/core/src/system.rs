//! The full ammBoost system: mainchain (TokenBank + ERC20s), sidechain
//! (processor + ledger), consensus (election, DKG, TSQC, PBFT latency),
//! traffic, syncing, pruning, and interruption recovery — the machinery
//! behind every experiment in the paper's §VI.
//!
//! One `System::run` executes the configured number of epochs and returns
//! a [`SystemReport`] with the metrics of §VI-A: throughput, sidechain
//! transaction latency, payout latency, gas, and main/side chain growth.
//!
//! ## Scale note (see the README, "Sync authentication", for what else is
//! substituted)
//! Committee *latency* is modelled at the configured committee size
//! (e.g. 500) via the Table-XII-calibrated [`AgreementModel`], while the
//! threshold cryptography (DKG + TSQC) executes for real on a reduced
//! "crypto committee" (`crypto_committee_faults`, default `f = 4` →
//! 14 members, threshold 10) so that multi-million-transaction runs remain
//! tractable. Every cryptographic check TokenBank performs is genuine.

use crate::checkpoint::checkpoint_node;
use crate::config::{DepositPolicy, SystemConfig};
use crate::shard::{ExecMode, ShardMap};
use crate::view::QuoteView;
use ammboost_amm::tx::AmmTx;
use ammboost_amm::types::PoolId;
use ammboost_consensus::election::{draw_tickets, elect_committee, Committee, MinerRecord};
use ammboost_consensus::latency::AgreementModel;
use ammboost_consensus::pbft::{run_consensus, Behavior};
use ammboost_crypto::bls::PublicKey;
use ammboost_crypto::dkg::{run_ceremony, DkgConfig, DkgOutput};
use ammboost_crypto::tsqc::{partial_sign_digest, QuorumCertificate};
use ammboost_crypto::vrf::VrfSecretKey;
use ammboost_crypto::{Address, H256};
use ammboost_mainchain::chain::{Mainchain, TxId, TxSpec};
use ammboost_mainchain::contracts::token_bank::{SyncInput, SyncReceipt};
use ammboost_mainchain::contracts::{Erc20, TokenBank};
use ammboost_mainchain::gas::GasMeter;
use ammboost_sidechain::block::{MetaBlock, SummaryBlock};
use ammboost_sidechain::ledger::Ledger;
use ammboost_sidechain::summary::{Deposits, PayoutEntry, PoolUpdate, PositionEntry};
use ammboost_sim::metrics::LatencyStats;
use ammboost_sim::rng::DetRng;
use ammboost_sim::time::{SimDuration, SimTime};
use ammboost_sim::{FaultInjector, FaultKind, FaultSpec, InjectionPoint};
use ammboost_state::snapshot::Snapshot;
use ammboost_state::{prune_to_snapshot, CheckpointStats, Checkpointer, RetentionPolicy};
use ammboost_workload::{GeneratorConfig, QuoteRequest, TrafficGenerator};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};

/// Everything a run measures (the §VI-A metric list).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SystemReport {
    /// Transactions generated.
    pub submitted: u64,
    /// Transactions accepted into meta-blocks.
    pub accepted: u64,
    /// Transactions rejected by validation.
    pub rejected: u64,
    /// Transactions still queued when the run ended (after drain this is
    /// zero).
    pub leftover_queue: u64,
    /// Throughput in processed transactions/second over the active window.
    pub throughput_tps: f64,
    /// Mean sidechain transaction latency (submission → meta-block),
    /// seconds.
    pub avg_sc_latency_secs: f64,
    /// Mean payout latency (submission → sync confirmation), seconds.
    pub avg_payout_latency_secs: f64,
    /// Total mainchain gas consumed (deposits + approvals + syncs).
    pub mainchain_gas: u64,
    /// Gas spent on syncs alone.
    pub sync_gas: u64,
    /// Gas spent on deposits + approvals.
    pub deposit_gas: u64,
    /// Mainchain growth in bytes.
    pub mainchain_growth_bytes: u64,
    /// Sidechain size at the end (after pruning).
    pub sidechain_bytes: u64,
    /// Peak sidechain size (Table XI's "max sc growth").
    pub sidechain_peak_bytes: u64,
    /// Total bytes reclaimed by pruning.
    pub sidechain_pruned_bytes: u64,
    /// Syncs confirmed on the mainchain.
    pub syncs_confirmed: u64,
    /// Mass-syncs performed (recovery path).
    pub mass_syncs: u64,
    /// View changes observed.
    pub view_changes: u64,
    /// The PBFT agreement time for the configured committee/block size,
    /// seconds.
    pub agreement_secs: f64,
    /// Largest summary block produced, in bytes — the permanent per-epoch
    /// sidechain growth (Table XI's "max sc growth"; bounded by the
    /// active-user and position counts, not by traffic volume).
    pub max_summary_bytes: u64,
    /// Epochs executed.
    pub epochs: u64,
    /// Accepted multi-hop routed swaps (a subset of `accepted`).
    pub routes_accepted: u64,
    /// Route legs executed across all epochs (per-hop pool swaps whose
    /// flows netted out before settlement).
    pub route_legs_executed: u64,
    /// Merkle-committed node checkpoints taken (0 when the snapshot
    /// policy is disabled).
    pub snapshots_taken: u64,
    /// Serialized size of the last checkpoint, in bytes.
    pub last_snapshot_bytes: u64,
    /// State root of the last checkpoint.
    pub last_state_root: Option<H256>,
    /// Read-path queries answered from sealed epoch views (0 when
    /// [`SystemConfig::quote_style`] emits no quote traffic). Counted on
    /// the node's quote reader thread, which [`System::run`] joins
    /// before it returns.
    pub quotes_served: u64,
    /// Read-path queries that errored (e.g. a valuation referencing a
    /// position the sealed epoch had not yet created). Counted on the
    /// quote reader, like `quotes_served`.
    pub quotes_failed: u64,
    /// Quote views published (one per sealed epoch, plus genesis).
    pub view_publications: u64,
    /// Per-pool views reused across publications (pools the sealed epoch
    /// did not touch).
    pub view_pools_reused: u64,
    /// Per-pool views re-cloned at publication (pools the sealed epoch
    /// touched — the dirty-tracking write set).
    pub view_pools_recloned: u64,
    /// Shard worker jobs that panicked (injected via
    /// `FaultPlan::worker_panic_points`) and were contained — the
    /// poisoned shard rolled back and re-executed sequentially, the
    /// epoch completed normally.
    pub worker_panics_contained: u64,
}

/// One epoch's not-yet-synced summary material: epoch number, payout
/// list, position entries, per-pool reserve sections.
type UnsyncedEpoch = (u64, Vec<PayoutEntry>, Vec<PositionEntry>, Vec<PoolUpdate>);

enum PendingOp {
    /// A sync covering every epoch up to and including `through_epoch`;
    /// `rollback` marks the planned fork-loss fault.
    Sync { through_epoch: u64, rollback: bool },
}

/// Snapshot taken before applying a sync scheduled to be rolled back, so
/// the fork-abandonment fault can restore all affected state.
struct RollbackBackup {
    bank: TokenBank,
    token0: Erc20,
    token1: Erc20,
    registered_shares: DkgOutput,
    synced_through: u64,
}

/// Rounds of quote traffic the reader's channel holds before the main
/// thread waits for it.
const QUOTE_READER_DEPTH: usize = 4;

/// One round's quote traffic and the sealed view it is answered from.
type QuoteBatch = (Arc<QuoteView>, Vec<QuoteRequest>);

/// The in-run read path: a dedicated thread that answers each round's
/// quote requests from the sealed view they were generated under, while
/// the main thread executes the round. It is its own thread rather than
/// a [`crate::workers::WorkerPool`] job, which on a two-core host would
/// take the pool's only worker away from execution.
struct QuoteReader {
    batches: SyncSender<QuoteBatch>,
    handle: JoinHandle<(u64, u64)>,
}

impl QuoteReader {
    fn spawn() -> QuoteReader {
        let (batches, inbox) = sync_channel::<QuoteBatch>(QUOTE_READER_DEPTH);
        let handle = thread::Builder::new()
            .name("quote-reader".into())
            .spawn(move || {
                let reader = Address::from_pubkey_bytes(b"quote-reader");
                let (mut served, mut failed) = (0, 0);
                for (view, requests) in inbox {
                    let (s, f) = answer_quotes(&view, requests, reader);
                    served += s;
                    failed += f;
                }
                (served, failed)
            })
            .expect("spawn the quote reader thread");
        QuoteReader { batches, handle }
    }

    /// Closes the channel and joins the reader once it has answered every
    /// batch sent: `(served, failed)`. A panic on the reader resumes here.
    fn finish(self) -> (u64, u64) {
        drop(self.batches);
        self.handle
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    }
}

/// Answers one round's quote requests from `view`: `(served, failed)`.
/// `reader` is the user routes are simulated for.
fn answer_quotes(view: &QuoteView, requests: Vec<QuoteRequest>, reader: Address) -> (u64, u64) {
    let total = requests.len() as u64;
    let mut served = 0;
    for req in requests {
        let ok = match req {
            QuoteRequest::Swap {
                pool,
                zero_for_one,
                amount_in,
            } => view
                .quote_swap(
                    pool,
                    zero_for_one,
                    ammboost_amm::pool::SwapKind::ExactInput(amount_in),
                    None,
                )
                .is_ok(),
            QuoteRequest::Route { hops, amount_in } => {
                let route = ammboost_amm::tx::RouteTx {
                    user: reader,
                    hops,
                    amount_in,
                    min_amount_out: 0,
                    deadline_round: u64::MAX,
                };
                view.simulate_route(&route).is_ok()
            }
            QuoteRequest::Valuation { pool, position } => {
                view.value_position(pool, &position).is_ok()
            }
        };
        served += u64::from(ok);
    }
    (served, total - served)
}

/// The assembled system.
pub struct System {
    cfg: SystemConfig,
    chain: Mainchain,
    bank: TokenBank,
    token0: Erc20,
    token1: Erc20,
    shards: ShardMap,
    ledger: Ledger,
    generator: TrafficGenerator,
    miners: Vec<MinerRecord>,
    miner_sks: Vec<VrfSecretKey>,
    agreement: AgreementModel,
    /// Shares matching the vk currently registered in TokenBank.
    registered_shares: DkgOutput,
    /// DKG for the next committee (its vk rides the next sync).
    next_dkg: DkgOutput,
    committees: Vec<Committee>,
    queue: VecDeque<(SimTime, ammboost_amm::tx::AmmTx, usize)>,
    awaiting_payout: BTreeMap<u64, Vec<SimTime>>,
    unsynced: Vec<UnsyncedEpoch>,
    pending_ops: Vec<(TxId, PendingOp)>,
    rollback_backup: Option<RollbackBackup>,
    /// Highest epoch covered by a submitted (not reverted) sync.
    synced_through: u64,
    // metrics
    sc_latency: LatencyStats,
    payout_latency: LatencyStats,
    submitted: u64,
    accepted: u64,
    rejected: u64,
    view_changes: u64,
    mass_syncs: u64,
    routes_accepted: u64,
    route_legs_executed: u64,
    syncs_confirmed: u64,
    sync_gas: u64,
    deposit_gas: u64,
    max_summary_bytes: u64,
    /// Batch schedule: [`ExecMode::Auto`] always; only the unit tests
    /// below force the other two, to show the choice is unobservable.
    exec_mode: ExecMode,
    /// The current sealed-epoch quote view (epoch N's view while epoch
    /// N+1 executes; genesis view before epoch 1).
    quote_view: Option<Arc<QuoteView>>,
    /// Answers in-run quote traffic beside execution; started on the
    /// first round with quote requests, joined by [`System::run`].
    quote_reader: Option<QuoteReader>,
    /// Quote counts of joined readers (and of the inline test oracle).
    quotes_served: u64,
    quotes_failed: u64,
    /// Answers quotes on the main thread instead of the reader: the
    /// oracle the unit tests below compare the reader against.
    #[cfg(test)]
    inline_quotes: bool,
    view_publications: u64,
    view_pools_reused: u64,
    view_pools_recloned: u64,
    checkpointer: Checkpointer,
    snapshots_taken: u64,
    last_checkpoint: Option<CheckpointStats>,
    /// The most recent node snapshot (kept for restart/fast-sync drills).
    last_snapshot: Option<Snapshot>,
    /// The delta the most recent checkpoint emitted against the previous
    /// one (absent on the first checkpoint and after restarts).
    last_delta: Option<ammboost_state::DeltaSnapshot>,
    last_sync_receipt: Option<SyncReceipt>,
    sync_certificates: Vec<(PublicKey, QuorumCertificate)>,
}

impl System {
    /// Builds a system from a configuration: deploys contracts, funds
    /// users, seeds pool liquidity, registers the genesis committee.
    pub fn new(cfg: SystemConfig) -> System {
        let mut rng = DetRng::new(cfg.seed);
        let crypto_cfg = DkgConfig::for_faults(cfg.crypto_committee_faults);
        let genesis_dkg = run_ceremony(crypto_cfg, cfg.seed ^ 0xD16);
        let next_dkg = run_ceremony(crypto_cfg, cfg.seed ^ 0xD16 ^ 1);

        let mut bank = TokenBank::deploy(genesis_dkg.group_public_key);
        let mut token0 = Erc20::new("TKA");
        let mut token1 = Erc20::new("TKB");
        assert!(cfg.pools >= 1, "a system needs at least one pool");
        let pool_ids: Vec<PoolId> = (0..cfg.pools).map(PoolId).collect();
        for pool in &pool_ids {
            bank.create_pool(*pool, &mut GasMeter::new());
        }

        let generator = TrafficGenerator::new(GeneratorConfig {
            daily_volume: cfg.daily_volume,
            mix: cfg.mix,
            users: cfg.users,
            round_duration: cfg.round_duration,
            pools: pool_ids.clone(),
            skew: cfg.traffic_skew,
            route_style: cfg.route_style,
            engine_mix: cfg.engine_mix,
            deadline_slack_rounds: 1_000_000,
            max_positions_per_user: 1,
            liquidity_style: cfg.liquidity_style,
            quote_style: cfg.quote_style,
            seed: cfg.seed ^ 0x7AFF,
        });

        // faucet: users get enough for all their deposits; the bank gets
        // the genesis pool reserves (backing payouts of trading gains)
        let per_user = cfg
            .deposit_amount
            .saturating_mul(cfg.epochs as u128 + 1)
            .saturating_mul(2);
        for user in generator.users() {
            token0.mint(user, per_user);
            token1.mint(user, per_user);
        }
        let seed_liquidity: u128 = 4_000_000_000_000_000;
        token0.mint(bank.address, seed_liquidity * 2 * cfg.pools as u128);
        token1.mint(bank.address, seed_liquidity * 2 * cfg.pools as u128);

        let mut shards = ShardMap::new_with_engines(generator.fleet());
        if !cfg.faults.worker_panic_points.is_empty() {
            // arm deterministic worker-panic injection: each (pool,
            // occurrence) pair panics that pool's shard job on its
            // `occurrence`-th phase-1a dispatch; the shard map contains
            // the panic and the run completes (graceful degradation)
            let mut injector = FaultInjector::new(cfg.seed ^ 0xC8A0);
            injector.schedule_all(cfg.faults.worker_panic_points.iter().map(
                |&(pool, occurrence)| FaultSpec {
                    point: InjectionPoint::Worker(pool),
                    occurrence,
                    kind: FaultKind::Panic,
                },
            ));
            shards.arm_chaos(Arc::new(Mutex::new(injector)));
        }
        for pool in &pool_ids {
            shards.seed_liquidity(
                *pool,
                Address::from_pubkey_bytes(b"genesis-lp"),
                -120_000,
                120_000,
                seed_liquidity,
                seed_liquidity,
            );
        }

        // sidechain miner population with VRF identities
        let mut miners = Vec::with_capacity(cfg.miner_population);
        let mut miner_sks = Vec::with_capacity(cfg.miner_population);
        for i in 0..cfg.miner_population as u64 {
            let sk = VrfSecretKey::from_entropy(rng.entropy32());
            miners.push(MinerRecord {
                id: i,
                vrf_pk: sk.public_key(),
                stake: 100 + (i % 17) * 10,
            });
            miner_sks.push(sk);
        }

        // seal genesis: readers can quote against the seeded pools before
        // epoch 1 executes
        let (genesis_view, view_stats) = shards.publish_view(0);

        let genesis_ref = H256::hash(b"mainchain-block-containing-token-bank");
        System {
            chain: Mainchain::new(cfg.mainchain),
            bank,
            token0,
            token1,
            shards,
            ledger: Ledger::new(genesis_ref),
            generator,
            miners,
            miner_sks,
            agreement: AgreementModel::default(),
            registered_shares: genesis_dkg,
            next_dkg,
            committees: Vec::new(),
            queue: VecDeque::new(),
            awaiting_payout: BTreeMap::new(),
            unsynced: Vec::new(),
            pending_ops: Vec::new(),
            rollback_backup: None,
            synced_through: 0,
            sc_latency: LatencyStats::new(),
            payout_latency: LatencyStats::new(),
            submitted: 0,
            accepted: 0,
            rejected: 0,
            view_changes: 0,
            mass_syncs: 0,
            routes_accepted: 0,
            route_legs_executed: 0,
            syncs_confirmed: 0,
            sync_gas: 0,
            deposit_gas: 0,
            max_summary_bytes: 0,
            exec_mode: ExecMode::Auto,
            quote_view: Some(genesis_view),
            quote_reader: None,
            quotes_served: 0,
            quotes_failed: 0,
            #[cfg(test)]
            inline_quotes: false,
            view_publications: 1,
            view_pools_reused: view_stats.reused as u64,
            view_pools_recloned: view_stats.recloned as u64,
            checkpointer: Checkpointer::new(),
            snapshots_taken: 0,
            last_checkpoint: None,
            last_snapshot: None,
            last_delta: None,
            last_sync_receipt: None,
            sync_certificates: Vec::new(),
            cfg,
        }
    }

    /// The elected committees so far (one per epoch).
    pub fn committees(&self) -> &[Committee] {
        &self.committees
    }

    /// Read access to the TokenBank.
    pub fn bank(&self) -> &TokenBank {
        &self.bank
    }

    /// Read access to the sidechain ledger.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// Read access to the mainchain.
    pub fn chain(&self) -> &Mainchain {
        &self.chain
    }

    /// Read access to the execution shards (one processor per pool; for
    /// single-pool configurations, `shards().first()` is the processor).
    pub fn shards(&self) -> &ShardMap {
        &self.shards
    }

    /// Read access to the traffic generator.
    pub fn generator(&self) -> &TrafficGenerator {
        &self.generator
    }

    /// The most recent sync receipt (itemization source for Table II).
    pub fn last_sync_receipt(&self) -> Option<&SyncReceipt> {
        self.last_sync_receipt.as_ref()
    }

    /// Every sync certificate issued, in submission order, with the
    /// committee key it was issued (and checked by the bank) under.
    pub fn sync_certificates(&self) -> &[(PublicKey, QuorumCertificate)] {
        &self.sync_certificates
    }

    /// The current sealed-epoch quote view: epoch N's immutable state
    /// while epoch N+1 executes (the genesis view before epoch 1). Clone
    /// the `Arc` out to serve reads from any thread.
    pub fn quote_view(&self) -> Option<Arc<QuoteView>> {
        self.quote_view.clone()
    }

    /// Seals `epoch` for readers: publishes the post-epoch [`QuoteView`]
    /// (re-cloning only the pools the epoch touched) and rolls the
    /// publication counters.
    fn publish_view(&mut self, epoch: u64) {
        let (view, stats) = self.shards.publish_view(epoch);
        self.quote_view = Some(view);
        self.view_publications += 1;
        self.view_pools_reused += stats.reused as u64;
        self.view_pools_recloned += stats.recloned as u64;
    }

    /// Generates this round's quote traffic and hands it, with the
    /// current sealed view, to the quote reader, which answers it while
    /// this thread executes the round. Readers never touch the live
    /// shards — a quote observes exactly the last sealed epoch, never a
    /// partially-executed one. The reader is spawned on the first round
    /// that has quote requests, so a run without quote traffic never
    /// starts it.
    fn serve_quotes(&mut self) {
        // generated here, not on the reader: requests depend on generator
        // state (tracked positions) and must keep their order
        let requests = self.generator.next_quotes();
        if requests.is_empty() {
            return;
        }
        let view = Arc::clone(self.quote_view.as_ref().expect("genesis publishes a view"));
        #[cfg(test)]
        if self.inline_quotes {
            let reader = Address::from_pubkey_bytes(b"quote-reader");
            let (served, failed) = answer_quotes(&view, requests, reader);
            self.quotes_served += served;
            self.quotes_failed += failed;
            return;
        }
        let reader = self.quote_reader.get_or_insert_with(QuoteReader::spawn);
        if reader.batches.send((view, requests)).is_err() {
            // the reader hangs up only by panicking: joining re-raises it
            self.join_quote_reader();
        }
    }

    /// Closes the quote reader's channel, waits for it to answer every
    /// queued batch and adds its counts to the run's; re-raises a panic
    /// on the reader. A no-op when no reader was started.
    fn join_quote_reader(&mut self) {
        if let Some(reader) = self.quote_reader.take() {
            let (served, failed) = reader.finish();
            self.quotes_served += served;
            self.quotes_failed += failed;
        }
    }

    /// Runs the configured number of epochs (plus queue drain) and
    /// reports. The system remains inspectable afterwards (e.g.
    /// [`System::last_sync_receipt`], [`System::bank`]).
    pub fn run(&mut self) -> SystemReport {
        let warmup = SimDuration::from_secs(60);
        let t0 = SimTime::ZERO + warmup;

        // deposits backing epoch 1 (and the committee for epoch 1)
        self.submit_deposits(SimTime::ZERO, 1);
        self.chain.advance_to(t0);
        self.handle_confirmations();

        for epoch in 1..=self.cfg.epochs {
            let epoch_start = t0 + self.cfg.epoch_duration().saturating_mul(epoch - 1);
            self.run_epoch(epoch, epoch_start);
        }

        // drain the queue (paper: queues are emptied after each run)
        let run_end = t0 + self.cfg.run_duration();
        let drain_end = self.drain_queue(run_end);

        // settle any outstanding sync confirmations
        self.chain
            .advance_to(drain_end + SimDuration::from_secs(120));
        self.handle_confirmations();

        self.join_quote_reader();

        let active_window = drain_end.since(t0);
        let throughput = if active_window.as_secs_f64() > 0.0 {
            self.accepted as f64 / active_window.as_secs_f64()
        } else {
            0.0
        };

        SystemReport {
            submitted: self.submitted,
            accepted: self.accepted,
            rejected: self.rejected,
            leftover_queue: self.queue.len() as u64,
            throughput_tps: throughput,
            avg_sc_latency_secs: self.sc_latency.mean_secs(),
            avg_payout_latency_secs: self.payout_latency.mean_secs(),
            mainchain_gas: self.chain.total_gas(),
            sync_gas: self.sync_gas,
            deposit_gas: self.deposit_gas,
            mainchain_growth_bytes: self.chain.growth_bytes(),
            sidechain_bytes: self.ledger.size_bytes(),
            sidechain_peak_bytes: self.ledger.peak_bytes(),
            sidechain_pruned_bytes: self.ledger.pruned_bytes(),
            syncs_confirmed: self.syncs_confirmed,
            mass_syncs: self.mass_syncs,
            view_changes: self.view_changes,
            agreement_secs: self
                .agreement
                .agreement_time(self.cfg.committee_size, self.cfg.meta_block_bytes)
                .as_secs_f64(),
            max_summary_bytes: self.max_summary_bytes,
            epochs: self.cfg.epochs,
            routes_accepted: self.routes_accepted,
            route_legs_executed: self.route_legs_executed,
            snapshots_taken: self.snapshots_taken,
            last_snapshot_bytes: self.last_checkpoint.map(|c| c.snapshot_bytes).unwrap_or(0),
            last_state_root: self.last_checkpoint.map(|c| c.root),
            quotes_served: self.quotes_served,
            quotes_failed: self.quotes_failed,
            view_publications: self.view_publications,
            view_pools_reused: self.view_pools_reused,
            view_pools_recloned: self.view_pools_recloned,
            worker_panics_contained: self.shards.panics_contained(),
        }
    }

    /// Takes an on-demand Merkle-committed checkpoint of the sidechain
    /// node state (processor + ledger) and returns its stats. The
    /// snapshot itself stays retrievable via [`System::last_snapshot`].
    pub fn checkpoint(&mut self, epoch: u64) -> CheckpointStats {
        let output = checkpoint_node(
            &mut self.checkpointer,
            epoch,
            &mut self.shards,
            &self.ledger,
        );
        self.snapshots_taken += 1;
        let stats = output.stats;
        self.last_checkpoint = Some(stats);
        self.last_delta = output.delta;
        self.last_snapshot = Some(output.snapshot);
        stats
    }

    /// The most recent node snapshot, if any checkpoint was taken.
    pub fn last_snapshot(&self) -> Option<&Snapshot> {
        self.last_snapshot.as_ref()
    }

    /// The page-granular delta the most recent checkpoint emitted against
    /// its predecessor, if any (the first checkpoint has no base).
    pub fn last_delta(&self) -> Option<&ammboost_state::DeltaSnapshot> {
        self.last_delta.as_ref()
    }

    /// Stats of the most recent checkpoint.
    pub fn last_checkpoint(&self) -> Option<&CheckpointStats> {
        self.last_checkpoint.as_ref()
    }

    /// Forces a batch schedule other than the node's own choice.
    #[cfg(test)]
    fn set_exec_mode(&mut self, mode: ExecMode) {
        self.exec_mode = mode;
    }

    /// Answers quotes inline on the main thread instead of on the reader.
    #[cfg(test)]
    fn set_inline_quotes(&mut self) {
        self.inline_quotes = true;
    }

    fn run_epoch(&mut self, epoch: u64, epoch_start: SimTime) {
        // --- committee election (validated VRF sortition) ---
        let seed = H256::hash_concat(&[
            b"epoch-seed",
            &self.cfg.seed.to_be_bytes(),
            &epoch.to_be_bytes(),
        ]);
        let committee_size = self.cfg.committee_size.min(self.miners.len());
        let tickets = draw_tickets(&self.miner_sks, &self.miners, &seed, epoch);
        let committee = elect_committee(&self.miners, &tickets, &seed, epoch, committee_size)
            .expect("population exceeds committee size");
        self.committees.push(committee);

        // --- SnapshotBank (or carry-over when the previous epoch's sync
        // is missing and a mass-sync is owed, paper §IV-C) ---
        if self.synced_through >= epoch - 1 {
            let snapshot = self.bank.snapshot_deposits(epoch);
            let generator = &self.generator;
            self.shards
                .begin_epoch(snapshot, |user| generator.pool_for(user));
        } else {
            self.shards.carry_over_epoch();
        }

        // --- per-epoch deposits for the next epoch ---
        if self.cfg.deposit_policy == DepositPolicy::PerEpoch && epoch < self.cfg.epochs {
            self.submit_deposits(epoch_start, epoch + 1);
        }

        // --- fault-driven PBFT run for round 0, if scheduled ---
        let mut round0_penalty = SimDuration::ZERO;
        let leader_behavior = if self.cfg.faults.silent_leader_epochs.contains(&epoch) {
            Some(Behavior::Silent)
        } else if self.cfg.faults.invalid_proposal_epochs.contains(&epoch) {
            Some(Behavior::ProposesInvalid)
        } else {
            None
        };
        if let Some(behavior) = leader_behavior {
            let n = 3 * self.cfg.crypto_committee_faults + 2;
            let mut behaviors = vec![Behavior::Honest; n];
            behaviors[0] = behavior;
            let outcome = run_consensus(&behaviors, H256::hash(b"round-0-proposal"), 8);
            assert!(outcome.decided.is_some(), "liveness lost under f faults");
            self.view_changes += outcome.view_changes;
            round0_penalty = self
                .agreement
                .view_change_time(self.cfg.committee_size, self.cfg.meta_block_bytes)
                .saturating_mul(outcome.view_changes);
        }

        // --- rounds: ω−1 meta-block rounds, then the summary round ---
        // (the epoch's last round is spent mining the summary-block, so no
        // transactions are processed in it — this is what makes short
        // epochs lose throughput in the paper's Table X)
        for round in 0..self.cfg.rounds_per_epoch {
            let global_round = (epoch - 1) * self.cfg.rounds_per_epoch + round;
            let round_start = epoch_start + self.cfg.round_duration.saturating_mul(round);
            let mut round_end = round_start + self.cfg.round_duration;
            if round == 0 {
                round_end += round0_penalty;
            }

            // arrivals spread uniformly across the round
            let batch = self.generator.next_round(global_round);
            let n = batch.len() as u64;
            for (i, gtx) in batch.into_iter().enumerate() {
                let offset = SimDuration::from_millis(
                    self.cfg.round_duration.as_millis() * i as u64 / n.max(1),
                );
                self.queue
                    .push_back((round_start + offset, gtx.tx, gtx.wire_size));
                self.submitted += 1;
            }

            // read traffic rides along: quotes are answered from the last
            // sealed epoch's view, never from the live shards this round
            // is mutating
            self.serve_quotes();

            if round < self.cfg.rounds_per_epoch - 1 {
                self.mine_meta_block(epoch, round, global_round, round_end);
            }
            self.chain.advance_to(round_end);
            self.handle_confirmations();
        }

        // --- epoch end: summary, sync, pruning trigger ---
        let epoch_end = epoch_start + self.cfg.epoch_duration();
        self.close_epoch(epoch, epoch_end);
    }

    /// Pops queued transactions under the meta-block byte budget — and,
    /// when `arrival_cutoff` is given, arriving before it — executes the
    /// batch across the shards (per-pool sub-batches on scoped threads,
    /// effects back in submission order) and applies acceptance
    /// bookkeeping against `payout_epoch`. Shared by in-run rounds and
    /// the end-of-run drain so their accounting can never drift apart.
    fn execute_queued_batch(
        &mut self,
        arrival_cutoff: Option<SimTime>,
        round_end: SimTime,
        global_round: u64,
        payout_epoch: u64,
    ) -> Vec<ammboost_sidechain::block::ExecutedTx> {
        let mut popped: Vec<(SimTime, AmmTx, usize)> = Vec::new();
        let mut bytes = 0usize;
        while let Some((arrival, _, size)) = self.queue.front() {
            let past_cutoff = arrival_cutoff.is_some_and(|cutoff| *arrival >= cutoff);
            if past_cutoff || bytes + size > self.cfg.meta_block_bytes {
                break;
            }
            let entry = self.queue.pop_front().expect("front checked");
            bytes += entry.2;
            popped.push(entry);
        }
        let batch: Vec<(&AmmTx, usize)> = popped.iter().map(|(_, tx, size)| (tx, *size)).collect();
        let executed = self
            .shards
            .execute_batch(&batch, global_round, self.exec_mode);
        for ((arrival, _, _), out) in popped.iter().zip(&executed) {
            if out.accepted() {
                self.accepted += 1;
                self.sc_latency.record(round_end.since(*arrival));
                self.awaiting_payout
                    .entry(payout_epoch)
                    .or_default()
                    .push(*arrival);
                match &out.effect {
                    // feed back deleted positions so traffic stops
                    // referencing them
                    ammboost_sidechain::block::TxEffect::Burn {
                        position,
                        deleted: true,
                        ..
                    } => {
                        self.generator.forget_position(*position);
                    }
                    ammboost_sidechain::block::TxEffect::Route { legs, .. } => {
                        self.routes_accepted += 1;
                        self.route_legs_executed += legs.len() as u64;
                    }
                    _ => {}
                }
            } else {
                self.rejected += 1;
            }
        }
        executed
    }

    fn mine_meta_block(&mut self, epoch: u64, round: u64, global_round: u64, round_end: SimTime) {
        let executed = self.execute_queued_batch(Some(round_end), round_end, global_round, epoch);
        let block = MetaBlock::new(epoch, round, self.ledger.tip(), executed);
        self.ledger
            .append_meta(block)
            .expect("locally mined meta-block chains correctly");
    }

    fn close_epoch(&mut self, epoch: u64, epoch_end: SimTime) {
        let (payouts, positions, pool_updates) = self.shards.end_epoch();
        // the epoch is sealed: publish its state for concurrent readers
        // before anything else mutates the shards
        self.publish_view(epoch);
        let summary = SummaryBlock {
            epoch,
            parent: self.ledger.tip(),
            meta_refs: self
                .ledger
                .meta_blocks(epoch)
                .iter()
                .map(|m| m.id())
                .collect(),
            payouts: payouts.clone(),
            positions: positions.clone(),
            pools: pool_updates.clone(),
        };
        self.max_summary_bytes = self.max_summary_bytes.max(summary.size_bytes() as u64);
        self.ledger
            .append_summary(summary)
            .expect("locally built summary chains correctly");

        if self.cfg.faults.invalid_sync_epochs.contains(&epoch) {
            // the leader proposed invalid Sync inputs; the committee
            // refuses to certify — no sync this epoch, mass-sync next.
            // Checkpointing is node-local and proceeds regardless.
            self.unsynced
                .push((epoch, payouts, positions, pool_updates));
            self.maybe_checkpoint(epoch);
            return;
        }

        self.unsynced
            .push((epoch, payouts, positions, pool_updates));
        let rollback = self.cfg.faults.rollback_epochs.contains(&epoch);
        self.submit_sync(epoch, epoch_end, rollback);
        self.maybe_checkpoint(epoch);
    }

    /// Checkpoints the node per the snapshot policy and applies
    /// snapshot-aware retention pruning: once an epoch is covered by both
    /// a sealed summary and a committed snapshot, its raw meta-blocks can
    /// be dropped without waiting for the sync confirmation (a restarting
    /// node restores from the snapshot instead of replaying).
    fn maybe_checkpoint(&mut self, epoch: u64) {
        if !self.cfg.snapshot.enabled() || !epoch.is_multiple_of(self.cfg.snapshot.interval_epochs)
        {
            return;
        }
        self.checkpoint(epoch);
        if !self.cfg.disable_pruning {
            prune_to_snapshot(
                &mut self.ledger,
                epoch,
                RetentionPolicy {
                    keep_epochs: self.cfg.snapshot.keep_epochs,
                },
            );
        }
    }

    /// Builds and submits a (mass-)sync covering all unsynced epochs.
    fn submit_sync(&mut self, through_epoch: u64, at: SimTime, rollback: bool) {
        debug_assert!(!self.unsynced.is_empty());
        let is_mass = self.unsynced.len() > 1;
        if is_mass {
            self.mass_syncs += 1;
        }
        // merge: union of positions and of the payouts no applied sync
        // covers yet, later epochs winning (each epoch lists what moved
        // against its own opening state, so after a refusal or a rollback
        // the bank needs every such epoch's entries), latest per-pool
        // sections (every epoch reports all pools)
        let mut payouts: BTreeMap<_, PayoutEntry> = BTreeMap::new();
        let mut merged: BTreeMap<_, PositionEntry> = BTreeMap::new();
        for (epoch, epoch_payouts, positions, _) in &self.unsynced {
            if *epoch > self.synced_through {
                payouts.extend(epoch_payouts.iter().map(|p| (p.user, *p)));
            }
            merged.extend(positions.iter().map(|p| (p.id, *p)));
        }
        let pools = self.unsynced.last().expect("non-empty").3.clone();
        let input = SyncInput {
            epoch: through_epoch,
            payouts: payouts.into_values().collect(),
            positions: merged.into_values().collect(),
            pools,
            next_vk: self.next_dkg.group_public_key,
        };

        let qc = self.certify(&input);
        #[cfg(test)]
        let oracle = self.full_list_settlement(&input);

        // apply to the bank now (full backup first when this sync is
        // scheduled to be lost to a rollback), submit the transaction for
        // gas/latency accounting
        if rollback {
            self.rollback_backup = Some(RollbackBackup {
                bank: self.bank.clone(),
                token0: self.token0.clone(),
                token1: self.token1.clone(),
                registered_shares: self.registered_shares.clone(),
                synced_through: self.synced_through,
            });
        }
        self.synced_through = through_epoch;
        let receipt = self
            .bank
            .sync(&input, &qc, &mut self.token0, &mut self.token1)
            .expect("committee-built sync must verify");

        // rollover: re-lock every payout as the next epoch's deposit,
        // beside the unlisted deposits the bank rolled over itself
        if self.cfg.deposit_policy == DepositPolicy::OncePerRun {
            for p in &input.payouts {
                self.bank
                    .relock(
                        p.user,
                        p.amount0,
                        p.amount1,
                        through_epoch + 1,
                        &mut self.token0,
                        &mut self.token1,
                    )
                    .expect("payout was just dispensed");
            }
            debug_assert!(
                Deposits::from_snapshot(self.bank.snapshot_deposits(through_epoch + 1))
                    == self.shards.merged_deposits(),
                "the bank's next bucket must mirror the sidechain ledger for every user"
            );
            #[cfg(test)]
            assert!(
                (&oracle.0, &oracle.1, &oracle.2) == (&self.bank, &self.token0, &self.token1),
                "dirty settlement through epoch {through_epoch} diverges from the full list"
            );
        }

        let tx_id = self.chain.submit(
            at,
            TxSpec {
                label: "sync".into(),
                gas: receipt.meter.total(),
                size_bytes: receipt.tx_size_bytes,
                depends_on: None,
            },
        );
        self.sync_gas += receipt.meter.total();
        self.last_sync_receipt = Some(receipt);
        self.sync_certificates
            .push((self.registered_shares.group_public_key, qc));
        self.pending_ops.push((
            tx_id,
            PendingOp::Sync {
                through_epoch,
                rollback,
            },
        ));
        // rotate committee keys: the next committee's shares will match
        // the vk just recorded
        self.registered_shares = self.next_dkg.clone();
        self.next_dkg = run_ceremony(
            DkgConfig::for_faults(self.cfg.crypto_committee_faults),
            self.cfg.seed ^ 0xD16 ^ (through_epoch + 2),
        );
    }

    /// TSQC: the committee matching the registered vk certifies `input`;
    /// the simulated members share one streamed digest of the payload.
    fn certify(&self, input: &SyncInput) -> QuorumCertificate {
        let (digest, _) = input.abi_digest();
        let threshold = self.registered_shares.config.threshold;
        let partials: Vec<_> = self.registered_shares.key_shares[..threshold]
            .iter()
            .map(|ks| partial_sign_digest(ks, &digest))
            .collect();
        QuorumCertificate::assemble_digest(input.epoch, digest, &partials, threshold)
            .expect("threshold partials available")
    }

    /// Test oracle — Fig. 4's `sumPayouts = Deposits`: settles `dirty`'s
    /// epoch(s) on clones of the bank and both ledgers with one payout
    /// per deposit, moved or not, and re-locks every entry.
    #[cfg(test)]
    fn full_list_settlement(&self, dirty: &SyncInput) -> (TokenBank, Erc20, Erc20) {
        let entry = |(user, (amount0, amount1))| PayoutEntry {
            user,
            amount0,
            amount1,
        };
        let deposits = self.shards.merged_deposits().to_sorted_entries();
        let full = SyncInput {
            payouts: deposits.into_iter().map(entry).collect(),
            ..dirty.clone()
        };
        let (mut bank, mut token0, mut token1) =
            (self.bank.clone(), self.token0.clone(), self.token1.clone());
        bank.sync(&full, &self.certify(&full), &mut token0, &mut token1)
            .expect("the full list is certified like the dirty one");
        for p in &full.payouts {
            bank.relock(
                p.user,
                p.amount0,
                p.amount1,
                full.epoch + 1,
                &mut token0,
                &mut token1,
            )
            .expect("payout was just dispensed");
        }
        (bank, token0, token1)
    }

    fn handle_confirmations(&mut self) {
        let mut remaining = Vec::new();
        for (tx_id, op) in std::mem::take(&mut self.pending_ops) {
            let Some(confirmed_at) = self.chain.confirmed_at(tx_id) else {
                remaining.push((tx_id, op));
                continue;
            };
            match op {
                PendingOp::Sync {
                    through_epoch,
                    rollback,
                } => {
                    if rollback {
                        // The fork containing the sync is abandoned: undo
                        // the block, censor the transaction, restore bank,
                        // token ledgers and committee keys. `unsynced` is
                        // kept — the next epoch mass-syncs (paper §IV-C).
                        self.chain.reorg(1);
                        self.chain.censor_pending(tx_id);
                        // the censored sync's gas never lands on-chain
                        if let Some(rec) = self.chain.tx(tx_id) {
                            self.sync_gas -= rec.spec.gas;
                        }
                        let backup = self
                            .rollback_backup
                            .take()
                            .expect("backup stored at submission");
                        self.bank = backup.bank;
                        self.token0 = backup.token0;
                        self.token1 = backup.token1;
                        self.registered_shares = backup.registered_shares;
                        self.synced_through = backup.synced_through;
                        continue;
                    }
                    // durable: record payout latencies, prune epochs
                    self.syncs_confirmed += 1;
                    let epochs: Vec<u64> = self
                        .awaiting_payout
                        .range(..=through_epoch)
                        .map(|(e, _)| *e)
                        .collect();
                    for e in epochs {
                        if let Some(arrivals) = self.awaiting_payout.remove(&e) {
                            for a in arrivals {
                                self.payout_latency.record(confirmed_at.since(a));
                            }
                        }
                    }
                    for (e, _, _, _) in self.unsynced.drain(..) {
                        if !self.cfg.disable_pruning {
                            let _ = self.ledger.prune_epoch(e);
                        }
                    }
                }
            }
        }
        self.pending_ops = remaining;
    }

    /// Submits the deposit chains (2 approvals + deposit per user) backing
    /// `for_epoch`; token movement applies immediately, gas/latency flow
    /// through the mainchain.
    fn submit_deposits(&mut self, at: SimTime, for_epoch: u64) {
        let users = self.generator.users();
        let amount = self.cfg.deposit_amount;
        for user in users {
            let mut m_a0 = GasMeter::new();
            self.token0
                .approve(user, self.bank.address, amount, &mut m_a0);
            let a0 = self.chain.submit(
                at,
                TxSpec {
                    label: "approve".into(),
                    gas: m_a0.total() + ammboost_mainchain::gas::TX_BASE,
                    size_bytes: 68,
                    depends_on: None,
                },
            );
            let mut m_a1 = GasMeter::new();
            self.token1
                .approve(user, self.bank.address, amount, &mut m_a1);
            let a1 = self.chain.submit(
                at,
                TxSpec {
                    label: "approve".into(),
                    gas: m_a1.total() + ammboost_mainchain::gas::TX_BASE,
                    size_bytes: 68,
                    depends_on: Some(a0),
                },
            );
            let mut m_dep = GasMeter::new();
            self.bank
                .deposit(
                    user,
                    amount,
                    amount,
                    for_epoch,
                    &mut self.token0,
                    &mut self.token1,
                    &mut m_dep,
                )
                .expect("faucet funded users");
            self.chain.submit(
                at,
                TxSpec {
                    label: "deposit".into(),
                    gas: m_dep.total(),
                    size_bytes: 132,
                    depends_on: Some(a1),
                },
            );
            self.deposit_gas +=
                m_a0.total() + m_a1.total() + 2 * ammboost_mainchain::gas::TX_BASE + m_dep.total();
        }
    }

    /// After the final epoch, keeps mining rounds until the queue empties
    /// (the paper drains queues after each run); the drained traffic forms
    /// one extra epoch settled by a final sync.
    fn drain_queue(&mut self, run_end: SimTime) -> SimTime {
        if self.queue.is_empty() {
            return run_end;
        }
        let drain_epoch = self.cfg.epochs + 1;
        // fresh deposit snapshot for the drain epoch (rollover or placed
        // deposits) so payouts stay backed by locked tokens; carry over
        // when the final epochs are still awaiting a mass-sync
        if self.synced_through >= self.cfg.epochs {
            let snapshot = self.bank.snapshot_deposits(drain_epoch);
            let generator = &self.generator;
            self.shards
                .begin_epoch(snapshot, |user| generator.pool_for(user));
        } else {
            self.shards.carry_over_epoch();
        }

        let mut t = run_end;
        let mut round = self.cfg.epochs * self.cfg.rounds_per_epoch;
        while !self.queue.is_empty() {
            let round_end = t + self.cfg.round_duration;
            // drained rounds take everything under the byte budget — the
            // run is over, so there is no arrival cutoff
            self.execute_queued_batch(None, round_end, round, drain_epoch);
            round += 1;
            t = round_end;
        }
        // settle the drained traffic: wait for the pending regular sync to
        // confirm first, then submit the drain epoch's sync
        self.chain.advance_to(t + SimDuration::from_secs(60));
        self.handle_confirmations();
        let (payouts, positions, pool_updates) = self.shards.end_epoch();
        self.publish_view(drain_epoch);
        self.unsynced
            .push((drain_epoch, payouts, positions, pool_updates));
        self.submit_sync(drain_epoch, t + SimDuration::from_secs(60), false);
        self.chain.advance_to(t + SimDuration::from_secs(120));
        self.handle_confirmations();
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FaultPlan;

    fn small() -> SystemConfig {
        SystemConfig::small_test()
    }

    #[test]
    fn small_run_completes_and_balances() {
        let report = System::new(small()).run();
        assert!(report.accepted > 0, "{report:?}");
        assert_eq!(report.leftover_queue, 0);
        assert!(report.syncs_confirmed >= 3);
        assert!(report.throughput_tps > 0.0);
        assert!(report.avg_sc_latency_secs > 0.0);
        assert!(report.avg_payout_latency_secs > report.avg_sc_latency_secs);
        assert!(report.mainchain_gas > 0);
        assert!(report.sidechain_pruned_bytes > 0);
    }

    #[test]
    fn underloaded_latency_is_quasi_instant() {
        // 50K daily volume (paper Table V, first column): txs processed in
        // the round they arrive
        let report = System::new(small()).run();
        assert!(
            report.avg_sc_latency_secs < 7.0,
            "latency {}",
            report.avg_sc_latency_secs
        );
    }

    #[test]
    fn pruning_bounds_sidechain_size() {
        let report = System::new(small()).run();
        // after the final syncs everything prunable is pruned; only
        // permanent summary blocks remain
        assert!(
            report.sidechain_bytes < report.sidechain_peak_bytes,
            "{report:?}"
        );
    }

    #[test]
    fn deterministic_runs() {
        let a = System::new(small()).run();
        let b = System::new(small()).run();
        assert_eq!(a.accepted, b.accepted);
        assert_eq!(a.mainchain_gas, b.mainchain_gas);
        assert_eq!(a.avg_payout_latency_secs, b.avg_payout_latency_secs);
    }

    #[test]
    fn silent_leader_recovers_with_view_change() {
        let mut cfg = small();
        cfg.faults = FaultPlan {
            silent_leader_epochs: [2].into(),
            ..FaultPlan::default()
        };
        let report = System::new(cfg).run();
        assert!(report.view_changes >= 1);
        assert_eq!(report.leftover_queue, 0);
        assert!(report.syncs_confirmed >= 3, "{report:?}");
    }

    #[test]
    fn invalid_sync_triggers_mass_sync() {
        let mut cfg = small();
        cfg.faults = FaultPlan {
            invalid_sync_epochs: [2].into(),
            ..FaultPlan::default()
        };
        let report = System::new(cfg).run();
        assert!(report.mass_syncs >= 1, "{report:?}");
        // epoch 2's transactions still reach payout via the mass-sync
        assert_eq!(report.leftover_queue, 0);
    }

    #[test]
    fn rollback_recovered_by_mass_sync() {
        let mut cfg = small();
        cfg.faults = FaultPlan {
            rollback_epochs: [2].into(),
            ..FaultPlan::default()
        };
        let report = System::new(cfg).run();
        assert!(report.mass_syncs >= 1, "{report:?}");
        assert_eq!(report.leftover_queue, 0);
    }

    /// Every sync of these runs passes `submit_sync`'s test oracle: bank
    /// deposits and both ERC-20 ledgers equal to the full-list settlement
    /// of the same step, including mass-syncs after refusals and
    /// rollbacks, with most of the 60 users idle in every epoch.
    #[test]
    fn dirty_settlement_matches_full_list_under_every_fault_plan() {
        let plan = |refused: &[u64], rolled_back: &[u64]| FaultPlan {
            invalid_sync_epochs: refused.iter().copied().collect(),
            rollback_epochs: rolled_back.iter().copied().collect(),
            ..FaultPlan::default()
        };
        let plans = [
            (plan(&[], &[]), 0),
            (plan(&[2], &[]), 1),
            (plan(&[], &[2]), 1),
            (plan(&[2], &[3]), 2),
            (plan(&[], &[2, 3]), 2),
            (plan(&[2, 3], &[]), 1),
        ];
        for (faults, mass_syncs) in plans {
            for seed in 7..12 {
                let mut cfg = small();
                cfg.seed = seed;
                cfg.epochs = 5;
                cfg.users = 60;
                cfg.daily_volume = 40_000;
                cfg.faults = faults.clone();
                let mut sys = System::new(cfg);
                let report = sys.run();
                assert_eq!(report.mass_syncs, mass_syncs, "{faults:?}");
                assert_eq!(report.leftover_queue, 0);
                let listed = sys.last_sync_receipt.as_ref().unwrap().payouts_applied;
                assert!(listed < 30, "{listed} of 60 users listed");
                // every deposit is in the one live bucket, listed or not
                let live = sys.bank.snapshot_deposits(sys.bank.expected_epoch());
                assert_eq!(live.len(), 60);
            }
        }
    }

    #[test]
    fn payout_list_is_bounded_by_activity_not_users() {
        let mut cfg = small();
        cfg.users = 5_000;
        cfg.daily_volume = 40_000;
        let mut sys = System::new(cfg.clone());
        let t0 = SimTime::ZERO + SimDuration::from_secs(60);
        sys.submit_deposits(SimTime::ZERO, 1);
        sys.chain.advance_to(t0);
        sys.handle_confirmations();
        for epoch in 1..=cfg.epochs {
            let before = sys.accepted;
            sys.run_epoch(epoch, t0 + cfg.epoch_duration().saturating_mul(epoch - 1));
            let accepted = (sys.accepted - before) as usize;
            let receipt = sys.last_sync_receipt.as_ref().unwrap();
            assert!(
                accepted > 0 && receipt.payouts_applied <= accepted,
                "epoch {epoch}: {} listed, {accepted} accepted",
                receipt.payouts_applied
            );
            let summary = sys.ledger.summaries().last().unwrap();
            assert_eq!(summary.payouts.len(), receipt.payouts_applied);
        }
    }

    #[test]
    fn per_epoch_deposits_cost_more_gas() {
        let once = System::new(small()).run();
        let mut cfg = small();
        cfg.deposit_policy = DepositPolicy::PerEpoch;
        let per_epoch = System::new(cfg).run();
        assert!(
            per_epoch.deposit_gas > once.deposit_gas,
            "{} vs {}",
            per_epoch.deposit_gas,
            once.deposit_gas
        );
    }

    #[test]
    fn checkpoints_taken_per_policy_and_deterministic() {
        let mut cfg = small();
        cfg.snapshot = crate::config::SnapshotPolicy::every_epoch();
        let a = System::new(cfg.clone()).run();
        assert_eq!(a.snapshots_taken, cfg.epochs);
        assert!(a.last_snapshot_bytes > 0);
        assert!(a.last_state_root.is_some());
        // the state commitment is reproducible bit-for-bit
        let b = System::new(cfg).run();
        assert_eq!(a.last_state_root, b.last_state_root);
        assert_eq!(a.last_snapshot_bytes, b.last_snapshot_bytes);
    }

    #[test]
    fn retention_pruning_matches_sync_pruning_outcome() {
        // snapshot-driven retention pruning reclaims the same raw history
        // the sync-confirmation path would, just earlier
        let baseline = System::new(small()).run();
        let mut cfg = small();
        cfg.snapshot = crate::config::SnapshotPolicy::every_epoch();
        let snapshotting = System::new(cfg).run();
        assert_eq!(
            snapshotting.sidechain_pruned_bytes,
            baseline.sidechain_pruned_bytes
        );
        assert_eq!(snapshotting.sidechain_bytes, baseline.sidechain_bytes);
        // pruning earlier bounds the peak at or below the baseline's
        assert!(snapshotting.sidechain_peak_bytes <= baseline.sidechain_peak_bytes);
    }

    #[test]
    fn snapshot_restores_into_working_node() {
        let mut cfg = small();
        cfg.snapshot = crate::config::SnapshotPolicy {
            interval_epochs: 1,
            // keep all raw history so the restored node could also catch up
            keep_epochs: u64::MAX,
        };
        let mut sys = System::new(cfg);
        let report = sys.run();
        assert!(report.snapshots_taken >= 3);
        // the drain epoch ran after the last scheduled checkpoint; take a
        // final on-demand one so the snapshot covers the end state
        let stats = sys.checkpoint(report.epochs + 1);
        let snapshot = sys.last_snapshot().expect("checkpoints taken");
        let node = crate::checkpoint::restore_node(snapshot).unwrap();
        assert_eq!(node.root, stats.root);
        // the restored shards carry the live pool state
        assert_eq!(node.shards.export_states(), sys.shards().export_states());
        assert_eq!(node.ledger.export_state(), sys.ledger().export_state());
    }

    /// A mixed-engine, routed fleet whose rounds are large enough for
    /// `Auto` to take the pooled path, with worker panics planted.
    fn faulted_mixed_fleet() -> SystemConfig {
        let mut cfg = small();
        cfg.pools = 4;
        cfg.users = 32;
        cfg.engine_mix = ammboost_workload::EngineMix::of(2, 1, 1);
        cfg.route_style = ammboost_workload::RouteStyle::routed(0.25, 3);
        cfg.daily_volume = 1_000_000; // 81 transactions per round
        cfg.snapshot = crate::config::SnapshotPolicy::every_epoch();
        cfg.faults.worker_panic_points = vec![(0, 1), (2, 3), (3, 0)];
        cfg
    }

    /// The batch schedule is unobservable: the faulted mixed fleet is
    /// indistinguishable under the three schedules — same report, same
    /// snapshot and delta bytes, same containment.
    #[test]
    fn batch_schedule_is_unobservable_in_a_faulted_mixed_fleet() {
        let cfg = faulted_mixed_fleet();
        let run = |mode: ExecMode| {
            let mut sys = System::new(cfg.clone());
            sys.set_exec_mode(mode);
            let report = sys.run();
            assert!(report.routes_accepted > 0, "{report:?}");
            let panics = cfg.faults.worker_panic_points.len() as u64;
            assert_eq!(report.worker_panics_contained, panics);
            let rounds = cfg.epochs * cfg.rounds_per_epoch;
            assert!(report.submitted / rounds >= crate::shard::PARALLEL_MIN_BATCH as u64);
            let snapshot = sys.last_snapshot().expect("checkpoints taken").encode();
            let delta = sys.last_delta().expect("second checkpoint on").encode();
            (format!("{report:?}"), snapshot, delta)
        };
        let auto = run(ExecMode::Auto);
        assert_eq!(run(ExecMode::Sequential), auto);
        assert_eq!(run(ExecMode::Parallel), auto);
    }

    /// The quote reader is unobservable: with quote traffic on the
    /// faulted mixed fleet, the run reports the same whether the reader
    /// or the main thread answers the quotes, and every generated request
    /// is counted exactly once.
    #[test]
    fn quote_reader_matches_inline_quotes_in_a_faulted_mixed_fleet() {
        let mut cfg = faulted_mixed_fleet();
        cfg.quote_style = ammboost_workload::QuoteStyle::per_tx(1.0);
        let run = |inline: bool| {
            let mut sys = System::new(cfg.clone());
            if inline {
                sys.set_inline_quotes();
            }
            let report = sys.run();
            assert!(sys.quote_reader.is_none(), "run joins the reader");
            (report, sys.generator.txs_per_round())
        };
        let (report, txs_per_round) = run(false);
        let per_round = (cfg.quote_style.quotes_per_tx * txs_per_round as f64).ceil() as u64;
        assert_eq!(
            report.quotes_served + report.quotes_failed,
            cfg.epochs * cfg.rounds_per_epoch * per_round
        );
        assert!(
            report.quotes_served > 0 && report.quotes_failed > 0,
            "{report:?}"
        );
        let (inline, _) = run(true);
        assert_eq!(format!("{report:?}"), format!("{inline:?}"));
    }

    #[test]
    fn quote_reader_without_batches_counts_nothing_and_exits() {
        assert_eq!(QuoteReader::spawn().finish(), (0, 0));
    }

    /// Sixteen times the channel's depth in batches, each with a known
    /// mix of answerable and unknown-pool quotes: the sender blocks on a
    /// full channel until the reader drains it, and `finish` returns
    /// every batch's counts once.
    #[test]
    fn quote_reader_counts_every_batch_once_past_its_channel_depth() {
        let view = System::new(small()).quote_view().expect("genesis view");
        let pool = view.pool_ids()[0];
        let reader = QuoteReader::spawn();
        let (mut served, mut failed) = (0, 0);
        for round in 0..16 * QUOTE_READER_DEPTH as u64 {
            let swap = |pool| QuoteRequest::Swap {
                pool,
                zero_for_one: round % 2 == 0,
                amount_in: 1_000 + u128::from(round),
            };
            let (ok, unknown) = (1 + round % 5, round % 3);
            let requests = (0..ok)
                .map(|_| swap(pool))
                .chain((0..unknown).map(|_| swap(PoolId(u32::MAX))))
                .collect();
            reader
                .batches
                .send((Arc::clone(&view), requests))
                .expect("reader alive");
            served += ok;
            failed += unknown;
        }
        assert_eq!(reader.finish(), (served, failed));
    }

    #[test]
    fn committees_rotate_every_epoch() {
        // drive two epochs manually and compare the elected committees
        let cfg = small();
        let mut sys = System::new(cfg.clone());
        let t0 = SimTime::ZERO + SimDuration::from_secs(60);
        sys.submit_deposits(SimTime::ZERO, 1);
        sys.chain.advance_to(t0);
        sys.handle_confirmations();
        sys.run_epoch(1, t0);
        sys.run_epoch(2, t0 + cfg.epoch_duration());
        let committees = sys.committees();
        assert_eq!(committees.len(), 2);
        assert_ne!(
            committees[0].members, committees[1].members,
            "committee refresh failed"
        );
    }
}
