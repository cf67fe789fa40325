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
//!
//! ## The arrival backlog
//! Each round's generated transactions join the world's arrival queue,
//! and the node is fed from its front under the meta-block byte budget
//! (and, in-run, an arrival cutoff at the round's end). At the paper's
//! saturated load the queue outgrows the node's state: ≈ 350 000
//! transactions are still queued when an 11-epoch `paper_default` run
//! ends. So the queue is a packed byte arena, not a queue of `AmmTx`:
//! each arrival is one varint record (≈ 18 B on the paper's mix) that
//! names its issuer by population index (`GeneratedTx::user`), where an
//! `AmmTx` takes 128 B.
//! A round decodes the records it pops back into the exact transactions
//! that were generated, so the node and every figure it produces are
//! unchanged. [`SystemReport::backlog_peak`] and
//! [`SystemReport::backlog_peak_bytes`] report the queue's high-water
//! mark.

use crate::backlog::Backlog;
use crate::config::{DepositPolicy, SystemConfig};
use crate::node::{EpochOutput, Node, RoundOutput};
use crate::processor::EpochProcessor;
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
use ammboost_sidechain::ledger::Ledger;
use ammboost_sidechain::summary::{Deposits, PayoutEntry, PositionEntry};
use ammboost_sim::metrics::LatencyStats;
use ammboost_sim::rng::DetRng;
use ammboost_sim::time::{SimDuration, SimTime};
use ammboost_state::snapshot::Snapshot;
use ammboost_state::{CheckpointStats, RetentionPolicy};
use ammboost_workload::{GeneratorConfig, TrafficGenerator};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

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
    /// The most transactions the arrival backlog held at once (its
    /// high-water mark; the drain empties it).
    pub backlog_peak: u64,
    /// The backlog's packed size when it first reached `backlog_peak`,
    /// in bytes.
    pub backlog_peak_bytes: u64,
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
}

/// A submitted sync covering every epoch up to and including
/// `through_epoch`; `rollback` marks the planned fork-loss fault.
struct PendingSync {
    tx: TxId,
    through_epoch: u64,
    rollback: bool,
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

/// The world a [`Node`] runs in: traffic, miners and the election, the
/// mainchain with TokenBank and both ERC-20s, the committee keys and the
/// syncs they certify, the clock and the fault plan. [`System::run`]
/// feeds the node round by round and settles each sealed epoch on the
/// mainchain.
pub struct System {
    cfg: SystemConfig,
    pub(crate) node: Node,
    chain: Mainchain,
    bank: TokenBank,
    token0: Erc20,
    token1: Erc20,
    generator: TrafficGenerator,
    miners: Vec<MinerRecord>,
    miner_sks: Vec<VrfSecretKey>,
    agreement: AgreementModel,
    /// Shares matching the vk currently registered in TokenBank.
    registered_shares: DkgOutput,
    /// DKG for the next committee (its vk rides the next sync).
    next_dkg: DkgOutput,
    committees: Vec<Committee>,
    /// Arrived, not yet mined transactions, in arrival order.
    queue: Backlog,
    /// Per epoch whose sync is not confirmed yet: the accepted
    /// transactions settled by it and the sum of their arrival ms.
    awaiting_payout: BTreeMap<u64, (u64, u128)>,
    /// Sealed epochs no applied sync covers yet.
    unsynced: Vec<(u64, EpochOutput)>,
    pending_syncs: Vec<PendingSync>,
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
    last_sync_receipt: Option<SyncReceipt>,
    sync_certificates: Vec<(PublicKey, QuorumCertificate)>,
}

impl System {
    /// Builds a system from a configuration: deploys contracts, funds
    /// users, seeds pool liquidity, registers the genesis committee.
    #[doc(alias = "SystemSetup")]
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

        let mut processor = EpochProcessor::new_with_engines(generator.fleet());
        for pool in &pool_ids {
            processor.seed_liquidity(
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

        // the node seals genesis: readers can quote against the seeded
        // pools before epoch 1 executes
        let genesis_ref = H256::hash(b"mainchain-block-containing-token-bank");
        System {
            node: Node::new(processor, Ledger::new(genesis_ref)),
            chain: Mainchain::new(cfg.mainchain),
            bank,
            token0,
            token1,
            generator,
            miners,
            miner_sks,
            agreement: AgreementModel::default(),
            registered_shares: genesis_dkg,
            next_dkg,
            committees: Vec::new(),
            queue: Backlog::new(),
            awaiting_payout: BTreeMap::new(),
            unsynced: Vec::new(),
            pending_syncs: Vec::new(),
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
        self.node.ledger()
    }

    /// Read access to the mainchain.
    pub fn chain(&self) -> &Mainchain {
        &self.chain
    }

    /// Read access to the transaction processor (every pool and the
    /// deposit book).
    pub fn processor(&self) -> &EpochProcessor {
        self.node.processor()
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
        Some(self.node.quote_view())
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

        self.node.join_quote_reader();
        let node = self.node.counters();

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
            backlog_peak: self.queue.peak() as u64,
            backlog_peak_bytes: self.queue.peak_bytes() as u64,
            throughput_tps: throughput,
            avg_sc_latency_secs: self.sc_latency.mean_secs(),
            avg_payout_latency_secs: self.payout_latency.mean_secs(),
            mainchain_gas: self.chain.total_gas(),
            sync_gas: self.sync_gas,
            deposit_gas: self.deposit_gas,
            mainchain_growth_bytes: self.chain.growth_bytes(),
            sidechain_bytes: self.ledger().size_bytes(),
            sidechain_peak_bytes: self.ledger().peak_bytes(),
            sidechain_pruned_bytes: self.ledger().pruned_bytes(),
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
            snapshots_taken: node.snapshots_taken,
            last_snapshot_bytes: self.last_checkpoint().map_or(0, |c| c.snapshot_bytes),
            last_state_root: self.last_checkpoint().map(|c| c.root),
            quotes_served: node.quotes_served,
            quotes_failed: node.quotes_failed,
            view_publications: node.view_publications,
            view_pools_reused: node.view_pools_reused,
            view_pools_recloned: node.view_pools_recloned,
        }
    }

    /// Takes an on-demand Merkle-committed checkpoint of the sidechain
    /// node state (processor + ledger) and returns its stats. The
    /// snapshot itself stays retrievable via [`System::last_snapshot`].
    pub fn checkpoint(&mut self, epoch: u64) -> CheckpointStats {
        self.node.checkpoint(epoch)
    }

    /// The most recent node snapshot, if any checkpoint was taken.
    pub fn last_snapshot(&self) -> Option<&Snapshot> {
        self.node.last_snapshot()
    }

    /// The page-granular delta the most recent checkpoint emitted against
    /// its predecessor, if any (the first checkpoint has no base).
    pub fn last_delta(&self) -> Option<&ammboost_state::DeltaSnapshot> {
        self.node.last_delta()
    }

    /// Stats of the most recent checkpoint.
    pub fn last_checkpoint(&self) -> Option<&CheckpointStats> {
        self.node.last_checkpoint()
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

        self.begin_node_epoch(epoch);

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
                debug_assert_eq!(self.generator.user(gtx.user), gtx.tx.user());
                self.queue
                    .push(round_start + offset, gtx.wire_size, gtx.user, &gtx.tx);
                self.submitted += 1;
            }

            // read traffic rides along: quotes are answered from the last
            // sealed epoch's view, never from the live pools this round
            // is mutating (requests depend on generator state, so they
            // are generated here, in order)
            let requests = self.generator.next_quotes();
            self.node.serve_quotes(requests);

            if round < self.cfg.rounds_per_epoch - 1 {
                self.feed_node(Some(round_end), round_end, epoch, |node, batch| {
                    node.step_round(epoch, round, global_round, batch)
                });
            }
            self.chain.advance_to(round_end);
            self.handle_confirmations();
        }

        // --- epoch end: summary, sync, pruning trigger ---
        let epoch_end = epoch_start + self.cfg.epoch_duration();
        self.close_epoch(epoch, epoch_end);
    }

    /// `SnapshotBank` for `epoch`, or carry-over when the previous
    /// epoch's sync is missing and a mass-sync is owed (paper §IV-C).
    fn begin_node_epoch(&mut self, epoch: u64) {
        let bucket = (self.synced_through >= epoch - 1).then(|| self.bank.snapshot_deposits(epoch));
        self.node.begin_epoch(bucket);
    }

    /// Pops queued transactions under the meta-block byte budget (and,
    /// with an `arrival_cutoff`, arriving before it), hands the batch to
    /// the node through `step`, and applies the round's output: latencies
    /// and payouts owed against `payout_epoch`, and deleted positions fed
    /// back to the generator. In-run rounds and the drain share it, so
    /// their accounting cannot drift apart.
    fn feed_node(
        &mut self,
        arrival_cutoff: Option<SimTime>,
        round_end: SimTime,
        payout_epoch: u64,
        step: impl FnOnce(&mut Node, &[(&AmmTx, usize)]) -> RoundOutput,
    ) {
        let mut popped: Vec<(SimTime, AmmTx, usize)> = Vec::new();
        let mut bytes = 0usize;
        while let Some((arrival, size)) = self.queue.front() {
            let past_cutoff = arrival_cutoff.is_some_and(|cutoff| arrival >= cutoff);
            if past_cutoff || bytes + size > self.cfg.meta_block_bytes {
                break;
            }
            let entry = self.queue.pop(|i| self.generator.user(i));
            bytes += size;
            popped.push(entry.expect("front checked"));
        }
        let batch: Vec<(&AmmTx, usize)> = popped.iter().map(|(_, tx, size)| (tx, *size)).collect();
        let out = step(&mut self.node, &batch);
        for ((arrival, _, _), accepted) in popped.iter().zip(&out.acceptance) {
            if *accepted {
                self.accepted += 1;
                self.sc_latency.record(round_end.since(*arrival));
                let (count, arrivals_ms) = self.awaiting_payout.entry(payout_epoch).or_default();
                *count += 1;
                *arrivals_ms += u128::from(arrival.as_millis());
            } else {
                self.rejected += 1;
            }
        }
        self.routes_accepted += out.routes;
        self.route_legs_executed += out.route_legs;
        for position in out.deleted_positions {
            self.generator.forget_position(position);
        }
    }

    fn close_epoch(&mut self, epoch: u64, epoch_end: SimTime) {
        let sealed = self.node.close_epoch(epoch);
        let summary = self.ledger().summaries().last().expect("just appended");
        self.max_summary_bytes = self.max_summary_bytes.max(summary.size_bytes() as u64);
        self.unsynced.push((epoch, sealed));
        // an invalid Sync proposal goes uncertified: no sync this epoch,
        // a mass-sync next; checkpointing is node-local and goes on
        if !self.cfg.faults.invalid_sync_epochs.contains(&epoch) {
            let rollback = self.cfg.faults.rollback_epochs.contains(&epoch);
            self.submit_sync(epoch, epoch_end, rollback);
        }
        // checkpoint per the snapshot policy, then snapshot-aware
        // retention: an epoch covered by a sealed summary and a committed
        // snapshot drops its raw meta-blocks without waiting for the sync
        // to confirm (a restarting node restores instead of replaying).
        // The checkpoint already commits the ledger as this prune leaves
        // it; pruning second means no crash loses history that no
        // snapshot covers yet
        let policy = self.cfg.snapshot;
        if policy.enabled() && epoch.is_multiple_of(policy.interval_epochs) {
            self.node.checkpoint(epoch);
            if !self.cfg.disable_pruning {
                let keep_epochs = policy.keep_epochs;
                self.node
                    .prune_to_snapshot(epoch, RetentionPolicy { keep_epochs });
            }
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
        for (epoch, sealed) in &self.unsynced {
            if *epoch > self.synced_through {
                payouts.extend(sealed.payouts.iter().map(|p| (p.user, *p)));
            }
            merged.extend(sealed.positions.iter().map(|p| (p.id, *p)));
        }
        let pools = self.unsynced.last().expect("non-empty").1.pools.clone();
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
                    == *self.processor().deposits(),
                "the bank's next bucket must mirror the sidechain ledger for every user"
            );
            #[cfg(test)]
            assert!(
                (&oracle.0, &oracle.1, &oracle.2) == (&self.bank, &self.token0, &self.token1),
                "dirty settlement through epoch {through_epoch} diverges from the full list"
            );
        }

        let tx = self.chain.submit(
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
        self.pending_syncs.push(PendingSync {
            tx,
            through_epoch,
            rollback,
        });
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
        let deposits = self.processor().deposits().to_sorted_entries();
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
        for sync in std::mem::take(&mut self.pending_syncs) {
            let Some(confirmed_at) = self.chain.confirmed_at(sync.tx) else {
                remaining.push(sync);
                continue;
            };
            if sync.rollback {
                // The fork containing the sync is abandoned: undo the
                // block, censor the transaction, restore bank, token
                // ledgers and committee keys. `unsynced` is kept — the
                // next epoch mass-syncs (paper §IV-C).
                self.chain.reorg(1);
                self.chain.censor_pending(sync.tx);
                // the censored sync's gas never lands on-chain
                if let Some(rec) = self.chain.tx(sync.tx) {
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
            let later = self.awaiting_payout.split_off(&(sync.through_epoch + 1));
            let settled = std::mem::replace(&mut self.awaiting_payout, later);
            for (count, arrivals_ms) in settled.into_values() {
                // every arrival precedes the confirmation, so the sum of
                // the waits is this difference
                let waited_ms = (u128::from(count) * u128::from(confirmed_at.as_millis()))
                    .checked_sub(arrivals_ms)
                    .expect("transactions arrive before their payout confirms");
                self.payout_latency.record_total(count, waited_ms);
            }
            for (e, _) in self.unsynced.drain(..) {
                if !self.cfg.disable_pruning {
                    let _ = self.node.prune_epoch(e);
                }
            }
        }
        self.pending_syncs = remaining;
    }

    /// Submits the deposit chains (2 approvals + deposit per user) backing
    /// `for_epoch`; token movement applies immediately, gas/latency flow
    /// through the mainchain.
    fn submit_deposits(&mut self, at: SimTime, for_epoch: u64) {
        use ammboost_mainchain::gas::TX_BASE;
        let amount = self.cfg.deposit_amount;
        let spec = |label: &'static str, gas, size_bytes, depends_on| TxSpec {
            label: label.into(),
            gas,
            size_bytes,
            depends_on,
        };
        for user in self.generator.users() {
            let (mut m_a0, mut m_a1, mut m_dep) =
                (GasMeter::new(), GasMeter::new(), GasMeter::new());
            self.token0
                .approve(user, self.bank.address, amount, &mut m_a0);
            self.token1
                .approve(user, self.bank.address, amount, &mut m_a1);
            let (t0, t1) = (&mut self.token0, &mut self.token1);
            let deposit = self
                .bank
                .deposit(user, amount, amount, for_epoch, t0, t1, &mut m_dep);
            deposit.expect("faucet funded users");
            let (a0, a1, dep) = (
                m_a0.total() + TX_BASE,
                m_a1.total() + TX_BASE,
                m_dep.total(),
            );
            let first = self.chain.submit(at, spec("approve", a0, 68, None));
            let second = self.chain.submit(at, spec("approve", a1, 68, Some(first)));
            self.chain
                .submit(at, spec("deposit", dep, 132, Some(second)));
            self.deposit_gas += a0 + a1 + dep;
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
        self.begin_node_epoch(drain_epoch);

        let mut t = run_end;
        let mut round = self.cfg.epochs * self.cfg.rounds_per_epoch;
        while !self.queue.is_empty() {
            let round_end = t + self.cfg.round_duration;
            // drained rounds take everything under the byte budget — the
            // run is over, so there is no arrival cutoff
            self.feed_node(None, round_end, drain_epoch, |node, batch| {
                node.execute(round, batch).0
            });
            round += 1;
            t = round_end;
        }
        // settle the drained traffic: wait for the pending regular sync to
        // confirm first, then submit the drain epoch's sync
        self.chain.advance_to(t + SimDuration::from_secs(60));
        self.handle_confirmations();
        let sealed = self.node.seal(drain_epoch);
        self.unsynced.push((drain_epoch, sealed));
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

    /// Arrivals outrun the meta-block budget, so a backlog builds up
    /// across every epoch and only the drain empties it: its high-water
    /// mark is reported, packed at no more than 24 B a transaction.
    #[test]
    fn saturated_backlog_packs_each_transaction_small() {
        let mut cfg = small();
        cfg.daily_volume = 2_000_000;
        cfg.meta_block_bytes = 20_000;
        let report = System::new(cfg).run();
        assert_eq!(report.leftover_queue, 0);
        assert_eq!(report.accepted + report.rejected, report.submitted);
        assert!(report.backlog_peak > report.submitted / 2, "{report:?}");
        assert!(report.backlog_peak < report.submitted, "{report:?}");
        assert!(
            report.backlog_peak_bytes <= 24 * report.backlog_peak,
            "{} B for {} transactions",
            report.backlog_peak_bytes,
            report.backlog_peak
        );
        // an unsaturated run's backlog holds at most two rounds of
        // arrivals (5 each): the summary round mines none
        let calm = System::new(small()).run();
        assert!((1..=10).contains(&calm.backlog_peak), "{calm:?}");
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

    /// Each epoch's summary, and the sync of the drain epoch after them,
    /// list only the users whose deposit moved: at most one per accepted
    /// transaction, never one per depositor.
    #[test]
    fn payout_list_is_bounded_by_activity_not_users() {
        let mut cfg = small();
        cfg.users = 5_000;
        cfg.daily_volume = 40_000;
        // keep every meta-block, so each epoch's acceptances stay countable
        cfg.disable_pruning = true;
        let mut sys = System::new(cfg.clone());
        let report = sys.run();
        let summaries = sys.ledger().summaries();
        assert_eq!(summaries.len() as u64, cfg.epochs);
        let mut mined = 0;
        for summary in summaries {
            let accepted: usize = (sys.ledger().meta_blocks(summary.epoch).iter())
                .map(|m| m.accepted_count())
                .sum();
            assert!(
                accepted > 0 && summary.payouts.len() <= accepted,
                "epoch {}: {} listed, {accepted} accepted",
                summary.epoch,
                summary.payouts.len()
            );
            mined += accepted;
        }
        // the drain epoch mines no blocks; its sync is the run's last
        let drained = report.accepted as usize - mined;
        let listed = sys.last_sync_receipt().unwrap().payouts_applied;
        assert_eq!(sys.sync_certificates().len() as u64, cfg.epochs + 1);
        assert!(
            drained > 0 && listed <= drained,
            "drain: {listed} listed, {drained} accepted"
        );
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
            // a raw-history margin is node-local: no snapshot commits it
            keep_epochs: u64::MAX,
        };
        let mut sys = System::new(cfg);
        let report = sys.run();
        assert!(report.snapshots_taken >= 3);
        // the drain epoch ran after the last scheduled checkpoint; take a
        // final on-demand one so the snapshot covers the end state
        let stats = sys.checkpoint(report.epochs + 1);
        let snapshot = sys.last_snapshot().expect("checkpoints taken");
        let mut node = Node::restore(snapshot).unwrap();
        assert_eq!(node.checkpoint(report.epochs + 1).root, stats.root);
        // the restored processor carries the live pool and deposit state
        assert_eq!(
            node.processor().export_state(),
            sys.processor().export_state()
        );
        // and the restored ledger is the live one as retention leaves it
        assert_eq!(node.ledger().export_state(), sys.ledger().retained_state());
    }

    #[test]
    fn committees_rotate_every_epoch() {
        let mut cfg = small();
        cfg.epochs = 2;
        let mut sys = System::new(cfg);
        sys.run();
        let committees = sys.committees();
        assert_eq!(committees.len(), 2);
        assert_ne!(
            committees[0].members, committees[1].members,
            "committee refresh failed"
        );
    }
}
