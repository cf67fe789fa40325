//! A bench-side replica of `System::new` + `System::run`
//! (`crates/core/src/system.rs`) with a span around every call into a
//! layer.
//!
//! The replica calls only the public functions `System` itself calls, in
//! the same order and with the same bookkeeping in between, so its
//! per-layer times describe the untraced run. It must end with the same
//! accepted and rejected counts, mainchain gas, sidechain bytes and state
//! root as `System::run` on the same configuration, or the benchmark
//! fails — that check is what keeps this file honest when the node
//! changes. Fault schedules and per-epoch deposits are not replicated:
//! no workload uses them, and `Replica::new` refuses a config that does.
//!
//! Span names are `<layer>.<operation>`; the `core.system.*` spans are
//! the loop structure itself, and their self time is the driver's glue
//! (queue, acceptance bookkeeping, latency samples).

use crate::span;
use crate::trace::Tracer;
use ammboost_amm::pool::SwapKind;
use ammboost_amm::tx::{AmmTx, RouteTx};
use ammboost_amm::types::PoolId;
use ammboost_consensus::election::{draw_ticket, elect_committee, Committee, MinerRecord};
use ammboost_core::config::DepositPolicy;
use ammboost_core::{checkpoint_node, stage_node, ExecMode, QuoteView, ShardMap, SystemConfig};
use ammboost_crypto::dkg::{run_ceremony, DkgConfig, DkgOutput};
use ammboost_crypto::tsqc::{partial_sign, QuorumCertificate};
use ammboost_crypto::vrf::VrfSecretKey;
use ammboost_crypto::{Address, H256};
use ammboost_mainchain::chain::{Mainchain, TxId, TxSpec};
use ammboost_mainchain::contracts::token_bank::SyncInput;
use ammboost_mainchain::contracts::{Erc20, TokenBank};
use ammboost_mainchain::gas::{GasMeter, TX_BASE};
use ammboost_sidechain::block::{ExecutedTx, MetaBlock, SummaryBlock, TxEffect};
use ammboost_sidechain::ledger::Ledger;
use ammboost_sidechain::summary::{PayoutEntry, PoolUpdate, PositionEntry};
use ammboost_sim::metrics::LatencyStats;
use ammboost_sim::rng::DetRng;
use ammboost_sim::time::{SimDuration, SimTime};
use ammboost_state::{prune_to_snapshot, CheckpointOutput, Checkpointer, RetentionPolicy};
use ammboost_workload::{GeneratorConfig, QuoteRequest, TrafficGenerator};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

type UnsyncedEpoch = (u64, Vec<PayoutEntry>, Vec<PositionEntry>, Vec<PoolUpdate>);

/// What the replica must agree with `System::run` on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplicaReport {
    pub submitted: u64,
    pub accepted: u64,
    pub rejected: u64,
    pub leftover_queue: u64,
    pub mainchain_gas: u64,
    pub sidechain_bytes: u64,
}

pub struct Replica {
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
    registered_shares: DkgOutput,
    next_dkg: DkgOutput,
    committees: Vec<Committee>,
    queue: VecDeque<(SimTime, AmmTx, usize)>,
    awaiting_payout: BTreeMap<u64, Vec<SimTime>>,
    unsynced: Vec<UnsyncedEpoch>,
    /// Submitted syncs awaiting confirmation, with the epoch they cover.
    pending_syncs: Vec<(TxId, u64)>,
    synced_through: u64,
    sc_latency: LatencyStats,
    payout_latency: LatencyStats,
    submitted: u64,
    accepted: u64,
    rejected: u64,
    quote_view: Arc<QuoteView>,
    checkpointer: Checkpointer,
    /// Executed transactions by pool index, for the head pool's share.
    txs_by_pool: Vec<u64>,
    pub tr: Tracer,
}

impl Replica {
    /// Mirrors `System::new`.
    ///
    /// # Panics
    /// Panics on a config with a fault plan or per-epoch deposits.
    pub fn new(cfg: SystemConfig) -> Replica {
        assert!(cfg.faults.is_empty(), "the replica runs no fault schedule");
        assert_eq!(cfg.deposit_policy, DepositPolicy::OncePerRun);
        let mut rng = DetRng::new(cfg.seed);
        let crypto_cfg = DkgConfig::for_faults(cfg.crypto_committee_faults);
        let genesis_dkg = run_ceremony(crypto_cfg, cfg.seed ^ 0xD16);
        let next_dkg = run_ceremony(crypto_cfg, cfg.seed ^ 0xD16 ^ 1);

        let mut bank = TokenBank::deploy(genesis_dkg.group_public_key);
        let mut token0 = Erc20::new("TKA");
        let mut token1 = Erc20::new("TKB");
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

        let mut tr = Tracer::new();
        let (genesis_view, view_stats) = shards.publish_view(0);
        tr.count("core.view.pools_reused", view_stats.reused as u64);
        tr.count("core.view.pools_recloned", view_stats.recloned as u64);

        let genesis_ref = H256::hash(b"mainchain-block-containing-token-bank");
        Replica {
            chain: Mainchain::new(cfg.mainchain),
            bank,
            token0,
            token1,
            shards,
            ledger: Ledger::new(genesis_ref),
            generator,
            miners,
            miner_sks,
            registered_shares: genesis_dkg,
            next_dkg,
            committees: Vec::new(),
            queue: VecDeque::new(),
            awaiting_payout: BTreeMap::new(),
            unsynced: Vec::new(),
            pending_syncs: Vec::new(),
            synced_through: 0,
            sc_latency: LatencyStats::new(),
            payout_latency: LatencyStats::new(),
            submitted: 0,
            accepted: 0,
            rejected: 0,
            quote_view: genesis_view,
            checkpointer: Checkpointer::new(),
            txs_by_pool: vec![0; cfg.pools as usize],
            tr,
            cfg,
        }
    }

    /// Mirrors `System::run`, inside one `core.system.run` root span.
    pub fn run(&mut self) -> ReplicaReport {
        let root = self.tr.enter("core.system.run");
        let t0 = SimTime::ZERO + SimDuration::from_secs(60);

        span!(
            self.tr,
            "mainchain.deposits",
            self.submit_deposits(SimTime::ZERO, 1)
        );
        span!(self.tr, "mainchain.chain", self.chain.advance_to(t0));
        self.handle_confirmations();

        for epoch in 1..=self.cfg.epochs {
            let epoch_start = t0 + self.cfg.epoch_duration().saturating_mul(epoch - 1);
            self.tr.set_epoch(epoch);
            span!(
                self.tr,
                "core.system.epoch",
                self.run_epoch(epoch, epoch_start)
            );
        }

        let run_end = t0 + self.cfg.run_duration();
        self.tr.set_epoch(self.cfg.epochs + 1);
        let drain_end = span!(self.tr, "core.system.drain", self.drain_queue(run_end));

        let settle = drain_end + SimDuration::from_secs(120);
        span!(self.tr, "mainchain.chain", self.chain.advance_to(settle));
        self.handle_confirmations();

        // the report's latency means, as `System::run` computes them
        std::hint::black_box((self.sc_latency.mean_secs(), self.payout_latency.mean_secs()));
        let report = ReplicaReport {
            submitted: self.submitted,
            accepted: self.accepted,
            rejected: self.rejected,
            leftover_queue: self.queue.len() as u64,
            mainchain_gas: self.chain.total_gas(),
            sidechain_bytes: self.ledger.size_bytes(),
        };
        self.tr.exit(root);

        let head = self.txs_by_pool.iter().max().copied().unwrap_or(0);
        self.tr.count("core.shard.head_pool_txs", head);
        report
    }

    /// Mirrors `System::checkpoint`: a synchronous checkpoint outside the
    /// run (untraced, uncounted), so the end state has a root whatever
    /// the snapshot policy.
    pub fn checkpoint(&mut self, epoch: u64) -> CheckpointOutput {
        checkpoint_node(
            &mut self.checkpointer,
            epoch,
            &mut self.shards,
            &self.ledger,
        )
    }

    /// The view sealed by the last epoch (the drain epoch's, if any).
    pub fn quote_view(&self) -> &QuoteView {
        &self.quote_view
    }

    /// The generator, bank and sync horizon, for the sparse-checkpoint
    /// probe that continues this node's traffic on a restored copy.
    pub fn next_round_inputs(&mut self) -> (&mut TrafficGenerator, &TokenBank, u64) {
        (&mut self.generator, &self.bank, self.synced_through + 1)
    }

    /// Mirrors `System::run_epoch` without its fault branches.
    fn run_epoch(&mut self, epoch: u64, epoch_start: SimTime) {
        let election = self.tr.enter("consensus.election");
        let seed = H256::hash_concat(&[
            b"epoch-seed",
            &self.cfg.seed.to_be_bytes(),
            &epoch.to_be_bytes(),
        ]);
        let committee_size = self.cfg.committee_size.min(self.miners.len());
        let tickets: Vec<_> = self
            .miners
            .iter()
            .zip(&self.miner_sks)
            .map(|(m, sk)| draw_ticket(sk, m.id, &seed, epoch))
            .collect();
        let committee = elect_committee(&self.miners, &tickets, &seed, epoch, committee_size)
            .expect("population exceeds committee size");
        self.committees.push(committee);
        self.tr.exit(election);
        self.tr.count("consensus.tickets", tickets.len() as u64);

        assert!(
            self.synced_through >= epoch - 1,
            "no faults, so no carry-over"
        );
        let snapshot = span!(
            self.tr,
            "mainchain.snapshot_deposits",
            self.bank.snapshot_deposits(epoch)
        );
        let generator = &self.generator;
        span!(
            self.tr,
            "core.shard.begin_epoch",
            self.shards
                .begin_epoch(snapshot, |user| generator.pool_for(user))
        );

        for round in 0..self.cfg.rounds_per_epoch {
            let round_span = self.tr.enter("core.system.round");
            let global_round = (epoch - 1) * self.cfg.rounds_per_epoch + round;
            let round_start = epoch_start + self.cfg.round_duration.saturating_mul(round);
            let round_end = round_start + self.cfg.round_duration;

            let batch = span!(
                self.tr,
                "workload.generate",
                self.generator.next_round(global_round)
            );
            self.tr.count("workload.txs", batch.len() as u64);
            let n = batch.len() as u64;
            for (i, gtx) in batch.into_iter().enumerate() {
                let offset = SimDuration::from_millis(
                    self.cfg.round_duration.as_millis() * i as u64 / n.max(1),
                );
                self.queue
                    .push_back((round_start + offset, gtx.tx, gtx.wire_size));
                self.submitted += 1;
            }

            self.serve_quotes();

            if round < self.cfg.rounds_per_epoch - 1 {
                let executed =
                    self.execute_queued_batch(Some(round_end), round_end, global_round, epoch);
                let append = self.tr.enter("sidechain.append_meta");
                let block = MetaBlock::new(epoch, round, self.ledger.tip(), executed);
                let block_bytes = block.size_bytes() as u64;
                self.ledger
                    .append_meta(block)
                    .expect("locally mined meta-block chains correctly");
                self.tr.exit(append);
                self.tr.count("sidechain.meta_bytes", block_bytes);
            }
            span!(self.tr, "mainchain.chain", self.chain.advance_to(round_end));
            self.handle_confirmations();
            self.tr.exit(round_span);
        }

        let epoch_end = epoch_start + self.cfg.epoch_duration();
        span!(
            self.tr,
            "core.system.close_epoch",
            self.close_epoch(epoch, epoch_end)
        );
    }

    /// Mirrors `System::serve_quotes`; generating the requests is the
    /// workload layer's time, answering them the view's.
    fn serve_quotes(&mut self) {
        if !self.cfg.quote_style.active() {
            return;
        }
        let requests = span!(self.tr, "workload.generate", self.generator.next_quotes());
        let view = Arc::clone(&self.quote_view);
        let serving = self.tr.enter("core.view.inrun_quotes");
        let mut served = 0u64;
        for req in &requests {
            let ok = match req {
                QuoteRequest::Swap {
                    pool,
                    zero_for_one,
                    amount_in,
                } => view
                    .quote_swap(*pool, *zero_for_one, SwapKind::ExactInput(*amount_in), None)
                    .is_ok(),
                QuoteRequest::Route { hops, amount_in } => {
                    let route = RouteTx {
                        user: Address::from_pubkey_bytes(b"quote-reader"),
                        hops: hops.clone(),
                        amount_in: *amount_in,
                        min_amount_out: 0,
                        deadline_round: u64::MAX,
                    };
                    view.simulate_route(&route).is_ok()
                }
                QuoteRequest::Valuation { pool, position } => {
                    view.value_position(*pool, position).is_ok()
                }
            };
            served += u64::from(ok);
        }
        self.tr.exit(serving);
        self.tr
            .count("core.view.inrun_quotes", requests.len() as u64);
        self.tr.count(
            "core.view.inrun_quotes_failed",
            requests.len() as u64 - served,
        );
    }

    /// Mirrors `System::execute_queued_batch`.
    fn execute_queued_batch(
        &mut self,
        arrival_cutoff: Option<SimTime>,
        round_end: SimTime,
        global_round: u64,
        payout_epoch: u64,
    ) -> Vec<ExecutedTx> {
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
        let executed = span!(
            self.tr,
            "core.shard.execute",
            self.shards
                .execute_batch(&batch, global_round, ExecMode::default())
        );
        self.tr.count("core.shard.txs", executed.len() as u64);
        let rejected_before = self.rejected;
        let mut route_legs = 0u64;
        for ((arrival, tx, _), out) in popped.iter().zip(&executed) {
            if let Some(slot) = self.txs_by_pool.get_mut(tx.pool().0 as usize) {
                *slot += 1;
            }
            if out.accepted() {
                self.accepted += 1;
                self.sc_latency.record(round_end.since(*arrival));
                self.awaiting_payout
                    .entry(payout_epoch)
                    .or_default()
                    .push(*arrival);
                match &out.effect {
                    TxEffect::Burn {
                        position,
                        deleted: true,
                        ..
                    } => self.generator.forget_position(*position),
                    TxEffect::Route { legs, .. } => route_legs += legs.len() as u64,
                    _ => {}
                }
            } else {
                self.rejected += 1;
            }
        }
        self.tr.count("core.shard.route_legs", route_legs);
        self.tr
            .count("core.shard.rejected", self.rejected - rejected_before);
        executed
    }

    /// Mirrors `System::close_epoch`.
    fn close_epoch(&mut self, epoch: u64, epoch_end: SimTime) {
        let (payouts, positions, pool_updates) =
            span!(self.tr, "core.shard.end_epoch", self.shards.end_epoch());
        self.publish_view(epoch);

        let sealing = self.tr.enter("sidechain.summary");
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
        let summary_bytes = summary.size_bytes() as u64;
        self.ledger
            .append_summary(summary)
            .expect("locally built summary chains correctly");
        self.tr.exit(sealing);
        self.tr
            .count_max("sidechain.summary_bytes_max", summary_bytes);

        self.unsynced
            .push((epoch, payouts, positions, pool_updates));
        self.submit_sync(epoch, epoch_end);
        self.maybe_checkpoint(epoch);
    }

    fn publish_view(&mut self, epoch: u64) {
        let (view, stats) = span!(
            self.tr,
            "core.view.publish",
            self.shards.publish_view(epoch)
        );
        self.quote_view = view;
        self.tr.count("core.view.pools_reused", stats.reused as u64);
        self.tr
            .count("core.view.pools_recloned", stats.recloned as u64);
    }

    /// Mirrors `System::maybe_checkpoint` under the default checkpoint
    /// mode (stage and commit inline at the boundary), with the two
    /// halves of `checkpoint_node` timed apart.
    fn maybe_checkpoint(&mut self, epoch: u64) {
        if !self.cfg.snapshot.enabled() || epoch % self.cfg.snapshot.interval_epochs != 0 {
            return;
        }
        let staged = span!(
            self.tr,
            "state.stage",
            stage_node(
                &mut self.checkpointer,
                epoch,
                &mut self.shards,
                &self.ledger
            )
        );
        let output = span!(self.tr, "state.commit", staged.commit());
        self.checkpointer
            .note_committed(output.stats.epoch, output.stats.root);
        self.tr
            .count("state.pages_total", output.stats.pages_total as u64);
        self.tr
            .count("state.pages_dirty", output.stats.pages_dirty as u64);
        // `System` keeps the output and frees the previous one here; the
        // replica frees this one, which costs the same
        drop(output);
        if !self.cfg.disable_pruning {
            let policy = RetentionPolicy {
                keep_epochs: self.cfg.snapshot.keep_epochs,
            };
            span!(
                self.tr,
                "state.retention_prune",
                prune_to_snapshot(&mut self.ledger, epoch, policy)
            );
        }
    }

    /// Mirrors `System::submit_sync` without the rollback backup.
    fn submit_sync(&mut self, through_epoch: u64, at: SimTime) {
        let encoding = self.tr.enter("mainchain.abi_encode");
        let payouts = self.unsynced.last().expect("non-empty").1.clone();
        let mut merged: BTreeMap<_, PositionEntry> = BTreeMap::new();
        for (_, _, positions, _) in &self.unsynced {
            for p in positions {
                merged.insert(p.id, *p);
            }
        }
        let pools = self.unsynced.last().expect("non-empty").3.clone();
        let input = SyncInput {
            epoch: through_epoch,
            payouts,
            positions: merged.into_values().collect(),
            pools,
            next_vk: self.next_dkg.group_public_key,
        };
        let payload = input.abi_payload();
        self.tr.exit(encoding);
        self.tr
            .count("crypto.tsqc_payload_bytes", payload.len() as u64);

        let threshold = self.registered_shares.config.threshold;
        let signing = self.tr.enter("crypto.tsqc_sign");
        let partials: Vec<_> = self.registered_shares.key_shares[..threshold]
            .iter()
            .map(|ks| partial_sign(ks, &payload))
            .collect();
        self.tr.exit(signing);
        let qc = span!(
            self.tr,
            "crypto.tsqc_assemble",
            QuorumCertificate::assemble(through_epoch, &payload, &partials, threshold)
                .expect("threshold partials available")
        );

        self.synced_through = through_epoch;
        let receipt = span!(
            self.tr,
            "mainchain.bank_sync",
            self.bank
                .sync(&input, &qc, &mut self.token0, &mut self.token1)
                .expect("committee-built sync must verify")
        );

        let relocking = self.tr.enter("mainchain.relock");
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
        self.tr.exit(relocking);

        let spec = TxSpec {
            label: "sync".into(),
            gas: receipt.meter.total(),
            size_bytes: receipt.tx_size_bytes,
            depends_on: None,
        };
        let tx_id = span!(self.tr, "mainchain.chain", self.chain.submit(at, spec));
        self.tr.count("mainchain.sync_gas", receipt.meter.total());
        self.tr
            .count("mainchain.sync_bytes", receipt.tx_size_bytes as u64);
        self.pending_syncs.push((tx_id, through_epoch));

        self.registered_shares = self.next_dkg.clone();
        let dkg_cfg = DkgConfig::for_faults(self.cfg.crypto_committee_faults);
        let dkg_seed = self.cfg.seed ^ 0xD16 ^ (through_epoch + 2);
        self.next_dkg = span!(self.tr, "crypto.dkg", run_ceremony(dkg_cfg, dkg_seed));
    }

    /// Mirrors `System::handle_confirmations` without the rollback arm.
    fn handle_confirmations(&mut self) {
        let mut remaining = Vec::new();
        for (tx_id, through_epoch) in std::mem::take(&mut self.pending_syncs) {
            let Some(confirmed_at) = self.chain.confirmed_at(tx_id) else {
                remaining.push((tx_id, through_epoch));
                continue;
            };
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
            let pruning = self.tr.enter("sidechain.prune");
            for (e, _, _, _) in self.unsynced.drain(..) {
                if !self.cfg.disable_pruning {
                    let _ = self.ledger.prune_epoch(e);
                }
            }
            self.tr.exit(pruning);
        }
        self.pending_syncs = remaining;
    }

    /// Mirrors `System::submit_deposits`.
    fn submit_deposits(&mut self, at: SimTime, for_epoch: u64) {
        let amount = self.cfg.deposit_amount;
        for user in self.generator.users() {
            let mut m_a0 = GasMeter::new();
            self.token0
                .approve(user, self.bank.address, amount, &mut m_a0);
            let a0 = self.chain.submit(
                at,
                TxSpec {
                    label: "approve".into(),
                    gas: m_a0.total() + TX_BASE,
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
                    gas: m_a1.total() + TX_BASE,
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
        }
    }

    /// Mirrors `System::drain_queue`.
    fn drain_queue(&mut self, run_end: SimTime) -> SimTime {
        if self.queue.is_empty() {
            return run_end;
        }
        let drain_epoch = self.cfg.epochs + 1;
        assert!(
            self.synced_through >= self.cfg.epochs,
            "no faults, so no carry-over"
        );
        let snapshot = span!(
            self.tr,
            "mainchain.snapshot_deposits",
            self.bank.snapshot_deposits(drain_epoch)
        );
        let generator = &self.generator;
        span!(
            self.tr,
            "core.shard.begin_epoch",
            self.shards
                .begin_epoch(snapshot, |user| generator.pool_for(user))
        );

        let mut t = run_end;
        let mut round = self.cfg.epochs * self.cfg.rounds_per_epoch;
        while !self.queue.is_empty() {
            let round_end = t + self.cfg.round_duration;
            self.execute_queued_batch(None, round_end, round, drain_epoch);
            round += 1;
            t = round_end;
        }
        let settle = t + SimDuration::from_secs(60);
        span!(self.tr, "mainchain.chain", self.chain.advance_to(settle));
        self.handle_confirmations();
        let (payouts, positions, pool_updates) =
            span!(self.tr, "core.shard.end_epoch", self.shards.end_epoch());
        self.publish_view(drain_epoch);
        self.unsynced
            .push((drain_epoch, payouts, positions, pool_updates));
        self.submit_sync(drain_epoch, settle);
        let confirm = t + SimDuration::from_secs(120);
        span!(self.tr, "mainchain.chain", self.chain.advance_to(confirm));
        self.handle_confirmations();
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ammboost_core::config::SnapshotPolicy;
    use ammboost_core::System;
    use ammboost_workload::{EngineMix, QuoteStyle, RouteStyle, TrafficSkew};

    /// The paper-shaped tiny config: one pool, no snapshots, no backlog.
    fn tiny_paper(seed: u64) -> SystemConfig {
        SystemConfig {
            seed,
            ..SystemConfig::small_test()
        }
    }

    /// A tiny fleet that takes every branch the workloads take: three
    /// engines, skew, routes, in-run quotes, per-epoch checkpoints, and a
    /// meta-block budget small enough to leave a backlog for the drain.
    fn tiny_fleet(seed: u64) -> SystemConfig {
        SystemConfig {
            seed,
            pools: 3,
            users: 12,
            daily_volume: 400_000,
            meta_block_bytes: 6_000,
            traffic_skew: TrafficSkew::Zipf { exponent: 1.0 },
            engine_mix: EngineMix::of(1, 1, 1),
            route_style: RouteStyle::routed(0.3, 3),
            quote_style: QuoteStyle::per_tx(1.0),
            snapshot: SnapshotPolicy::every_epoch(),
            ..SystemConfig::small_test()
        }
    }

    fn assert_replica_matches_system(cfg: SystemConfig) {
        let mut sys = System::new(cfg.clone());
        let expected = sys.run();
        let expected_root = sys.checkpoint(cfg.epochs + 1).root;

        let mut replica = Replica::new(cfg.clone());
        let got = replica.run();
        let got_root = replica.checkpoint(cfg.epochs + 1).stats.root;

        assert!(expected.accepted > 0, "{expected:?}");
        assert_eq!(got.submitted, expected.submitted);
        assert_eq!(got.accepted, expected.accepted);
        assert_eq!(got.rejected, expected.rejected);
        assert_eq!(got.leftover_queue, expected.leftover_queue);
        assert_eq!(got.mainchain_gas, expected.mainchain_gas);
        assert_eq!(got.sidechain_bytes, expected.sidechain_bytes);
        assert_eq!(got_root, expected_root);

        // the counts the trace reports agree with the node's own report
        let tr = &replica.tr;
        assert_eq!(tr.get_count("workload.txs"), expected.submitted);
        assert_eq!(tr.get_count("core.shard.txs"), expected.submitted);
        assert_eq!(tr.get_count("core.shard.rejected"), expected.rejected);
        assert_eq!(
            tr.get_count("core.shard.route_legs"),
            expected.route_legs_executed
        );
        assert_eq!(tr.get_count("mainchain.sync_gas"), expected.sync_gas);
        assert_eq!(
            tr.get_count("sidechain.summary_bytes_max"),
            expected.max_summary_bytes
        );
        assert_eq!(
            tr.get_count("core.view.pools_recloned"),
            expected.view_pools_recloned
        );
        assert_eq!(
            tr.get_count("core.view.pools_reused"),
            expected.view_pools_reused
        );
        assert_eq!(
            tr.get_count("core.view.inrun_quotes"),
            expected.quotes_served + expected.quotes_failed
        );
        assert_eq!(
            tr.get_count("core.view.inrun_quotes_failed"),
            expected.quotes_failed
        );
    }

    #[test]
    fn replica_matches_system_run_on_the_paper_shape() {
        for seed in [7, 8] {
            assert_replica_matches_system(tiny_paper(seed));
        }
    }

    #[test]
    fn replica_matches_system_run_on_a_draining_fleet() {
        for seed in [7, 8] {
            let cfg = tiny_fleet(seed);
            assert_replica_matches_system(cfg.clone());
            // the fleet config really does leave a backlog to drain
            let drain_epoch = cfg.epochs + 1;
            let mut replica = Replica::new(cfg);
            replica.run();
            let drained = replica
                .tr
                .spans()
                .iter()
                .any(|s| s.name == "core.shard.execute" && s.epoch == drain_epoch);
            assert!(drained);
            assert!(replica.tr.get_count("core.shard.route_legs") > 0);
        }
    }

    #[test]
    #[should_panic(expected = "no fault schedule")]
    fn a_fault_plan_is_refused() {
        let mut cfg = tiny_paper(7);
        cfg.faults.rollback_epochs.insert(2);
        Replica::new(cfg);
    }
}
