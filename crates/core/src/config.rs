//! System configuration: the paper's experiment knobs (§VI-A) plus the
//! fault-injection plan for the interruption-handling drills (§IV-C).

use ammboost_mainchain::chain::ChainConfig;
use ammboost_sim::time::SimDuration;
use ammboost_workload::{
    EngineMix, LiquidityStyle, QuoteStyle, RouteStyle, TrafficMix, TrafficSkew,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// How often users place mainchain deposits backing their sidechain
/// activity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum DepositPolicy {
    /// One generous deposit before the run covering every epoch — the
    /// configuration that matches the paper's Figure 5 gas accounting.
    OncePerRun,
    /// A fresh deposit every epoch (the paper's §IV-A protocol described
    /// strictly; heavier on mainchain gas). Only a user whose balance
    /// moved is paid out at the sync: an idle user's deposit is not
    /// bounced to the wallet and re-pulled but stays locked, adds to the
    /// fresh deposit, and shows up summed in the next opening snapshot.
    PerEpoch,
}

/// Checkpointing and snapshot-aware retention knobs (the
/// `ammboost-state` subsystem).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SnapshotPolicy {
    /// Take a Merkle-committed node checkpoint every N epochs; `0`
    /// disables checkpointing (the default — the paper's runs measure the
    /// sync-confirmation pruning path alone).
    pub interval_epochs: u64,
    /// Retention margin: how many checkpoint-covered epochs keep their
    /// raw meta-blocks anyway (see `ammboost_state::RetentionPolicy`).
    pub keep_epochs: u64,
}

impl SnapshotPolicy {
    /// Checkpoint at every epoch boundary, prune everything covered.
    pub fn every_epoch() -> SnapshotPolicy {
        SnapshotPolicy {
            interval_epochs: 1,
            keep_epochs: 0,
        }
    }

    /// `true` when checkpointing is on.
    pub fn enabled(&self) -> bool {
        self.interval_epochs > 0
    }
}

/// Full configuration of an ammBoost system run (defaults = the paper's
/// §VI-A experiment setup).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Number of epochs to run (paper: 11).
    pub epochs: u64,
    /// Sidechain rounds per epoch ω (paper: 30).
    pub rounds_per_epoch: u64,
    /// Round duration `bt` (paper: 7 s).
    pub round_duration: SimDuration,
    /// Meta-block size budget in bytes (paper: 1 MB).
    pub meta_block_bytes: usize,
    /// Committee size `3f + 2` (paper: 500).
    pub committee_size: usize,
    /// Registered sidechain miner population (paper cluster: ~8000; the
    /// simulation elects committees out of this pool).
    pub miner_population: usize,
    /// Daily transaction volume `V_D` (paper default: 25 × 10⁶).
    pub daily_volume: u64,
    /// Traffic mix.
    pub mix: TrafficMix,
    /// Simulated user count (paper: 100). Must be at least `pools`.
    pub users: u64,
    /// Number of pools the node serves (the paper's experiments use 1;
    /// real deployments serve fleets). TokenBank creates `PoolId(0..pools)`
    /// at deployment and the sidechain executes one shard per pool.
    pub pools: u32,
    /// How per-transaction traffic distributes across the pool set
    /// (uniform, or Zipf-skewed as real AMM fleets are).
    pub traffic_skew: TrafficSkew,
    /// How the fleet splits across AMM engine implementations
    /// (concentrated-liquidity / constant-product / weighted), assigned
    /// by pool index independently of the popularity skew (default: all
    /// concentrated-liquidity — the paper's setup).
    pub engine_mix: EngineMix,
    /// Routed-traffic profile: which share of swaps become multi-hop
    /// cross-pool routes, and their hop-count distribution (default: no
    /// routes — the paper's single-pool workloads).
    pub route_style: RouteStyle,
    /// Mint range shape for generated liquidity (default: the paper's
    /// spread; `Fragmented` tiles many single-spacing ranges, producing a
    /// tick-dense pool for swap-engine stress runs).
    pub liquidity_style: LiquidityStyle,
    /// Read-traffic profile: quote queries per executed transaction,
    /// served from the sealed epoch view (default: none — the paper's
    /// write-only workloads).
    pub quote_style: QuoteStyle,
    /// Deposit cadence.
    pub deposit_policy: DepositPolicy,
    /// Deposit size per user per token, per deposit event.
    pub deposit_amount: u128,
    /// Mainchain parameters (12 s blocks, 30M gas).
    pub mainchain: ChainConfig,
    /// Fault budget `f` of the *concrete* threshold-crypto committee
    /// (`3f + 2` members run the real DKG/TSQC; committee latency is
    /// modelled at [`SystemConfig::committee_size`] — see `system`
    /// module docs).
    pub crypto_committee_faults: usize,
    /// Disables meta-block pruning (ablation: quantifies how much of the
    /// paper's state-growth control comes from block suppression).
    /// Also gates the snapshot-driven retention pruning.
    pub disable_pruning: bool,
    /// Checkpoint cadence + retention for the snapshot subsystem.
    pub snapshot: SnapshotPolicy,
    /// Fault-injection plan.
    pub faults: FaultPlan,
    /// Root seed for all randomness.
    pub seed: u64,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            epochs: 11,
            rounds_per_epoch: 30,
            round_duration: SimDuration::from_secs(7),
            meta_block_bytes: 1_000_000,
            committee_size: 500,
            miner_population: 2000,
            daily_volume: 25_000_000,
            mix: TrafficMix::uniswap_2023(),
            users: 100,
            pools: 1,
            traffic_skew: TrafficSkew::default(),
            engine_mix: EngineMix::default(),
            route_style: RouteStyle::default(),
            liquidity_style: LiquidityStyle::default(),
            quote_style: QuoteStyle::default(),
            deposit_policy: DepositPolicy::OncePerRun,
            deposit_amount: 2_000_000_000_000,
            mainchain: ChainConfig::default(),
            crypto_committee_faults: 4,
            disable_pruning: false,
            snapshot: SnapshotPolicy::default(),
            faults: FaultPlan::default(),
            seed: 7,
        }
    }
}

impl SystemConfig {
    /// Epoch duration `ω · bt`.
    pub fn epoch_duration(&self) -> SimDuration {
        self.round_duration.saturating_mul(self.rounds_per_epoch)
    }

    /// Total simulated run length.
    pub fn run_duration(&self) -> SimDuration {
        self.epoch_duration().saturating_mul(self.epochs)
    }

    /// A small configuration for tests: committee of 5, short epochs,
    /// light traffic.
    pub fn small_test() -> SystemConfig {
        SystemConfig {
            epochs: 3,
            rounds_per_epoch: 5,
            committee_size: 5,
            miner_population: 20,
            daily_volume: 50_000,
            users: 10,
            crypto_committee_faults: 1,
            ..SystemConfig::default()
        }
    }
}

/// Fault injection: which epochs experience which interruption
/// (paper §IV-C "Handling interruptions").
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Epochs whose round-0 leader stays silent (unresponsive leader →
    /// view change).
    pub silent_leader_epochs: BTreeSet<u64>,
    /// Epochs whose round-0 leader proposes an invalid meta-block
    /// (→ rejected + view change).
    pub invalid_proposal_epochs: BTreeSet<u64>,
    /// Epochs whose leader submits invalid `Sync` inputs (committee
    /// refuses to certify → the *next* epoch mass-syncs).
    pub invalid_sync_epochs: BTreeSet<u64>,
    /// Epochs whose confirmed sync is lost to a mainchain rollback
    /// (→ mass-sync in the next epoch).
    pub rollback_epochs: BTreeSet<u64>,
}

impl FaultPlan {
    /// `true` when no fault is scheduled.
    pub fn is_empty(&self) -> bool {
        self.silent_leader_epochs.is_empty()
            && self.invalid_proposal_epochs.is_empty()
            && self.invalid_sync_epochs.is_empty()
            && self.rollback_epochs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_setup() {
        let c = SystemConfig::default();
        assert_eq!(c.epochs, 11);
        assert_eq!(c.rounds_per_epoch, 30);
        assert_eq!(c.round_duration.as_millis(), 7000);
        assert_eq!(c.meta_block_bytes, 1_000_000);
        assert_eq!(c.committee_size, 500);
        assert_eq!(c.users, 100);
        assert_eq!(c.epoch_duration().as_millis(), 210_000);
        assert_eq!(c.run_duration().as_millis(), 11 * 210_000);
    }

    #[test]
    fn fault_plan_emptiness() {
        let mut f = FaultPlan::default();
        assert!(f.is_empty());
        f.rollback_epochs.insert(3);
        assert!(!f.is_empty());
    }
}
