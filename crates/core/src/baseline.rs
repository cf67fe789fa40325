//! The baseline runner: the same workload pushed through a full
//! on-mainchain Uniswap deployment (the paper's Sepolia baseline),
//! producing the gas / growth / latency numbers ammBoost is compared
//! against in Table III and Figure 5.

use ammboost_amm::tx::{AmmTx, AmmTxKind};
use ammboost_amm::types::{PoolId, PositionId};
use ammboost_mainchain::chain::{Mainchain, TxId, TxSpec};
use ammboost_mainchain::contracts::uniswap::{BaselineError, UniswapBaseline};
use ammboost_mainchain::contracts::Erc20;
use ammboost_mainchain::gas::{GasMeter, TX_BASE};
use ammboost_sim::metrics::LatencyStats;
use ammboost_sim::time::{SimDuration, SimTime};
use ammboost_workload::{GeneratorConfig, LiquidityStyle, TrafficGenerator};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Configuration of a baseline run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BaselineConfig {
    /// Daily transaction volume.
    pub daily_volume: u64,
    /// Traffic mix.
    pub mix: ammboost_workload::TrafficMix,
    /// Simulated users.
    pub users: u64,
    /// Run length.
    pub duration: SimDuration,
    /// Mainchain parameters.
    pub mainchain: ammboost_mainchain::chain::ChainConfig,
    /// Mint range shape for generated liquidity.
    pub liquidity_style: LiquidityStyle,
    /// Seed.
    pub seed: u64,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        BaselineConfig {
            daily_volume: 500_000,
            mix: ammboost_workload::TrafficMix::uniswap_2023(),
            users: 100,
            duration: SimDuration::from_secs(11 * 210),
            mainchain: ammboost_mainchain::chain::ChainConfig::default(),
            liquidity_style: LiquidityStyle::default(),
            seed: 7,
        }
    }
}

/// Per-operation statistics.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct OpStats {
    /// Operations executed.
    pub count: u64,
    /// Total gas.
    pub gas: u64,
    /// Mean confirmation latency in seconds.
    pub avg_latency_secs: f64,
}

/// The baseline run's report.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BaselineReport {
    /// Operations attempted.
    pub submitted: u64,
    /// Operations executed successfully.
    pub executed: u64,
    /// Operations that failed contract validation.
    pub failed: u64,
    /// Total gas consumed (operations + approvals).
    pub total_gas: u64,
    /// Mainchain growth in bytes.
    pub growth_bytes: u64,
    /// Growth as it would be on production Ethereum (mainnet tx sizes,
    /// the paper's 97.60% comparison point).
    pub mainnet_growth_bytes: u64,
    /// Per-kind breakdown (swap, mint, burn, collect).
    pub per_op: HashMap<String, OpStats>,
    /// Mean confirmation latency across all ops, seconds.
    pub avg_latency_secs: f64,
    /// Throughput in executed transactions per second.
    pub throughput_tps: f64,
}

/// Runs the baseline workload.
pub struct BaselineRunner {
    cfg: BaselineConfig,
    chain: Mainchain,
    base: UniswapBaseline,
    token0: Erc20,
    token1: Erc20,
    generator: TrafficGenerator,
    position_map: HashMap<PositionId, PositionId>,
}

impl BaselineRunner {
    /// Deploys the baseline and funds/approves the user population.
    pub fn new(cfg: BaselineConfig) -> BaselineRunner {
        let base = UniswapBaseline::new();
        let mut token0 = Erc20::new("TKA");
        let mut token1 = Erc20::new("TKB");
        let generator = TrafficGenerator::new(GeneratorConfig {
            daily_volume: cfg.daily_volume,
            mix: cfg.mix,
            users: cfg.users,
            round_duration: SimDuration::from_secs(7),
            pools: vec![PoolId(0)],
            skew: ammboost_workload::TrafficSkew::default(),
            route_style: ammboost_workload::RouteStyle::default(),
            deadline_slack_rounds: 1_000_000,
            max_positions_per_user: 1,
            liquidity_style: cfg.liquidity_style,
            quote_style: ammboost_workload::QuoteStyle::default(),
            engine_mix: ammboost_workload::EngineMix::default(),
            seed: cfg.seed ^ 0x7AFF,
        });
        for user in generator.users() {
            token0.mint(user, u128::MAX >> 24);
            token1.mint(user, u128::MAX >> 24);
        }
        // genesis LP seeds standing liquidity directly
        let genesis = ammboost_crypto::Address::from_pubkey_bytes(b"genesis-lp-baseline");
        token0.mint(genesis, u128::MAX >> 8);
        token1.mint(genesis, u128::MAX >> 8);
        let mut runner = BaselineRunner {
            cfg,
            chain: Mainchain::new(ammboost_mainchain::chain::ChainConfig::default()),
            base,
            token0,
            token1,
            generator,
            position_map: HashMap::new(),
        };
        runner.chain = Mainchain::new(runner.cfg.mainchain);
        let mut meter = GasMeter::new();
        runner
            .token0
            .approve(genesis, runner.base.address, u128::MAX >> 9, &mut meter);
        runner
            .token1
            .approve(genesis, runner.base.address, u128::MAX >> 9, &mut meter);
        let (_, _, _, _receipt) = runner
            .base
            .mint(
                &ammboost_amm::tx::MintTx {
                    user: genesis,
                    pool: PoolId(0),
                    position: None,
                    tick_lower: -120_000,
                    tick_upper: 120_000,
                    amount0_desired: 4_000_000_000_000_000,
                    amount1_desired: 4_000_000_000_000_000,
                    nonce: 0,
                },
                &mut runner.token0,
                &mut runner.token1,
            )
            .expect("genesis liquidity");
        runner
    }

    /// Runs the workload and reports.
    pub fn run(mut self) -> BaselineReport {
        let round = SimDuration::from_secs(7);
        let rounds = self.cfg.duration.as_millis() / round.as_millis();
        let mut submitted = 0u64;
        let mut executed = 0u64;
        let mut failed = 0u64;
        let mut approval_gas = 0u64;
        let mut mainnet_growth = 0u64;
        let mut latency_all = LatencyStats::new();
        let mut per_kind_latency: HashMap<AmmTxKind, LatencyStats> = HashMap::new();
        let mut per_kind: HashMap<AmmTxKind, OpStats> = HashMap::new();
        let mut pending: Vec<(TxId, SimTime, AmmTxKind)> = Vec::new();

        for r in 0..rounds {
            let round_start = SimTime::ZERO + round.saturating_mul(r);
            let batch = self.generator.next_round(r);
            let n = batch.len().max(1) as u64;
            for (i, gtx) in batch.into_iter().enumerate() {
                let arrival =
                    round_start + SimDuration::from_millis(round.as_millis() * i as u64 / n);
                submitted += 1;
                match self.execute(&gtx.tx, arrival, &mut approval_gas) {
                    Ok((gas, size, kind, op_id)) => {
                        executed += 1;
                        mainnet_growth += gtx.tx.mainnet_size_bytes() as u64;
                        let stats = per_kind.entry(kind).or_default();
                        stats.count += 1;
                        stats.gas += gas;
                        pending.push((op_id, arrival, kind));
                        let _ = size;
                    }
                    Err(_) => failed += 1,
                }
            }
            self.chain.advance_to(round_start + round);
            pending.retain(|(id, arrival, kind)| {
                if let Some(conf) = self.chain.confirmed_at(*id) {
                    let lat = conf.since(*arrival);
                    latency_all.record(lat);
                    per_kind_latency.entry(*kind).or_default().record(lat);
                    false
                } else {
                    true
                }
            });
        }
        // let stragglers confirm
        let end = SimTime::ZERO + self.cfg.duration;
        self.chain.advance_to(end + SimDuration::from_secs(600));
        for (id, arrival, kind) in pending {
            if let Some(conf) = self.chain.confirmed_at(id) {
                let lat = conf.since(arrival);
                latency_all.record(lat);
                per_kind_latency.entry(kind).or_default().record(lat);
            }
        }

        let mut per_op = HashMap::new();
        for (kind, mut stats) in per_kind {
            stats.avg_latency_secs = per_kind_latency
                .get(&kind)
                .map(|l| l.mean_secs())
                .unwrap_or(0.0);
            per_op.insert(format!("{kind:?}"), stats);
        }
        BaselineReport {
            submitted,
            executed,
            failed,
            total_gas: self.chain.total_gas(),
            growth_bytes: self.chain.growth_bytes(),
            mainnet_growth_bytes: mainnet_growth,
            per_op,
            avg_latency_secs: latency_all.mean_secs(),
            throughput_tps: executed as f64 / self.cfg.duration.as_secs_f64(),
        }
        .with_approval_gas(approval_gas)
    }

    /// Executes one operation (plus its prerequisite approvals) and
    /// submits the corresponding mainchain transactions.
    fn execute(
        &mut self,
        tx: &AmmTx,
        arrival: SimTime,
        approval_gas: &mut u64,
    ) -> Result<(u64, usize, AmmTxKind, TxId), BaselineError> {
        let kind = tx.kind();
        let user = tx.user();

        // prerequisite approvals execute (and are submitted) first; the
        // operation's transaction depends on them
        let approvals_needed = match kind {
            AmmTxKind::Swap => 1,
            AmmTxKind::Mint => 2,
            AmmTxKind::Burn | AmmTxKind::Collect | AmmTxKind::Route => 0,
        };
        let mut dep: Option<TxId> = None;
        for i in 0..approvals_needed {
            let mut m = GasMeter::new();
            if i == 0 {
                self.token0
                    .approve(user, self.base.address, u128::MAX >> 16, &mut m);
            } else {
                self.token1
                    .approve(user, self.base.address, u128::MAX >> 16, &mut m);
            }
            let gas = m.total() + TX_BASE;
            *approval_gas += gas;
            let id = self.chain.submit(
                arrival,
                TxSpec {
                    label: "approve".into(),
                    gas,
                    size_bytes: 68,
                    depends_on: dep,
                },
            );
            dep = Some(id);
        }

        let (receipt, mapped_position) = match tx {
            AmmTx::Swap(s) => {
                let (_, receipt) = self.base.swap(s, &mut self.token0, &mut self.token1)?;
                (receipt, None)
            }
            AmmTx::Mint(m) => {
                let mut m = m.clone();
                if let Some(pos) = m.position {
                    if let Some(mapped) = self.position_map.get(&pos) {
                        m.position = Some(*mapped);
                    }
                }
                let (nft_id, _, _, receipt) =
                    self.base.mint(&m, &mut self.token0, &mut self.token1)?;
                // the generator tracks its derived id; map it to the NFT id
                (receipt, Some((m.derived_position_id(), nft_id)))
            }
            AmmTx::Burn(b) => {
                let mut b = b.clone();
                if let Some(mapped) = self.position_map.get(&b.position) {
                    b.position = *mapped;
                }
                let (_, receipt) = self.base.burn(&b, &mut self.token0, &mut self.token1)?;
                (receipt, None)
            }
            AmmTx::Collect(c) => {
                let mut c = c.clone();
                if let Some(mapped) = self.position_map.get(&c.position) {
                    c.position = *mapped;
                }
                let (_, receipt) = self.base.collect(&c, &mut self.token0, &mut self.token1)?;
                (receipt, None)
            }
            // the baseline models one pool on the mainchain; cross-pool
            // routes are the sidechain-only workload
            AmmTx::Route(_) => return Err(BaselineError::UnsupportedRoute),
        };
        if let Some((derived, nft)) = mapped_position {
            self.position_map.insert(derived, nft);
        }
        debug_assert_eq!(receipt.prereq_approvals, approvals_needed);

        let gas = receipt.meter.total();
        let op_id = self.chain.submit(
            arrival,
            TxSpec {
                label: kind.name().into(),
                gas,
                size_bytes: receipt.size_bytes,
                depends_on: dep,
            },
        );
        Ok((gas, receipt.size_bytes, kind, op_id))
    }
}

impl BaselineReport {
    fn with_approval_gas(self, _approval_gas: u64) -> BaselineReport {
        // approval gas is already inside `total_gas` (chain-accounted);
        // this hook exists for future itemization
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> BaselineConfig {
        BaselineConfig {
            daily_volume: 50_000,
            users: 10,
            duration: SimDuration::from_secs(350),
            seed: 11,
            ..BaselineConfig::default()
        }
    }

    #[test]
    fn baseline_run_executes_and_meters() {
        let report = BaselineRunner::new(tiny()).run();
        assert!(report.executed > 0, "{report:?}");
        assert!(report.total_gas > 0);
        assert!(report.growth_bytes > 0);
        assert!(report.mainnet_growth_bytes > report.growth_bytes);
        assert!(report.avg_latency_secs > 0.0);
    }

    #[test]
    fn per_op_gas_matches_table_iii_shape() {
        let report = BaselineRunner::new(BaselineConfig {
            daily_volume: 500_000,
            duration: SimDuration::from_secs(700),
            ..tiny()
        })
        .run();
        let swap = report.per_op.get("Swap").expect("swaps present");
        let swap_avg = swap.gas as f64 / swap.count as f64;
        assert!(
            (120_000.0..220_000.0).contains(&swap_avg),
            "swap avg gas {swap_avg}"
        );
        if let Some(mint) = report.per_op.get("Mint") {
            let mint_avg = mint.gas as f64 / mint.count as f64;
            assert!(mint_avg > swap_avg, "mint {mint_avg} !> swap {swap_avg}");
        }
    }

    #[test]
    fn latency_order_mint_gt_swap_gt_collect() {
        // mint waits for 2 approvals, swap for 1, burn/collect for none
        let report = BaselineRunner::new(BaselineConfig {
            daily_volume: 500_000,
            duration: SimDuration::from_secs(700),
            ..tiny()
        })
        .run();
        let lat = |k: &str| report.per_op.get(k).map(|s| s.avg_latency_secs);
        if let (Some(swap), Some(mint)) = (lat("Swap"), lat("Mint")) {
            assert!(mint > swap, "mint {mint} !> swap {swap}");
        }
        if let (Some(swap), Some(collect)) = (lat("Swap"), lat("Collect")) {
            assert!(swap > collect, "swap {swap} !> collect {collect}");
        }
    }

    #[test]
    fn deterministic() {
        let a = BaselineRunner::new(tiny()).run();
        let b = BaselineRunner::new(tiny()).run();
        assert_eq!(a.total_gas, b.total_gas);
        assert_eq!(a.executed, b.executed);
    }
}
