//! `repro` — the paper's evaluation (§VI: Tables I–XII, Figure 5, plus a
//! pruning ablation) as one ledger. Every experiment returns rows of
//! paper value, measured value and status:
//!
//! - `match`: asserted within [`TOLERANCE`] (relative) of the paper;
//! - `bound`: asserted strictly below the paper column, which holds a
//!   bound this reproduction sets itself, not a published figure;
//! - `model: reason`: a named modelling difference;
//! - `open: reason`: a known gap, listed rather than tuned away.
//!
//! ```text
//! repro [--smoke] [--only <id>]
//! ```
//!
//! `--smoke` skips the four sweeps (Tables VIII–XI); `--only` runs one
//! experiment. Exits 0 when every asserted row holds, 1 when one does
//! not, 2 on a bad flag. Inside one process each distinct system or
//! baseline configuration runs once and its report is shared.

use ammboost_amm::tx::{AmmTx, AmmTxKind, BurnTx, CollectTx, MintTx, SwapIntent, SwapTx};
use ammboost_amm::types::{PoolId, PositionId};
use ammboost_bench::header;
use ammboost_consensus::latency::AgreementModel;
use ammboost_core::baseline::{BaselineConfig, BaselineReport, BaselineRunner};
use ammboost_core::config::SystemConfig;
use ammboost_core::system::{System, SystemReport};
use ammboost_crypto::dkg::{run_ceremony, DkgConfig};
use ammboost_crypto::group::{G1_SERIALIZED_LEN, G2_SERIALIZED_LEN};
use ammboost_crypto::Address;
use ammboost_mainchain::chain::{ChainConfig, Mainchain, TxSpec};
use ammboost_mainchain::contracts::token_bank::{SyncInput, SyncReceipt};
use ammboost_mainchain::contracts::{Erc20, TokenBank};
use ammboost_mainchain::gas::{self, GasMeter};
use ammboost_rollup::{AmmOp, RollupConfig};
use ammboost_sidechain::codec;
use ammboost_sim::time::{SimDuration, SimTime};
use ammboost_workload::uniswap2023::{chain_growth_2023_bytes, daily_volume_1x, TABLE_VII};
use ammboost_workload::{uniswap2023, GeneratorConfig, TrafficGenerator, TrafficMix};
use std::any::Any;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;
use Status::{Bound, Match, Model, Open};

/// Relative distance from the paper within which every `match` row must
/// land.
const TOLERANCE: f64 = 0.05;

const USAGE: &str = "usage: repro [--smoke] [--only <id>]";

// Why a row is `model` or `open`, one line each.
const DRAIN: &str =
    "saturated: `drain_queue` settles the backlog as one giant epoch with one sync (ROADMAP 28)";
const SHORT_EPOCHS: &str = "drained rounds mine no summary block, so short epochs lose less than 1/ω of capacity (`drain_queue`, ROADMAP 28)";
const AMMOP_DRAIN: &str = "saturated: ammOP's backlog drains after the run in 1.8 MB / 35 s batches, as ammBoost's does (ROADMAP 4(b))";
const OFFERED_LOAD: &str = "below capacity this is the generated load over the 2 310 s run; the paper's is 0.57-0.73x its offered load (window not recoverable)";
const HALF_ROUND: &str =
    "an arrival waits half a 7 s round on average; the paper's 7.13 s is a full round";
const L1_INCLUSION: &str =
    "the simulated L1 includes a transaction in the next 12 s block; no mempool wait is modelled";
const PAYOUT_GAS: &str = "19 200 gross a payout (cold read, warm clear, two cold token writes); the paper's itemisation is not recoverable";
const DEPOSIT_GAS: &str =
    "two cold transferFroms plus a fresh deposit slot; the paper's itemisation is not recoverable";
const MINT_GAS: &str = "the average mixes fresh mints with top-ups, which rewrite slots at 5 000 instead of 22 100 gas a word";
const ONE_X: &str =
    "the sum of Table VII's per-kind daily volumes; the paper rounds its 1x reference to 50 K";
const SUMMARY_BY_MIX: &str = "a summary lists every position the epoch touched, a count that follows the mint/burn shares; the paper's is mix-invariant";
const AGREEMENT_FIT: &str = "one quadratic aggregation term (11.5 us x n^2) fitted across all five sizes; residuals reach 13 % at n >= 500";
const SEPOLIA_GROWTH: &str = "ammBoost's deposit + sync bytes are a larger share of the Sepolia baseline than in the paper; not yet attributed";

/// How a row is judged.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Status {
    /// Within [`TOLERANCE`] of the paper.
    Match,
    /// Strictly below the paper column.
    Bound,
    /// A named modelling difference; never fails.
    Model(&'static str),
    /// A known gap; never fails.
    Open(&'static str),
}

/// One paper-vs-measured pair.
struct Row {
    label: String,
    paper: f64,
    measured: f64,
    /// Decimals the measured value prints with.
    decimals: usize,
    status: Status,
}

fn row(
    label: impl Into<String>,
    paper: f64,
    measured: f64,
    decimals: usize,
    status: Status,
) -> Row {
    Row {
        label: label.into(),
        paper,
        measured,
        decimals,
        status,
    }
}

/// Label, paper, measured, decimals and status: one line of a table.
type Spec = (&'static str, f64, f64, usize, Status);

fn rows(specs: impl IntoIterator<Item = Spec>) -> Vec<Row> {
    specs
        .into_iter()
        .map(|(l, p, m, d, s)| row(l, p, m, d, s))
        .collect()
}

impl Row {
    /// Whether the row passes its check (`model` / `open` rows always do).
    fn holds(&self) -> bool {
        match self.status {
            Match => (self.measured - self.paper).abs() <= TOLERANCE * self.paper.abs(),
            Bound => self.measured < self.paper,
            Model(_) | Open(_) => true,
        }
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let measured = format!("{:.*}", self.decimals, self.measured);
        write!(
            f,
            "{:<44} paper: {:>14}   measured: {:>14}   ",
            self.label, self.paper, measured
        )?;
        match self.status {
            Match if !self.holds() => write!(
                f,
                "match FAILED: {:+.2} % off, tolerance ±{} %",
                100.0 * (self.measured / self.paper - 1.0),
                100.0 * TOLERANCE
            ),
            Bound if !self.holds() => write!(f, "bound FAILED: not below the paper column"),
            Match => write!(f, "match"),
            Bound => write!(f, "bound"),
            Model(why) => write!(f, "model: {why}"),
            Open(why) => write!(f, "open: {why}"),
        }
    }
}

/// What a system run leaves for the ledger: its report and the receipt
/// of its last sync (Table II itemises it).
#[derive(Clone)]
struct SystemRun {
    report: SystemReport,
    last_sync: Option<SyncReceipt>,
}

/// ammOP's figures for Table VI.
struct AmmOpRun {
    capacity_tps: f64,
    tx_latency_secs: f64,
    payout_latency_secs: f64,
}

/// How each kind of configuration is run (tests swap in stubs).
#[derive(Clone, Copy)]
struct Exec {
    system: fn(SystemConfig) -> SystemRun,
    uniswap: fn(BaselineConfig) -> BaselineReport,
    ammop: fn((GeneratorConfig, RollupConfig)) -> AmmOpRun,
}

const REAL: Exec = Exec {
    system: run_system,
    uniswap: |cfg| BaselineRunner::new(cfg).run(),
    ammop: run_ammop,
};

fn run_system(cfg: SystemConfig) -> SystemRun {
    let mut system = System::new(cfg);
    let report = system.run();
    let last_sync = system.last_sync_receipt().cloned();
    SystemRun { report, last_sync }
}

/// ammOP over the paper's 11 epochs × 30 rounds × 7 s: each round's
/// arrivals spread evenly across it, then the backlog drains.
fn run_ammop((traffic, rollup): (GeneratorConfig, RollupConfig)) -> AmmOpRun {
    let mut gen = TrafficGenerator::new(traffic);
    let mut op = AmmOp::new(rollup);
    let round = SimDuration::from_secs(7);
    for r in 0..11 * 30u64 {
        let start = SimTime::ZERO + round.saturating_mul(r);
        let batch = gen.next_round(r);
        let n = batch.len().max(1) as u64;
        for (i, gtx) in batch.into_iter().enumerate() {
            let at = start + SimDuration::from_millis(round.as_millis() * i as u64 / n);
            op.submit(at, gtx.wire_size);
        }
        op.advance_to(start + round);
    }
    op.drain();
    AmmOpRun {
        capacity_tps: op.capacity_tps(uniswap2023::mix_weighted_avg_size()),
        tx_latency_secs: op.avg_tx_latency().as_secs_f64(),
        payout_latency_secs: op.avg_payout_latency().as_secs_f64(),
    }
}

/// Runs each distinct configuration once per process and shares the
/// result. A configuration is identified by its `Debug` rendering.
struct Runs {
    exec: Exec,
    done: HashMap<String, Rc<dyn Any>>,
    /// Configurations actually run.
    count: usize,
}

impl Runs {
    fn new(exec: Exec) -> Runs {
        Runs {
            exec,
            done: HashMap::new(),
            count: 0,
        }
    }

    fn system(&mut self, cfg: SystemConfig) -> Rc<SystemRun> {
        self.memo(cfg, self.exec.system)
    }

    fn uniswap(&mut self, cfg: BaselineConfig) -> Rc<BaselineReport> {
        self.memo(cfg, self.exec.uniswap)
    }

    fn ammop(&mut self, cfg: (GeneratorConfig, RollupConfig)) -> Rc<AmmOpRun> {
        self.memo(cfg, self.exec.ammop)
    }

    fn memo<C: fmt::Debug, R: 'static>(&mut self, cfg: C, run: fn(C) -> R) -> Rc<R> {
        let key = format!("{cfg:?}");
        if let Some(hit) = self.done.get(&key) {
            return Rc::clone(hit)
                .downcast()
                .expect("a configuration type has one result type");
        }
        self.count += 1;
        let result = Rc::new(run(cfg));
        self.done.insert(key, result.clone());
        result
    }
}

struct Experiment {
    /// What `--only` takes.
    id: &'static str,
    /// Skipped by `--smoke`.
    sweep: bool,
    rows: fn(&mut Runs) -> Vec<Row>,
    title: &'static str,
}

const fn experiment(
    id: &'static str,
    sweep: bool,
    rows: fn(&mut Runs) -> Vec<Row>,
    title: &'static str,
) -> Experiment {
    Experiment {
        id,
        sweep,
        rows,
        title,
    }
}

#[rustfmt::skip]
const EXPERIMENTS: &[Experiment] = &[
    experiment("table01", false, table01, "Table I — ammBoost vs deployed rollup solutions"),
    experiment("table02", false, table02, "Table II — itemized gas + mainchain latency (ammBoost ops)"),
    experiment("table03", false, table03, "Table III — Uniswap baseline per-operation gas + latency"),
    experiment("table04", false, table04, "Table IV — per-operation storage overhead (bytes)"),
    experiment("table05", false, table05, "Table V — Scalability of ammBoost (V_D sweep)"),
    experiment("table06", false, table06, "Table VI — ammBoost vs ammOP (Optimism-inspired rollup)"),
    experiment("table07", false, table07, "Table VII — Uniswap 2023 traffic breakdown"),
    experiment("table08", true, table08, "Table VIII — sidechain block size sweep (V_D = 50M/day)"),
    experiment("table09", true, table09, "Table IX — sidechain round duration sweep (V_D = 25M/day)"),
    experiment("table10", true, table10, "Table X — rounds-per-epoch sweep (V_D = 25M/day)"),
    experiment("table11", true, table11, "Table XI — traffic-mix sweep (V_D = 25M/day)"),
    experiment("table12", false, table12, "Table XII — committee size vs agreement time (1 MB blocks)"),
    experiment("fig05", false, fig05, "Figure 5 — gas cost and chain growth, ammBoost vs Uniswap"),
    experiment("ablation", false, ablation, "Ablation — sidechain pruning on/off (V_D = 500K, 11 epochs)"),
];

/// The paper's 10× Uniswap volume (Table II, Figure 5, the ablation).
fn system_500k() -> SystemConfig {
    SystemConfig {
        daily_volume: 500_000,
        ..SystemConfig::default()
    }
}

/// Throughput, sidechain latency and payout latency of one run — the
/// columns of Tables V, VI and VIII–XI.
fn run_rows(at: &str, paper: [f64; 3], report: &SystemReport, status: [Status; 3]) -> [Row; 3] {
    let what = [
        "throughput (tx/s)",
        "avg sc latency (s)",
        "avg payout latency (s)",
    ];
    let measured = [
        report.throughput_tps,
        report.avg_sc_latency_secs,
        report.avg_payout_latency_secs,
    ];
    std::array::from_fn(|i| {
        row(
            format!("{at}: {}", what[i]),
            paper[i],
            measured[i],
            2,
            status[i],
        )
    })
}

/// A run whose arrivals outpace the block budget.
const SATURATED: [Status; 3] = [Match, Open(DRAIN), Open(DRAIN)];

fn table01(runs: &mut Runs) -> Vec<Row> {
    let run = runs.system(SystemConfig::default());
    let r = &run.report;
    #[rustfmt::skip]
    let specs = [
        ("ammBoost throughput (tx/s)", 138.06, r.throughput_tps,          2, Match),
        ("ammBoost payout delay (s)",  346.49, r.avg_payout_latency_secs, 0, Open(DRAIN)),
    ];
    rows(specs)
}

fn table02(runs: &mut Runs) -> Vec<Row> {
    let run = runs.system(SystemConfig {
        epochs: 3,
        ..system_500k()
    });
    let sync = run.last_sync.as_ref().expect("a sync was submitted");
    let item = |label| sync.meter.total_for(label) as f64;
    let payout_each = (sync.meter.total_for("payout") / sync.payouts_applied.max(1) as u64) as f64;
    let keccak = gas::keccak_cost(sync.payload_bytes) as f64;

    // a two-token deposit into a fresh bank
    let dkg = run_ceremony(DkgConfig::for_faults(1), 1);
    let mut bank = TokenBank::deploy(dkg.group_public_key);
    bank.create_pool(PoolId(0), &mut GasMeter::new());
    let (mut t0, mut t1) = (Erc20::new("TKA"), Erc20::new("TKB"));
    let user = Address::from_index(1);
    for token in [&mut t0, &mut t1] {
        token.mint(user, 10_000);
        token.approve(user, bank.address, 5_000, &mut GasMeter::new());
    }
    let mut deposit = GasMeter::new();
    bank.deposit(user, 5_000, 5_000, 1, &mut t0, &mut t1, &mut deposit)
        .expect("deposit");

    // confirmation latency on 12 s blocks: a sync, and a deposit behind
    // its two approvals
    let mut chain = Mainchain::new(ChainConfig::default());
    let at = SimTime::from_secs(1);
    let mut submit = |label: &'static str, gas, size_bytes, depends_on| {
        chain.submit(
            at,
            TxSpec {
                label: label.into(),
                gas,
                size_bytes,
                depends_on,
            },
        )
    };
    let sync_tx = submit("sync", 1_000_000, 5_000, None);
    let a0 = submit("approve", 50_000, 68, None);
    let a1 = submit("approve", 50_000, 68, Some(a0));
    let deposit_tx = submit("deposit", 110_000, 132, Some(a1));
    chain.advance_to(SimTime::from_secs(120));
    let latency = |tx| {
        chain
            .confirmed_at(tx)
            .expect("confirmed")
            .since(at)
            .as_secs_f64()
    };

    #[rustfmt::skip]
    let specs = [
        ("Sync: payout (each)",              15_771.0,  payout_each,                       0, Open(PAYOUT_GAS)),
        ("Sync: storage (per 32-byte word)", 22_100.0,  gas::SSTORE_NEW_WORD as f64,       0, Match),
        ("Auth: Keccak256 (30 + 6/word)",    keccak,    item("auth.keccak256"),            0, Match),
        ("Auth: hash-to-point ecMul",        6_000.0,   item("auth.hash_to_point.ecmul"),  0, Match),
        ("Auth: pairing verify (k = 2)",     113_000.0, item("auth.pairing"),              0, Match),
        ("Deposit (2 tokens)",               105_392.0, deposit.total() as f64,            0, Open(DEPOSIT_GAS)),
        ("MC latency: Sync (s)",             15.28,     latency(sync_tx),                  2, Model(L1_INCLUSION)),
        ("MC latency: Deposit (s)",          54.60,     latency(deposit_tx),               2, Model(L1_INCLUSION)),
    ];
    rows(specs)
}

fn table03(runs: &mut Runs) -> Vec<Row> {
    // the default is the paper's: V_D = 500 K over 11 × 210 s
    let report = runs.uniswap(BaselineConfig::default());
    let stats = |kind: AmmTxKind| {
        let stats = report.per_op.get(&format!("{kind:?}"));
        stats.copied().unwrap_or_default()
    };
    #[rustfmt::skip]
    let ops = [
        (AmmTxKind::Swap,    160_601.45, 31.34, Match),
        (AmmTxKind::Mint,    435_609.86, 42.24, Open(MINT_GAS)),
        (AmmTxKind::Burn,    158_473.43, 12.72, Match),
        (AmmTxKind::Collect, 163_743.04, 13.45, Match),
    ];
    let gas = ops.iter().map(|&(kind, paper, _, status)| {
        let s = stats(kind);
        let measured = s.gas as f64 / s.count as f64;
        row(format!("avg gas: {kind:?}"), paper, measured, 0, status)
    });
    let latency = ops.iter().map(|&(kind, _, paper, _)| {
        let measured = stats(kind).avg_latency_secs;
        row(
            format!("MC latency: {kind:?} (s)"),
            paper,
            measured,
            2,
            Model(L1_INCLUSION),
        )
    });
    gas.chain(latency).collect()
}

/// One transaction of each Table IV kind (their sizes depend on the kind
/// alone).
#[rustfmt::skip]
fn one_of_each_kind() -> [AmmTx; 4] {
    let (user, pool, position) = (Address::from_index(1), PoolId(0), PositionId::derive(&[b"iv"]));
    let intent = SwapIntent::ExactInput { amount_in: 1, min_amount_out: 0 };
    [
        AmmTx::Swap(SwapTx { user, pool, zero_for_one: true, intent, sqrt_price_limit: None,
                             deadline_round: 0 }),
        AmmTx::Mint(MintTx { user, pool, position: None, tick_lower: -60, tick_upper: 60,
                             amount0_desired: 1, amount1_desired: 1, nonce: 0 }),
        AmmTx::Burn(BurnTx { user, pool, position, liquidity: None }),
        AmmTx::Collect(CollectTx { user, pool, position, amount0: 0, amount1: 0 }),
    ]
}

fn table04(_: &mut Runs) -> Vec<Row> {
    #[rustfmt::skip]
    let entries = [
        ("payout entry (mainchain ABI)",      352.0, SyncInput::abi_payout_entry_size()),
        ("payout entry (sidechain packed)",    97.0, codec::payout_entry_size()),
        ("position entry (mainchain ABI)",    416.0, SyncInput::abi_position_entry_size()),
        ("position entry (sidechain packed)", 215.0, codec::position_entry_size()),
        ("vk_c (committee key)",              128.0, G2_SERIALIZED_LEN),
        ("TSQC signature",                     64.0, G1_SERIALIZED_LEN),
    ];
    let txs = one_of_each_kind();
    let sepolia = [365.27, 565.55, 280.21, 150.18];
    let mainnet = [1007.83, 814.49, 907.07, 921.80];
    let sepolia = txs.iter().zip(sepolia).map(|(tx, paper)| {
        let label = format!("Sepolia tx size: {}", tx.kind().name());
        (label, paper, tx.sepolia_size_bytes())
    });
    let mainnet = txs.iter().zip(mainnet).map(|(tx, paper)| {
        let label = format!("mainnet tx size: {}", tx.kind().name());
        (label, paper, tx.mainnet_size_bytes())
    });
    let entries = entries.map(|(label, paper, bytes)| (label.to_string(), paper, bytes));
    entries
        .into_iter()
        .chain(sepolia)
        .chain(mainnet)
        .map(|(label, paper, bytes)| row(label, paper, bytes as f64, 0, Match))
        .collect()
}

fn table05(runs: &mut Runs) -> Vec<Row> {
    let under = [Model(OFFERED_LOAD), Model(HALF_ROUND), Match];
    [
        (50_000, [0.42, 7.13, 120.71], under),
        (500_000, [3.41, 7.13, 120.71], under),
        (5_000_000, [33.04, 7.13, 120.71], under),
        (25_000_000, [138.06, 231.52, 346.49], SATURATED),
    ]
    .into_iter()
    .flat_map(|(daily_volume, paper, status)| {
        let run = runs.system(SystemConfig {
            daily_volume,
            ..SystemConfig::default()
        });
        run_rows(&format!("V_D {daily_volume}"), paper, &run.report, status)
    })
    .collect()
}

fn table06(runs: &mut Runs) -> Vec<Row> {
    let op = runs.ammop((GeneratorConfig::default(), RollupConfig::default()));
    let run = runs.system(SystemConfig::default());
    let gain = run.report.throughput_tps / op.capacity_tps;
    #[rustfmt::skip]
    let ammop = [
        ("ammOP throughput (tx/s)",      51.16,      op.capacity_tps,        2, Match),
        ("ammOP tx latency (s)",         2577.28,    op.tx_latency_secs,     2, Open(AMMOP_DRAIN)),
        ("ammOP payout latency (s)",     604_815.28, op.payout_latency_secs, 2, Match),
    ];
    let ammboost = run_rows("ammBoost", [138.06, 231.52, 346.49], &run.report, SATURATED);
    let gain = row("throughput gain (x)", 2.69, gain, 2, Match);
    rows(ammop)
        .into_iter()
        .chain(ammboost)
        .chain([gain])
        .collect()
}

fn table07(_: &mut Runs) -> Vec<Row> {
    let growth_gb = chain_growth_2023_bytes() as f64 / 1e9;
    #[rustfmt::skip]
    let specs = [
        ("1x daily volume (tx/day)", 50_000.0, daily_volume_1x() as f64, 0, Model(ONE_X)),
        ("2023 chain growth (GB)",   20.2,     growth_gb,                2, Match),
    ];
    // the generator reproduces the mix
    let mut gen = TrafficGenerator::new(GeneratorConfig {
        daily_volume: 1_000_000,
        seed: 99,
        ..GeneratorConfig::default()
    });
    let total = 100_000u64;
    let mut counts: HashMap<AmmTxKind, u64> = HashMap::new();
    for _ in 0..total {
        *counts.entry(gen.next_tx(0).tx.kind()).or_default() += 1;
    }
    let mix = TABLE_VII.iter().map(|r| {
        let share = 100.0 * counts.get(&r.kind).copied().unwrap_or(0) as f64 / total as f64;
        row(
            format!("generator mix: {:?} (%)", r.kind),
            r.percent,
            share,
            2,
            Match,
        )
    });
    rows(specs).into_iter().chain(mix).collect()
}

fn table08(runs: &mut Runs) -> Vec<Row> {
    [
        (500_000, [68.97, 4357.00, 4472.63]),
        (1_000_000, [138.61, 1603.01, 1719.10]),
        (1_500_000, [207.52, 687.98, 804.05]),
        (2_000_000, [276.43, 230.48, 345.44]),
    ]
    .into_iter()
    .flat_map(|(meta_block_bytes, paper)| {
        let run = runs.system(SystemConfig {
            daily_volume: 50_000_000,
            meta_block_bytes,
            ..SystemConfig::default()
        });
        let at = format!("{:.1} MB blocks", meta_block_bytes as f64 / 1e6);
        run_rows(&at, paper, &run.report, SATURATED)
    })
    .collect()
}

fn table09(runs: &mut Runs) -> Vec<Row> {
    [
        (7, [138.06, 231.52, 346.49]),
        (11, [92.18, 921.64, 1087.95]),
        (16, [61.75, 1950.92, 2193.85]),
        (21, [46.31, 2975.90, 3295.11]),
    ]
    .into_iter()
    .flat_map(|(bt, paper)| {
        let run = runs.system(SystemConfig {
            round_duration: SimDuration::from_secs(bt),
            ..SystemConfig::default()
        });
        run_rows(&format!("bt {bt} s"), paper, &run.report, SATURATED)
    })
    .collect()
}

fn table10(runs: &mut Runs) -> Vec<Row> {
    let short = [Open(SHORT_EPOCHS), Open(DRAIN), Open(DRAIN)];
    [
        (5, [114.27, 517.94, 545.12], short),
        (10, [128.53, 333.54, 337.86], short),
        (20, [135.90, 255.57, 334.81], SATURATED),
        (30, [138.06, 231.52, 346.49], SATURATED),
        (60, [140.66, 208.96, 434.94], SATURATED),
        (96, [141.53, 199.55, 546.04], SATURATED),
    ]
    .into_iter()
    .flat_map(|(rounds_per_epoch, paper, status)| {
        // the paper holds the run at 11 epochs whatever their length
        let run = runs.system(SystemConfig {
            rounds_per_epoch,
            ..SystemConfig::default()
        });
        run_rows(&format!("ω {rounds_per_epoch}"), paper, &run.report, status)
    })
    .collect()
}

fn table11(runs: &mut Runs) -> Vec<Row> {
    let paper = [
        [145.16, 162.26, 277.99],
        [143.76, 175.35, 291.05],
        [140.91, 177.39, 293.03],
        [143.76, 202.48, 317.23],
        [140.23, 215.06, 329.81],
        [140.14, 210.35, 324.43],
    ];
    TrafficMix::table_xi_variants()
        .into_iter()
        .zip(paper)
        .flat_map(|(mix, paper)| {
            let run = runs.system(SystemConfig {
                mix,
                ..SystemConfig::default()
            });
            let at = format!("mix {}/{}/{}/{}", mix.swap, mix.mint, mix.burn, mix.collect);
            let [tput, sc, payout] = run_rows(&at, paper, &run.report, SATURATED);
            let summary = run.report.max_summary_bytes as f64;
            let label = format!("{at}: max sc growth (B)");
            let growth = row(label, 31_831.0, summary, 0, Open(SUMMARY_BY_MIX));
            [tput, sc, payout, growth]
        })
        .collect()
}

fn table12(_: &mut Runs) -> Vec<Row> {
    let model = AgreementModel::default();
    [
        (100, 0.99, Match),
        (250, 2.95, Match),
        (500, 6.51, Model(AGREEMENT_FIT)),
        (750, 14.32, Model(AGREEMENT_FIT)),
        (1000, 22.24, Model(AGREEMENT_FIT)),
    ]
    .into_iter()
    .map(|(n, paper, status)| {
        let measured = model.agreement_time(n, 1_000_000).as_secs_f64();
        row(format!("committee {n} (s)"), paper, measured, 2, status)
    })
    .collect()
}

fn fig05(runs: &mut Runs) -> Vec<Row> {
    let run = runs.system(system_500k());
    let base = runs.uniswap(BaselineConfig::default());
    let amm = &run.report;
    let reduction = |ours: u64, theirs: u64| 100.0 * (1.0 - ours as f64 / theirs as f64);
    let gas = reduction(amm.mainchain_gas, base.total_gas);
    let sepolia = reduction(amm.mainchain_growth_bytes, base.growth_bytes);
    let mainnet = reduction(amm.mainchain_growth_bytes, base.mainnet_growth_bytes);
    #[rustfmt::skip]
    let specs = [
        ("gas reduction (%)",               96.05, gas,     2, Match),
        ("growth reduction vs Sepolia (%)", 93.42, sepolia, 2, Open(SEPOLIA_GROWTH)),
        ("growth reduction vs mainnet (%)", 97.60, mainnet, 2, Match),
    ];
    rows(specs)
}

fn ablation(runs: &mut Runs) -> Vec<Row> {
    let on = runs.system(system_500k());
    let off = runs.system(SystemConfig {
        disable_pruning: true,
        ..system_500k()
    });
    let kept = 100.0 * on.report.sidechain_bytes as f64 / off.report.sidechain_bytes as f64;
    // pruning must reclaim the bulk of sidechain state
    vec![row(
        "pruned / unpruned sidechain size (%)",
        20.0,
        kept,
        2,
        Bound,
    )]
}

/// The experiments `args` select.
fn parse(args: &[String]) -> Result<Vec<&'static Experiment>, String> {
    let mut smoke = false;
    let mut only = None;
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--only" => {
                let id = args.next().ok_or("--only needs an experiment id")?;
                let experiment = EXPERIMENTS.iter().find(|e| e.id == id);
                only = Some(experiment.ok_or_else(|| format!("unknown experiment: {id}"))?);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    match only {
        Some(_) if smoke => Err("--smoke and --only exclude each other".into()),
        Some(experiment) => Ok(vec![experiment]),
        None => Ok(EXPERIMENTS.iter().filter(|e| !(smoke && e.sweep)).collect()),
    }
}

/// Runs the experiments `args` select and prints their ledger; returns
/// the exit code.
fn repro(args: &[String], exec: Exec) -> i32 {
    let experiments = match parse(args) {
        Ok(experiments) => experiments,
        Err(msg) => {
            let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
            eprintln!("{msg}\n{USAGE}\nids: {}", ids.join(", "));
            return 2;
        }
    };
    let mut runs = Runs::new(exec);
    let (mut rows, mut checked, mut failed) = (0, 0, 0);
    for experiment in experiments {
        header(experiment.title);
        for r in (experiment.rows)(&mut runs) {
            println!("{r}");
            rows += 1;
            checked += usize::from(matches!(r.status, Match | Bound));
            failed += usize::from(!r.holds());
        }
    }
    println!();
    println!(
        "ledger: {rows} rows, {checked} checked (tolerance ±{} %), {failed} failed; {} configurations run",
        100.0 * TOLERANCE,
        runs.count
    );
    i32::from(failed > 0)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(repro(&args, REAL));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn match_rows_hold_up_to_the_tolerance_and_no_further() {
        // 100 keeps `TOLERANCE * paper` and both edges exact in binary
        let paper = 100.0;
        let edge = TOLERANCE * paper;
        let at = |measured| row("r", paper, measured, 2, Match).holds();
        assert!(at(paper) && at(paper + edge) && at(paper - edge));
        assert!(!at((paper + edge).next_up()));
        assert!(!at((paper - edge).next_down()));
    }

    #[test]
    fn bound_rows_hold_strictly_below() {
        assert!(row("r", 20.0, 19.99, 2, Bound).holds());
        assert!(!row("r", 20.0, 20.0, 2, Bound).holds());
    }

    #[test]
    fn model_and_open_rows_never_fail() {
        for status in [Model("why"), Open("why")] {
            for measured in [0.0, 1e12, -5.0, f64::NAN] {
                assert!(row("r", 100.0, measured, 2, status).holds());
            }
        }
    }

    #[test]
    fn bad_flags_exit_2() {
        for bad in [
            &["--bogus"][..],
            &["--only", "table13"],
            &["--only"],
            &["--smoke", "--only", "table05"],
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?}");
            assert_eq!(repro(&args(bad), STUB), 2, "{bad:?}");
        }
        // runs nothing but the agreement model
        assert_eq!(repro(&args(&["--only", "table12"]), STUB), 0);
    }

    #[test]
    fn selection() {
        let ids = |list: &[&str]| -> Vec<&str> {
            parse(&args(list)).unwrap().iter().map(|e| e.id).collect()
        };
        assert_eq!(ids(&["--only", "table05"]), ["table05"]);
        assert_eq!(ids(&[]).len(), EXPERIMENTS.len());
        let sweeps = ["table08", "table09", "table10", "table11"];
        let smoke = ids(&["--smoke"]);
        assert_eq!(smoke.len(), EXPERIMENTS.len() - sweeps.len());
        assert!(!smoke.iter().any(|id| sweeps.contains(id)));
    }

    /// Stand-ins that return at once, so the cache test runs the whole
    /// ledger without running the paper's configurations.
    const STUB: Exec = Exec {
        system: tiny_system,
        uniswap: |cfg| {
            let duration = SimDuration::from_secs(70);
            BaselineRunner::new(BaselineConfig { duration, ..cfg }).run()
        },
        ammop: |_| AmmOpRun {
            capacity_tps: 1.0,
            tx_latency_secs: 1.0,
            payout_latency_secs: 1.0,
        },
    };

    fn tiny_system(_: SystemConfig) -> SystemRun {
        static TINY: OnceLock<SystemRun> = OnceLock::new();
        TINY.get_or_init(|| run_system(SystemConfig::small_test()))
            .clone()
    }

    fn configurations_run(list: &[&str]) -> usize {
        let mut runs = Runs::new(STUB);
        for experiment in parse(&args(list)).unwrap() {
            (experiment.rows)(&mut runs);
        }
        runs.count
    }

    #[test]
    fn each_configuration_runs_once() {
        // systems: 25 M/day default, 50 K, 500 K, 5 M, 500 K × 3 epochs,
        // 500 K unpruned; Uniswap at 500 K; ammOP at 25 M
        assert_eq!(configurations_run(&["--smoke"]), 8);
        // + VIII 4 block sizes, IX 3 round lengths, X 5 epoch lengths,
        // XI 6 mixes (bt = 7 and ω = 30 are the default)
        assert_eq!(configurations_run(&[]), 8 + 4 + 3 + 5 + 6);
    }
}
