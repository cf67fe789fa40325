//! Reproduces **Table II — Mainchain latency and itemized gas cost for
//! ammBoost operations**: the per-component cost of `Sync` (payouts,
//! position/pool storage, TSQC authentication) and the two-token
//! `Deposit`, plus their mainchain confirmation latencies.

use ammboost_amm::types::PoolId;
use ammboost_bench::{header, line, row};
use ammboost_core::config::SystemConfig;
use ammboost_core::system::System;
use ammboost_crypto::dkg::{run_ceremony, DkgConfig};
use ammboost_crypto::Address;
use ammboost_mainchain::chain::{ChainConfig, Mainchain, TxSpec};
use ammboost_mainchain::contracts::{Erc20, TokenBank};
use ammboost_mainchain::gas::{self, GasMeter};
use ammboost_sim::time::SimTime;

fn main() {
    header("Table II — itemized gas + mainchain latency (ammBoost ops)");

    // --- itemized Sync gas from a live run (V_D = 500K, 10x Uniswap) ---
    let mut cfg = SystemConfig::default();
    cfg.daily_volume = 500_000;
    cfg.epochs = 3;
    let mut sys = System::new(cfg);
    let _ = sys.run();
    let receipt = sys.last_sync_receipt().expect("a sync was submitted");

    line("sync payload", format!("{} bytes", receipt.payload_bytes));
    let payout_each = if receipt.payouts_applied > 0 {
        receipt.meter.total_for("payout") / receipt.payouts_applied as u64
    } else {
        0
    };
    row("Sync: payout (each)", "15,771", format!("{payout_each}"));
    row(
        "Sync: storage (per 32-byte word)",
        "22,100",
        format!("{}", gas::SSTORE_NEW_WORD),
    );
    row(
        "Auth: Keccak256 (30 + 6/word)",
        format!("{}", gas::keccak_cost(receipt.payload_bytes)),
        format!("{}", receipt.meter.total_for("auth.keccak256")),
    );
    row(
        "Auth: hash-to-point ecMul",
        "6,000",
        format!("{}", receipt.meter.total_for("auth.hash_to_point.ecmul")),
    );
    row(
        "Auth: pairing verify (k = 2)",
        "113,000",
        format!("{}", receipt.meter.total_for("auth.pairing")),
    );
    line(
        "positions in sync",
        format!(
            "{} (storage {} gas)",
            receipt.positions_applied,
            receipt.meter.total_for("position.storage")
        ),
    );
    line("payouts in sync", format!("{}", receipt.payouts_applied));
    line("sync total", format!("{} gas", receipt.meter.total()));

    // --- deposit gas (2 tokens) ---
    let dkg = run_ceremony(DkgConfig::for_faults(1), 1);
    let mut bank = TokenBank::deploy(dkg.group_public_key);
    bank.create_pool(PoolId(0), &mut GasMeter::new());
    let mut t0 = Erc20::new("TKA");
    let mut t1 = Erc20::new("TKB");
    let user = Address::from_index(1);
    t0.mint(user, 10_000);
    t1.mint(user, 10_000);
    t0.approve(user, bank.address, 5_000, &mut GasMeter::new());
    t1.approve(user, bank.address, 5_000, &mut GasMeter::new());
    let mut dep_meter = GasMeter::new();
    bank.deposit(user, 5_000, 5_000, 1, &mut t0, &mut t1, &mut dep_meter)
        .expect("deposit");
    row(
        "Deposit (2 tokens)",
        "105,392",
        format!("{}", dep_meter.total()),
    );

    // --- mainchain latencies (12 s blocks) ---
    let mut chain = Mainchain::new(ChainConfig::default());
    let sync_tx = chain.submit(
        SimTime::from_secs(1),
        TxSpec {
            label: "sync".into(),
            gas: 1_000_000,
            size_bytes: 5_000,
            depends_on: None,
        },
    );
    let a0 = chain.submit(
        SimTime::from_secs(1),
        TxSpec {
            label: "approve".into(),
            gas: 50_000,
            size_bytes: 68,
            depends_on: None,
        },
    );
    let a1 = chain.submit(
        SimTime::from_secs(1),
        TxSpec {
            label: "approve".into(),
            gas: 50_000,
            size_bytes: 68,
            depends_on: Some(a0),
        },
    );
    let dep = chain.submit(
        SimTime::from_secs(1),
        TxSpec {
            label: "deposit".into(),
            gas: 110_000,
            size_bytes: 132,
            depends_on: Some(a1),
        },
    );
    chain.advance_to(SimTime::from_secs(120));
    let sync_latency = chain
        .confirmed_at(sync_tx)
        .expect("confirmed")
        .since(SimTime::from_secs(1));
    let dep_latency = chain
        .confirmed_at(dep)
        .expect("confirmed")
        .since(SimTime::from_secs(1));
    row(
        "MC latency: Sync (s)",
        "15.28",
        format!("{:.2}", sync_latency.as_secs_f64()),
    );
    row(
        "MC latency: Deposit (s)",
        "54.60",
        format!("{:.2}", dep_latency.as_secs_f64()),
    );
    println!();
    println!(
        "shape check: authentication is a fixed ~119K gas plus Keccak over \
         |sum|; storage dominates and scales with positions/payouts (users), \
         not traffic; deposits take several dependent blocks, syncs one."
    );
}
