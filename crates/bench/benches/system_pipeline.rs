//! Criterion benchmarks for the system pipeline: sidechain transaction
//! processing rate, summary building, sync verification on TokenBank,
//! PBFT agreement, a small end-to-end epoch, and the per-user substrate
//! under a fat run (mainchain deposit chain, election, traffic
//! generation), and the batched short-hash paths (transaction root,
//! ticket draw, page sealing).

use ammboost_amm::pool::{Pool, TickSearch};
use ammboost_amm::tx::{AmmTx, SwapIntent, SwapTx};
use ammboost_amm::types::PoolId;
use ammboost_consensus::election::{draw_ticket, draw_tickets, elect_committee, MinerRecord};
use ammboost_consensus::pbft::{run_consensus, Behavior};
use ammboost_core::config::SystemConfig;
use ammboost_core::processor::EpochProcessor;
use ammboost_core::system::System;
use ammboost_crypto::dkg::{run_ceremony, DkgConfig};
use ammboost_crypto::vrf::VrfSecretKey;
use ammboost_crypto::{Address, H256};
use ammboost_mainchain::chain::{ChainConfig, Mainchain, TxSpec};
use ammboost_mainchain::contracts::{Erc20, TokenBank};
use ammboost_mainchain::gas::{GasMeter, TX_BASE};
use ammboost_sidechain::block::{ExecutedTx, MetaBlock, TxEffect};
use ammboost_sim::time::SimTime;
use ammboost_state::pages::{seal_pages, DEFAULT_PAGE_SIZE};
use ammboost_state::SectionKind;
use ammboost_workload::{GeneratorConfig, LiquidityStyle, TrafficGenerator};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

fn bench_processor_throughput(c: &mut Criterion) {
    let mut generator = TrafficGenerator::new(GeneratorConfig {
        daily_volume: 25_000_000,
        ..GeneratorConfig::default()
    });
    let batch: Vec<_> = (0..1000).map(|_| generator.next_tx(0)).collect();
    let mut base = EpochProcessor::new(PoolId(0));
    base.seed_liquidity(
        Address::from_index(999),
        -120_000,
        120_000,
        10u128.pow(15),
        10u128.pow(15),
    );
    let snapshot: std::collections::HashMap<_, _> = generator
        .users()
        .into_iter()
        .map(|u| (u, (10u128.pow(13), 10u128.pow(13))))
        .collect();
    c.bench_function("processor/execute_1000_txs", |b| {
        b.iter_batched(
            || {
                let mut p = base.clone();
                p.begin_epoch(snapshot.clone());
                p
            },
            |mut p| {
                for (i, gtx) in batch.iter().enumerate() {
                    black_box(p.execute(&gtx.tx, gtx.wire_size, i as u64));
                }
                p
            },
            BatchSize::LargeInput,
        )
    });
}

/// The tick-dense workload: fragmented liquidity tiles hundreds of
/// initialized ticks, so swap execution is dominated by tick crossings —
/// the scenario the bitmap engine exists for.
fn bench_processor_fragmented_liquidity(c: &mut Criterion) {
    let mut generator = TrafficGenerator::new(GeneratorConfig {
        daily_volume: 25_000_000,
        users: 400,
        max_positions_per_user: 4,
        liquidity_style: LiquidityStyle::Fragmented,
        mix: ammboost_workload::TrafficMix::from_tuple((70.0, 30.0, 0.0, 0.0)),
        ..GeneratorConfig::default()
    });
    // warm-up batch populates the fragmented tick ladder via mints
    let warmup: Vec<_> = (0..2000).map(|_| generator.next_tx(0)).collect();
    let batch: Vec<_> = (0..1000).map(|_| generator.next_tx(1)).collect();
    let mut base = EpochProcessor::new(PoolId(0));
    base.seed_liquidity(
        Address::from_index(999),
        -120_000,
        120_000,
        10u128.pow(13),
        10u128.pow(13),
    );
    let snapshot: std::collections::HashMap<_, _> = generator
        .users()
        .into_iter()
        .map(|u| (u, (10u128.pow(13), 10u128.pow(13))))
        .collect();
    base.begin_epoch(snapshot);
    for (i, gtx) in warmup.iter().enumerate() {
        base.execute(&gtx.tx, gtx.wire_size, i as u64);
    }
    c.bench_function("processor/execute_1000_txs_fragmented_ticks", |b| {
        b.iter_batched(
            || base.clone(),
            |mut p| {
                for (i, gtx) in batch.iter().enumerate() {
                    black_box(p.execute(&gtx.tx, gtx.wire_size, i as u64));
                }
                p
            },
            BatchSize::LargeInput,
        )
    });
}

fn bench_pbft(c: &mut Criterion) {
    c.bench_function("pbft/agreement_n14_honest", |b| {
        let behaviors = vec![Behavior::Honest; 14];
        b.iter(|| black_box(run_consensus(&behaviors, H256::hash(b"block"), 4)))
    });
    c.bench_function("pbft/agreement_n14_bad_leader", |b| {
        let mut behaviors = vec![Behavior::Honest; 14];
        behaviors[0] = Behavior::ProposesInvalid;
        b.iter(|| black_box(run_consensus(&behaviors, H256::hash(b"block"), 4)))
    });
}

fn bench_small_system(c: &mut Criterion) {
    let mut group = c.benchmark_group("system");
    group.sample_size(10);
    group.bench_function("small_test_run_3_epochs", |b| {
        b.iter(|| black_box(System::new(SystemConfig::small_test()).run()))
    });
    group.finish();
}

/// The one-time deposit flow of `System::submit_deposits`, per user:
/// approve + approve + deposit on the contracts, three dependency-chained
/// `submit`s, then the three blocks that confirm them.
fn bench_deposit_chain(c: &mut Criterion) {
    let amount = 10u128.pow(12);
    let users: Vec<Address> = (0..10_000).map(TrafficGenerator::user_address).collect();
    let dkg = run_ceremony(DkgConfig::for_faults(1), 7);
    let bank = TokenBank::deploy(dkg.group_public_key);
    let mut token = Erc20::new("TKN");
    for user in &users {
        token.mint(*user, amount);
    }
    let chain = Mainchain::new(ChainConfig {
        gas_limit: 1 << 40,
        ..ChainConfig::default()
    });
    let spec = |label: &'static str, gas, size_bytes, depends_on| TxSpec {
        label: label.into(),
        gas,
        size_bytes,
        depends_on,
    };
    let mut group = c.benchmark_group("mainchain");
    group.sample_size(10);
    group.bench_function("deposit_chain_10k_users", |b| {
        b.iter_batched(
            || (chain.clone(), bank.clone(), token.clone(), token.clone()),
            |(mut chain, mut bank, mut token0, mut token1)| {
                let at = SimTime::ZERO;
                for &user in &users {
                    let mut dep = None;
                    for token in [&mut token0, &mut token1] {
                        let mut meter = GasMeter::new();
                        token.approve(user, bank.address, amount, &mut meter);
                        let gas = meter.total() + TX_BASE;
                        dep = Some(chain.submit(at, spec("approve", gas, 68, dep)));
                    }
                    let (t0, t1, mut meter) = (&mut token0, &mut token1, GasMeter::new());
                    bank.deposit(user, amount, amount, 1, t0, t1, &mut meter)
                        .expect("funded and approved");
                    chain.submit(at, spec("deposit", meter.total(), 132, dep));
                }
                chain.advance_to(SimTime::from_secs(36));
                assert_eq!(chain.mempool_len(), 0);
                (chain, bank, token0, token1)
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

/// One epoch's election at the paper's population: 2 000 registered
/// miners, 2 000 tickets, 500 seats.
fn bench_election(c: &mut Criterion) {
    let cfg = SystemConfig::default();
    let seed = H256::hash(b"epoch-seed");
    let (miners, sks): (Vec<_>, Vec<_>) = (0..cfg.miner_population as u64)
        .map(|id| {
            let sk = VrfSecretKey::from_entropy(H256::hash(&id.to_be_bytes()).0);
            let (vrf_pk, stake) = (sk.public_key(), 100 + (id % 17) * 10);
            (MinerRecord { id, vrf_pk, stake }, sk)
        })
        .unzip();
    let drawn = miners.iter().zip(&sks);
    let tickets: Vec<_> = drawn
        .map(|(m, sk)| draw_ticket(sk, m.id, &seed, 1))
        .collect();
    let mut group = c.benchmark_group("election");
    group.sample_size(10);
    group.bench_function("draw_2000_tickets", |b| {
        b.iter(|| black_box(draw_tickets(&sks, &miners, &seed, 1)))
    });
    group.bench_function("elect_2000_of_2000", |b| {
        b.iter(|| {
            let seats = cfg.committee_size;
            black_box(elect_committee(&miners, &tickets, &seed, 1, seats)).expect("valid tickets")
        })
    });
    group.finish();
}

/// The transaction root of a full `paper_default` meta-block (the miner
/// and the verifier each compute it once per round).
fn bench_tx_root(c: &mut Criterion) {
    let txs: Vec<ExecutedTx> = (0..1_000u64)
        .map(|i| ExecutedTx {
            tx: AmmTx::Swap(SwapTx {
                user: Address::from_index(i % 100),
                pool: PoolId(0),
                zero_for_one: i % 2 == 0,
                intent: SwapIntent::ExactInput {
                    amount_in: 1_000 + u128::from(i),
                    min_amount_out: 0,
                },
                sqrt_price_limit: None,
                deadline_round: 1_000_000 + i,
            }),
            wire_size: 1_008,
            effect: TxEffect::Swap {
                amount_in: 1_000 + u128::from(i),
                amount_out: 990,
                zero_for_one: i % 2 == 0,
            },
        })
        .collect();
    c.bench_function("sidechain/tx_root_1000_swaps", |b| {
        b.iter(|| black_box(MetaBlock::compute_tx_root(black_box(&txs))))
    });
}

/// Sealing a 4 MiB section's worth of dirty 1 KiB pages (the hashing
/// half of a delta checkpoint).
fn bench_seal_pages(c: &mut Criterion) {
    let raw: Vec<(u32, Vec<u8>)> = (0..4_096u32)
        .map(|i| (i, vec![i as u8; DEFAULT_PAGE_SIZE]))
        .collect();
    let mut group = c.benchmark_group("state");
    group.sample_size(10);
    group.bench_function("seal_pages_4096x1KiB", |b| {
        b.iter_batched(
            || raw.clone(),
            |raw| black_box(seal_pages(SectionKind::Pool(0), raw)),
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

/// `Pool::from_state` of a fragmented pool (512 initialized ticks) with
/// the persisted tick-price table and with the table stripped, which
/// recomputes every boundary price — the restore-side gain the table's
/// place in the wire format rests on.
fn bench_restore_fragmented(c: &mut Criterion) {
    let with_table = ammboost_bench::fragmented_ladder_pool(256, TickSearch::Bitmap).export_state();
    assert!(with_table.ticks.len() >= 256 && !with_table.tick_prices.is_empty());
    let mut recompute = with_table.clone();
    recompute.tick_prices.clear();
    let mut group = c.benchmark_group("state");
    for (name, state) in [
        ("restore_fragmented_with_table", with_table),
        ("restore_fragmented_recompute", recompute),
    ] {
        group.bench_function(name, |b| {
            b.iter_batched(
                || state.clone(),
                |state| black_box(Pool::from_state(state).expect("exported state restores")),
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

/// One round of `paper_default` traffic (2 026 transactions).
fn bench_generator(c: &mut Criterion) {
    let mut generator = System::new(SystemConfig::default()).generator().clone();
    let mut round = 0;
    c.bench_function("generator/next_round_paper_default", |b| {
        b.iter(|| {
            round += 1;
            black_box(generator.next_round(round))
        })
    });
}

criterion_group!(
    benches,
    bench_processor_throughput,
    bench_processor_fragmented_liquidity,
    bench_pbft,
    bench_small_system,
    bench_deposit_chain,
    bench_election,
    bench_tx_root,
    bench_seal_pages,
    bench_restore_fragmented,
    bench_generator
);
criterion_main!(benches);
