//! Criterion benchmarks for the system pipeline: sidechain transaction
//! processing rate, summary building, sync verification on TokenBank,
//! PBFT agreement, a small end-to-end epoch, the arrival backlog's
//! codec, and the per-user substrate
//! under a fat run (mainchain deposit chain, election, traffic
//! generation), the batched short-hash paths (transaction root,
//! ticket draw, page sealing), and the snapshot paths of a fat node
//! (decode, restore, a 1 %-dirty checkpoint, delta apply).

use ammboost_amm::pool::Pool;
use ammboost_amm::tx::{AmmTx, SwapIntent, SwapTx};
use ammboost_amm::types::PoolId;
use ammboost_consensus::election::{draw_ticket, draw_tickets, elect_committee, MinerRecord};
use ammboost_consensus::pbft::{run_consensus, Behavior};
use ammboost_core::checkpoint::{checkpoint_node, restore_node};
use ammboost_core::config::SystemConfig;
use ammboost_core::processor::{EpochProcessor, ExecMode};
use ammboost_core::system::System;
use ammboost_core::Backlog;
use ammboost_crypto::dkg::{run_ceremony, DkgConfig};
use ammboost_crypto::vrf::VrfSecretKey;
use ammboost_crypto::{Address, H256};
use ammboost_mainchain::chain::{ChainConfig, Mainchain, TxSpec};
use ammboost_mainchain::contracts::{Erc20, TokenBank};
use ammboost_mainchain::gas::{GasMeter, TX_BASE};
use ammboost_sidechain::block::{ExecutedTx, MetaBlock, TxEffect};
use ammboost_sidechain::ledger::Ledger;
use ammboost_sim::time::SimTime;
use ammboost_state::pages::{seal_pages, PAGE_SIZE};
use ammboost_state::{Checkpointer, SectionKind, Snapshot};
use ammboost_workload::{
    GeneratedTx, GeneratorConfig, LiquidityStyle, TrafficGenerator, TrafficMix,
};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

/// `batch` as the node hands a round to `execute_batch`.
fn round_of(batch: &[GeneratedTx]) -> Vec<(&AmmTx, usize)> {
    batch.iter().map(|gtx| (&gtx.tx, gtx.wire_size)).collect()
}

/// One 1 000-transaction `paper_default` round through `execute_batch`.
fn bench_processor_throughput(c: &mut Criterion) {
    let mut generator = TrafficGenerator::new(GeneratorConfig {
        daily_volume: 25_000_000,
        ..GeneratorConfig::default()
    });
    let batch: Vec<_> = (0..1000).map(|_| generator.next_tx(0)).collect();
    let mut base = EpochProcessor::new([PoolId(0)]);
    base.seed_liquidity(
        PoolId(0),
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
    let round = round_of(&batch);
    c.bench_function("processor/execute_1000_txs", |b| {
        b.iter_batched(
            || {
                let mut p = base.clone();
                p.snapshot_bank(snapshot.clone());
                p
            },
            |mut p| {
                black_box(p.execute_batch(&round, 0, ExecMode));
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
        mix: TrafficMix::from_tuple((70.0, 30.0, 0.0, 0.0)),
        ..GeneratorConfig::default()
    });
    // warm-up batch populates the fragmented tick ladder via mints
    let warmup: Vec<_> = (0..2000).map(|_| generator.next_tx(0)).collect();
    let batch: Vec<_> = (0..1000).map(|_| generator.next_tx(1)).collect();
    let mut base = EpochProcessor::new([PoolId(0)]);
    base.seed_liquidity(
        PoolId(0),
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
    base.snapshot_bank(snapshot);
    base.execute_batch(&round_of(&warmup), 0, ExecMode);
    let round = round_of(&batch);
    c.bench_function("processor/execute_1000_txs_fragmented_ticks", |b| {
        b.iter_batched(
            || base.clone(),
            |mut p| {
                black_box(p.execute_batch(&round, 1, ExecMode));
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

/// The world's arrival backlog: pack one 2 026-transaction round of
/// `paper_default` traffic and one of `fat_busy`'s mint-heavy mix over
/// 50 000 users, then pop and decode both back (per transaction:
/// ns / 4 052).
fn bench_backlog(c: &mut Criterion) {
    let second_round = |cfg: GeneratorConfig| {
        let mut generator = TrafficGenerator::new(cfg);
        // the first round's mints give burns and collects positions
        generator.next_round(0);
        let batch = generator.next_round(1);
        (generator, batch)
    };
    let paper = second_round(GeneratorConfig::default());
    let fat = second_round(GeneratorConfig {
        users: 50_000,
        pools: vec![PoolId(0), PoolId(1)],
        mix: TrafficMix::from_tuple((60.0, 20.0, 10.0, 10.0)),
        ..GeneratorConfig::default()
    });
    assert_eq!(paper.1.len() + fat.1.len(), 4_052);
    c.bench_function("system/backlog_pack_unpack_round", |b| {
        b.iter(|| {
            let mut backlog = Backlog::new();
            for (generator, batch) in [&paper, &fat] {
                for (i, gtx) in batch.iter().enumerate() {
                    let arrival = SimTime::from_millis(60_000 + i as u64 * 3);
                    backlog.push(arrival, gtx.wire_size, gtx.user, &gtx.tx);
                }
                while let Some(entry) = backlog.pop(|i| generator.user(i)) {
                    black_box(entry);
                }
            }
        })
    });
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
/// and the verifier each compute it once per round), and the two ways a
/// block of it reaches a ledger: sealed and appended as the node mines
/// it (one root pass), or built and appended through `append_meta`,
/// which verifies it again (two).
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
    let genesis = H256::hash(b"genesis");
    let fresh = || (Ledger::new(genesis), txs.clone());
    c.bench_function("sidechain/seal_and_append_1000_swaps", |b| {
        b.iter_batched(
            fresh,
            |(mut ledger, txs)| {
                let block = MetaBlock::seal(1, 0, genesis, txs);
                ledger.append(block).expect("chains onto genesis");
                ledger
            },
            BatchSize::LargeInput,
        )
    });
    c.bench_function("sidechain/new_and_append_meta_1000_swaps", |b| {
        b.iter_batched(
            fresh,
            |(mut ledger, txs)| {
                let block = MetaBlock::new(1, 0, genesis, txs);
                ledger.append_meta(block).expect("chains onto genesis");
                ledger
            },
            BatchSize::LargeInput,
        )
    });
}

/// Sealing a 4 MiB section's worth of dirty 1 KiB pages (the hashing
/// half of a delta checkpoint).
fn bench_seal_pages(c: &mut Criterion) {
    let bytes: Vec<u8> = (0..4_096 * PAGE_SIZE)
        .map(|i| (i / PAGE_SIZE) as u8)
        .collect();
    let pages: Vec<u32> = (0..4_096).collect();
    let mut group = c.benchmark_group("state");
    group.sample_size(10);
    group.bench_function("seal_pages_4096x1KiB", |b| {
        b.iter(|| black_box(seal_pages(SectionKind::Pool(0), &bytes, &pages)))
    });
    group.finish();
}

/// Positions per pool of the fat node: 15 000 172-byte records.
const FAT_POSITIONS: u64 = 15_000;

/// Depositors of the fat node.
const FAT_USERS: u64 = 50_000;

/// A node of `fat_busy`'s shape: two CL pools of [`FAT_POSITIONS`]
/// positions over 200 overlapping ranges, and [`FAT_USERS`] depositors.
/// Its snapshot has five sections (two pools, ledger, deposits,
/// processor metadata) and is ≈ 10 MB.
fn fat_node() -> (EpochProcessor, Ledger) {
    let mut processor = EpochProcessor::new([PoolId(0), PoolId(1)]);
    for pool in [PoolId(0), PoolId(1)] {
        for i in 0..FAT_POSITIONS {
            let (lower, upper) = fat_range(i);
            let amount = 1_000_000_000;
            processor.seed_liquidity(pool, Address::from_index(i), lower, upper, amount, amount);
        }
    }
    processor.snapshot_bank(
        (0..FAT_USERS).map(|i| (Address::from_index(i), (10u128.pow(12), 10u128.pow(12)))),
    );
    (processor, Ledger::new(H256::hash(b"fat-node")))
}

/// The tick range of fat-node position `i`.
fn fat_range(i: u64) -> (i32, i32) {
    let rung = (i % 200) as i32 - 100;
    (rung * 60, (rung + 4) * 60)
}

/// Tops up every hundredth position of both pools: 1 % of the position
/// records change in place, and the ticks under them.
fn dirty_one_percent(processor: &mut EpochProcessor) {
    for pool in [PoolId(0), PoolId(1)] {
        for i in (0..FAT_POSITIONS).step_by(100) {
            let (lower, upper) = fat_range(i);
            processor.seed_liquidity(pool, Address::from_index(i), lower, upper, 1_000, 1_000);
        }
    }
}

/// The snapshot paths of a fat node: what a joining member pays
/// (`decode_verify_fat`: decode and check the root; `restore_node_fat`:
/// rebuild the node from the decoded snapshot), what a checkpoint pays
/// when 1 % of the positions moved (`commit_1pct_dirty`: stage and commit
/// on a checkpointer primed by the previous epoch), and what applying that
/// epoch's delta costs (`delta_apply`).
fn bench_fat_snapshot(c: &mut Criterion) {
    let (mut processor, ledger) = fat_node();
    let mut primed = Checkpointer::new();
    let base = checkpoint_node(&mut primed, 1, &mut processor, &ledger).snapshot;
    let wire = base.encode();
    assert_eq!(base.sections().len(), 5);
    let mut dirty = processor.clone();
    dirty_one_percent(&mut dirty);
    let delta = checkpoint_node(&mut primed, 2, &mut dirty.clone(), &ledger)
        .delta
        .expect("a confirmed base yields a delta");

    let mut group = c.benchmark_group("state");
    group.sample_size(10);
    group.bench_function("decode_verify_fat", |b| {
        b.iter(|| black_box(Snapshot::decode(black_box(&wire)).expect("root verifies")))
    });
    group.bench_function("restore_node_fat", |b| {
        b.iter(|| black_box(restore_node(black_box(&base)).expect("own snapshot restores")))
    });
    group.bench_function("commit_1pct_dirty", |b| {
        b.iter_batched(
            || {
                let mut cp = Checkpointer::new();
                checkpoint_node(&mut cp, 1, &mut processor.clone(), &ledger);
                (cp, dirty.clone())
            },
            |(mut cp, mut node)| black_box(checkpoint_node(&mut cp, 2, &mut node, &ledger)),
            BatchSize::LargeInput,
        )
    });
    group.bench_function("delta_apply", |b| {
        b.iter(|| black_box(delta.apply(black_box(&base)).expect("delta applies")))
    });
    group.finish();
}

/// `Pool::from_state` of a fragmented pool (512 initialized ticks): the
/// restore derives every boundary price from tick math while it rebuilds
/// the tick index.
fn bench_restore_fragmented(c: &mut Criterion) {
    let state = ammboost_bench::fragmented_ladder_pool(256).export_state();
    assert!(state.ticks.len() >= 256);
    c.bench_function("state/restore_fragmented", |b| {
        b.iter_batched(
            || state.clone(),
            |state| black_box(Pool::from_state(state).expect("exported state restores")),
            BatchSize::LargeInput,
        )
    });
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
    bench_backlog,
    bench_deposit_chain,
    bench_election,
    bench_tx_root,
    bench_seal_pages,
    bench_fat_snapshot,
    bench_restore_fragmented,
    bench_generator
);
criterion_main!(benches);
