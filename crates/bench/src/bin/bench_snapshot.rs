//! Machine-readable performance snapshot: measures the hot-path
//! operations the sidechain's throughput is bounded by and writes
//! `BENCH_pool.json` plus `BENCH_state.json` at the repo root, giving the
//! perf trajectory a committed data point per machine/commit.
//!
//! `BENCH_pool.json` (median ns/op):
//! - single-range swap (no tick crossing),
//! - 64-tick-crossing ladder sweep under the bitmap engine *and* under
//!   the retained seed `BTreeMap` oracle (the speedup ratio between the
//!   two is the tentpole number),
//! - mint + burn + collect position cycle,
//! - 1024-leaf Merkle transaction-root build.
//!
//! `BENCH_state.json` (the `ammboost-state` subsystem): snapshot encode
//! and decode+restore timings, serialized snapshot size, and the
//! sidechain's pruned-vs-unpruned bytes-on-disk for two workload ladders
//! (50K and 500K daily volume — the paper's state-growth-control curve
//! endpoints).
//!
//! New in v2: a `pool_count × skew` ladder timing one epoch of
//! cross-pool traffic under sequential vs worker-pool shard execution
//! (plus the size of the all-shards checkpoint), and a
//! restore-throughput ladder (up to 10⁶ positions) comparing
//! tick-table-fed restores against full `sqrt_ratio_at_tick`
//! recomputation.
//!
//! New in v3: a `route hops × pool_count` ladder timing two-phase
//! routed epochs (hop waves + netting barrier) sequential vs parallel,
//! with netted-vs-naive settlement byte accounting — the ladder asserts
//! the netted form is strictly smaller for every rung.
//!
//! New in v4: a concurrent-read scaling ladder (quotes/sec served from a
//! sealed [`QuoteView`] at 1..hardware_threads reader threads, while the
//! write path executes rounds and publishes fresh views the whole time),
//! and honest parallel-speedup reporting: every `parallel_speedup`
//! column carries the `threads` it ran on and an `advisory` marker,
//! because a speedup measured on one hardware thread is scheduling
//! overhead, not scaling.
//!
//! New in v5: per-engine single-swap medians (constant-product and
//! weighted engines next to the CL baseline) and a heterogeneous
//! `6pools_mixed` rung on the sharded-epoch ladder (2 CL + 2
//! constant-product + 2 weighted shards under the same Zipf curve).
//!
//! New in v6: the 4-way-Keccak Merkle rungs (`merkle_root_1024_leaves_x4`
//! vs the retained `_scalar` oracle — the interleaved-sponge speedup is
//! the tentpole number) and a `checkpoint_pipeline` ladder timing one
//! epoch (execute + checkpoint) at 1/4/8 pools with the checkpoint taken
//! synchronously vs staged-and-committed on the worker pool while the
//! next epoch executes. On a 1-hardware-thread host the pipelined column
//! measures queueing overhead, not overlap, and is advisory.
//!
//! New in v7 (`BENCH_state.json`): a `delta_ladders` table sizing
//! page-granular delta checkpoints against the full section re-encode
//! over a dirty-fraction × position-count grid (positions are poked
//! in place — fixed-stride records, so a poke never shifts bytes — and
//! the delta must shrink ≥10× at ≤1% dirty), and eager columns on the
//! restore ladder: the lazy zero-copy restore (positions stay packed
//! wire records until touched) vs the same restore followed by
//! materializing every position, at 10⁵ and (full mode) 10⁶ positions.
//!
//! Usage: `bench_snapshot [--smoke] [--out PATH] [--state-out PATH]
//! [--check] [--tolerance PCT]`. `--smoke` cuts sample counts for CI;
//! the JSON records which mode produced it, and `hardware_threads` so
//! parallel-epoch numbers are interpretable (on a single-hardware-thread
//! host the parallel column measures pure scheduling overhead).
//!
//! `--check` is the CI bench-regression gate: instead of overwriting the
//! JSON files it re-runs the smoke ladders and compares every numeric
//! metric against the committed `BENCH_pool.json` / `BENCH_state.json`,
//! exiting non-zero when any drifts past the tolerance (default ±25%;
//! override with `--tolerance PCT` or the `AMMBOOST_BENCH_TOLERANCE`
//! environment variable for noisy runners). Timing metrics only fail
//! when *slower*, throughput/scaling metrics only when *lower*, and
//! size/count metrics on any drift; parallel-speedup columns are skipped
//! entirely when either side ran on one hardware thread.

use ammboost_amm::engines::{CpEngine, WeightedEngine};
use ammboost_amm::pool::{Pool, PoolState, SwapKind, TickSearch};
use ammboost_amm::positions::PositionTable;
use ammboost_amm::tx::AmmTx;
use ammboost_amm::types::{PoolId, PositionId};
use ammboost_bench::{fragmented_ladder_pool, ladder_pool, ladder_sweep, wide_pool};
use ammboost_core::checkpoint::{checkpoint_node, restore_node, stage_node};
use ammboost_core::config::{SnapshotPolicy, SystemConfig};
use ammboost_core::shard::{ExecMode, ShardMap};
use ammboost_core::system::System;
use ammboost_core::workers::{JoinHandle, WorkerPool};
use ammboost_crypto::merkle::{leaf_hash, MerkleTree};
use ammboost_crypto::Address;
use ammboost_sidechain::ledger::Ledger;
use ammboost_sim::DetRng;
use ammboost_state::codec::{Decode, Encode};
use ammboost_state::snapshot::{Section, SectionKind, SNAPSHOT_VERSION};
use ammboost_state::{Checkpointer, DeltaSnapshot, Snapshot, DEFAULT_PAGE_SIZE};
use ammboost_workload::{
    EngineMix, GeneratedTx, GeneratorConfig, LiquidityStyle, RouteStyle, TrafficGenerator,
    TrafficMix, TrafficSkew,
};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Times `samples` runs of `routine` on fresh inputs from `setup`
/// (setup cost excluded) and returns the median ns/op.
fn median_ns<I, O>(
    samples: usize,
    mut setup: impl FnMut() -> I,
    mut routine: impl FnMut(I) -> O,
) -> f64 {
    // warm-up: populate caches and let the allocator settle
    for _ in 0..3 {
        black_box(routine(setup()));
    }
    let mut times: Vec<u128> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let input = setup();
        let t = Instant::now();
        black_box(routine(input));
        times.push(t.elapsed().as_nanos());
    }
    times.sort_unstable();
    let mid = times.len() / 2;
    if times.len().is_multiple_of(2) {
        (times[mid - 1] + times[mid]) as f64 / 2.0
    } else {
        times[mid] as f64
    }
}

fn single_range_pool() -> Pool {
    let mut pool = Pool::new_standard();
    pool.mint(
        PositionId::derive(&[b"snap"]),
        Address::from_index(1),
        -6000,
        6000,
        10u128.pow(14),
        10u128.pow(14),
    )
    .expect("seed mint");
    pool
}

/// One workload ladder's state-subsystem measurements.
struct StateLadder {
    name: &'static str,
    accepted: u64,
    snapshot_bytes: u64,
    encode_ns: f64,
    restore_ns: f64,
    state_root: String,
    sidechain_bytes_pruned: u64,
    sidechain_peak_pruned: u64,
    sidechain_bytes_unpruned: u64,
    sidechain_peak_unpruned: u64,
}

/// Runs one ladder twice (snapshot-pruned vs pruning disabled), then
/// times snapshot encode and decode+restore on the final node state.
fn state_ladder(name: &'static str, daily_volume: u64, samples: usize) -> StateLadder {
    let mut cfg = SystemConfig::small_test();
    cfg.daily_volume = daily_volume;
    cfg.snapshot = SnapshotPolicy::every_epoch();
    let mut pruned_sys = System::new(cfg.clone());
    let pruned = pruned_sys.run();

    let mut unpruned_cfg = cfg.clone();
    unpruned_cfg.disable_pruning = true;
    unpruned_cfg.snapshot = SnapshotPolicy::default();
    let unpruned = System::new(unpruned_cfg).run();

    // final on-demand checkpoint covering the drain epoch
    let stats = pruned_sys.checkpoint(pruned.epochs + 1);
    let snapshot = pruned_sys
        .last_snapshot()
        .expect("checkpoint taken")
        .clone();
    let encode_ns = median_ns(samples, || (), |()| snapshot.encode());
    let wire = snapshot.encode();
    let restore_ns = median_ns(
        samples,
        || wire.clone(),
        |bytes| {
            let decoded = Snapshot::decode(&bytes).expect("root verifies");
            restore_node(&decoded).expect("snapshot restores")
        },
    );

    StateLadder {
        name,
        accepted: pruned.accepted,
        snapshot_bytes: stats.snapshot_bytes,
        encode_ns,
        restore_ns,
        state_root: format!("{}", stats.root),
        sidechain_bytes_pruned: pruned.sidechain_bytes,
        sidechain_peak_pruned: pruned.sidechain_peak_bytes,
        sidechain_bytes_unpruned: unpruned.sidechain_bytes,
        sidechain_peak_unpruned: unpruned.sidechain_peak_bytes,
    }
}

/// One `pool_count × skew` rung of the sharded-epoch ladder.
struct PoolCountLadder {
    pools: u32,
    skew: &'static str,
    txs_per_epoch: usize,
    sequential_ns: f64,
    parallel_ns: f64,
    speedup: f64,
    snapshot_bytes: u64,
    max_pool_section_bytes: u64,
}

/// Times one epoch of Zipf/uniform cross-pool traffic executed
/// sequentially vs with scoped-thread shard parallelism, and sizes the
/// all-shards checkpoint the epoch produces.
fn pool_count_ladder(
    pools: u32,
    skew: TrafficSkew,
    skew_name: &'static str,
    engine_mix: EngineMix,
    samples: usize,
    rounds: u64,
) -> PoolCountLadder {
    let users = (4 * pools as u64).max(16);
    let mut gen = TrafficGenerator::new(GeneratorConfig {
        daily_volume: 25_000_000, // ρ ≈ 2026 txs/round at bt = 7 s
        mix: TrafficMix::uniswap_2023(),
        users,
        round_duration: ammboost_sim::time::SimDuration::from_secs(7),
        pools: (0..pools).map(PoolId).collect(),
        skew,
        route_style: RouteStyle::default(),
        deadline_slack_rounds: 1_000_000,
        max_positions_per_user: 1,
        liquidity_style: LiquidityStyle::default(),
        quote_style: Default::default(),
        engine_mix,
        seed: 0xB0057 + pools as u64,
    });
    let traffic: Vec<Vec<GeneratedTx>> = (0..rounds).map(|r| gen.next_round(r)).collect();
    let txs_per_epoch: usize = traffic.iter().map(|r| r.len()).sum();

    // a ready shard map: seeded liquidity + routed deposits, with the
    // engine of each shard dictated by the generator's fleet
    let mut ready = ShardMap::new_with_engines(gen.fleet());
    for p in 0..pools {
        ready.seed_liquidity(
            PoolId(p),
            Address::from_pubkey_bytes(b"bench-genesis-lp"),
            -120_000,
            120_000,
            4_000_000_000_000_000,
            4_000_000_000_000_000,
        );
    }
    let route_gen = &gen;
    let deposits: HashMap<Address, (u128, u128)> = route_gen
        .users()
        .into_iter()
        .map(|u| (u, (2_000_000_000_000u128, 2_000_000_000_000u128)))
        .collect();
    ready.begin_epoch(deposits, |u| route_gen.pool_for(u));

    let run_epoch = |mode: ExecMode| {
        median_ns(
            samples,
            || ready.clone(),
            |mut shards| {
                for (round, txs) in traffic.iter().enumerate() {
                    let batch: Vec<(&AmmTx, usize)> =
                        txs.iter().map(|g| (&g.tx, g.wire_size)).collect();
                    black_box(shards.execute_batch(&batch, round as u64, mode));
                }
                shards
            },
        )
    };
    let sequential_ns = run_epoch(ExecMode::Sequential);
    let parallel_ns = run_epoch(ExecMode::Parallel);

    // checkpoint the executed epoch: one snapshot covering all shards
    let mut executed = ready.clone();
    for (round, txs) in traffic.iter().enumerate() {
        let batch: Vec<(&AmmTx, usize)> = txs.iter().map(|g| (&g.tx, g.wire_size)).collect();
        executed.execute_batch(&batch, round as u64, ExecMode::Sequential);
    }
    let ledger = Ledger::new(ammboost_crypto::H256::hash(b"bench-ladder"));
    let out = checkpoint_node(&mut Checkpointer::new(), 1, &mut executed, &ledger);
    let (snapshot, stats) = (out.snapshot, out.stats);
    let max_pool_section_bytes = snapshot
        .pool_sections()
        .map(|(_, s)| s.bytes.len() as u64)
        .max()
        .unwrap_or(0);

    PoolCountLadder {
        pools,
        skew: skew_name,
        txs_per_epoch,
        sequential_ns,
        parallel_ns,
        speedup: sequential_ns / parallel_ns,
        snapshot_bytes: stats.snapshot_bytes,
        max_pool_section_bytes,
    }
}

/// One rung of the checkpoint-pipeline ladder.
struct CheckpointPipelineLadder {
    pools: u32,
    txs_per_epoch: usize,
    /// One epoch on the critical path with a blocking checkpoint:
    /// execute rounds, then `checkpoint_node` (stage + Merkle commit).
    epoch_sync_ns: f64,
    /// The same epoch pipelined: join the previous epoch's in-flight
    /// commit, execute rounds, stage, hand the commit to the worker
    /// pool — the Merkle hashing overlaps the next epoch's execution.
    epoch_pipelined_ns: f64,
    /// The synchronous stage half alone (what pipelining cannot hide).
    stage_ns: f64,
    /// The deferred commit half alone (what pipelining takes off the
    /// critical path).
    commit_ns: f64,
    speedup: f64,
}

/// Times one epoch of execution + checkpoint at `pools` shards, with the
/// checkpoint taken synchronously vs staged-and-committed off-thread.
/// The pipelined routine models `System`'s steady state: at most one
/// commit in flight, joined before the next epoch's checkpoint stages.
fn checkpoint_pipeline_ladder(pools: u32, samples: usize, rounds: u64) -> CheckpointPipelineLadder {
    let users = (4 * pools as u64).max(16);
    let mut gen = TrafficGenerator::new(GeneratorConfig {
        daily_volume: 25_000_000,
        mix: TrafficMix::uniswap_2023(),
        users,
        round_duration: ammboost_sim::time::SimDuration::from_secs(7),
        pools: (0..pools).map(PoolId).collect(),
        skew: TrafficSkew::Uniform,
        route_style: RouteStyle::default(),
        deadline_slack_rounds: 1_000_000,
        max_positions_per_user: 1,
        liquidity_style: LiquidityStyle::default(),
        quote_style: Default::default(),
        engine_mix: Default::default(),
        seed: 0xCC_0FF + pools as u64,
    });
    let traffic: Vec<Vec<GeneratedTx>> = (0..rounds).map(|r| gen.next_round(r)).collect();
    let txs_per_epoch: usize = traffic.iter().map(|r| r.len()).sum();
    let mut ready = ShardMap::new((0..pools).map(PoolId));
    for p in 0..pools {
        ready.seed_liquidity(
            PoolId(p),
            Address::from_pubkey_bytes(b"bench-pipeline-lp"),
            -120_000,
            120_000,
            4_000_000_000_000_000,
            4_000_000_000_000_000,
        );
    }
    let deposits: HashMap<Address, (u128, u128)> = gen
        .users()
        .into_iter()
        .map(|u| (u, (2_000_000_000_000u128, 2_000_000_000_000u128)))
        .collect();
    let route_gen = &gen;
    ready.begin_epoch(deposits, |u| route_gen.pool_for(u));
    let ledger = Ledger::new(ammboost_crypto::H256::hash(b"bench-pipeline"));

    let execute = |shards: &mut ShardMap| {
        for (round, txs) in traffic.iter().enumerate() {
            let batch: Vec<(&AmmTx, usize)> = txs.iter().map(|g| (&g.tx, g.wire_size)).collect();
            black_box(shards.execute_batch(&batch, round as u64, ExecMode::Sequential));
        }
    };

    // every sample starts from the same pre-epoch state and uses a fresh
    // checkpointer, so both modes re-encode every pool every time
    let mut epoch = 0u64;
    let epoch_sync_ns = median_ns(
        samples,
        || ready.clone(),
        |mut shards| {
            epoch += 1;
            execute(&mut shards);
            black_box(checkpoint_node(
                &mut Checkpointer::new(),
                epoch,
                &mut shards,
                &ledger,
            ))
        },
    );

    let mut inflight: Option<JoinHandle<ammboost_state::CheckpointOutput>> = None;
    let epoch_pipelined_ns = median_ns(
        samples,
        || ready.clone(),
        |mut shards| {
            epoch += 1;
            if let Some(handle) = inflight.take() {
                black_box(handle.join());
            }
            execute(&mut shards);
            let staged = stage_node(&mut Checkpointer::new(), epoch, &mut shards, &ledger);
            inflight = Some(WorkerPool::global().submit(move || staged.commit()));
        },
    );
    if let Some(handle) = inflight.take() {
        black_box(handle.join());
    }

    // the halves in isolation: what stays on the critical path vs what
    // moves off it
    let mut executed = ready.clone();
    execute(&mut executed);
    let stage_ns = median_ns(
        samples,
        || executed.clone(),
        |mut shards| {
            epoch += 1;
            stage_node(&mut Checkpointer::new(), epoch, &mut shards, &ledger)
        },
    );
    let commit_ns = median_ns(
        samples,
        || {
            epoch += 1;
            stage_node(
                &mut Checkpointer::new(),
                epoch,
                &mut executed.clone(),
                &ledger,
            )
        },
        |staged| black_box(staged.commit()),
    );

    CheckpointPipelineLadder {
        pools,
        txs_per_epoch,
        epoch_sync_ns,
        epoch_pipelined_ns,
        stage_ns,
        commit_ns,
        speedup: epoch_sync_ns / epoch_pipelined_ns,
    }
}

/// One `route hops × pool_count` rung of the routed-epoch ladder.
struct RouteLadder {
    pools: u32,
    hops: usize,
    routes: usize,
    sequential_ns: f64,
    parallel_ns: f64,
    speedup: f64,
    netted_settlement_bytes: u64,
    naive_settlement_bytes: u64,
    netting_ratio: f64,
}

/// Times one epoch of pure routed traffic (`routes` routes of `hops`
/// hops over `pools` pools) under sequential vs worker-pool shard
/// execution, and sizes the settlement both ways: netted (what the
/// netting barrier ships) vs naive per-hop entries. Asserts the netted
/// form is strictly smaller — the routed-traffic acceptance criterion.
fn route_ladder(pools: u32, hops: usize, routes: usize, samples: usize) -> RouteLadder {
    use ammboost_amm::tx::{RouteHop, RouteTx};
    assert!(
        hops >= 2 && hops <= pools as usize,
        "hops must fit the pool set"
    );
    let users = 32u64;
    let mut ready = ShardMap::new((0..pools).map(PoolId));
    for p in 0..pools {
        ready.seed_liquidity(
            PoolId(p),
            Address::from_pubkey_bytes(b"bench-route-lp"),
            -120_000,
            120_000,
            4_000_000_000_000_000,
            4_000_000_000_000_000,
        );
    }
    let deposits: HashMap<Address, (u128, u128)> = (0..users)
        .map(|i| {
            (
                Address::from_index(0xB0B0 + i),
                (2_000_000_000_000u128, 2_000_000_000_000u128),
            )
        })
        .collect();
    ready.begin_epoch(deposits, |a| {
        (0..users)
            .find(|i| Address::from_index(0xB0B0 + i) == *a)
            .map(|i| PoolId((i % pools as u64) as u32))
    });

    let txs: Vec<AmmTx> = (0..routes)
        .map(|i| {
            let entry = (i % pools as usize) as u32;
            let mut dir = i % 2 == 0;
            AmmTx::Route(RouteTx {
                user: Address::from_index(0xB0B0 + (i as u64 % users)),
                hops: (0..hops as u32)
                    .map(|k| {
                        let hop = RouteHop {
                            pool: PoolId((entry + k) % pools),
                            zero_for_one: dir,
                        };
                        dir = !dir;
                        hop
                    })
                    .collect(),
                amount_in: 40_000 + i as u128 * 13,
                min_amount_out: 0,
                deadline_round: 1_000_000,
            })
        })
        .collect();
    let batch: Vec<(&AmmTx, usize)> = txs.iter().map(|t| (t, t.mainnet_size_bytes())).collect();

    let run_epoch = |mode: ExecMode| {
        median_ns(
            samples,
            || ready.clone(),
            |mut shards| {
                black_box(shards.execute_batch(&batch, 0, mode));
                shards
            },
        )
    };
    let sequential_ns = run_epoch(ExecMode::Sequential);
    let parallel_ns = run_epoch(ExecMode::Parallel);

    // settle one executed epoch and read the netting ledger
    let mut executed = ready.clone();
    let effects = executed.execute_batch(&batch, 0, ExecMode::Sequential);
    assert!(
        effects.iter().all(|e| e.accepted()),
        "bench routes must all execute"
    );
    let netting = executed.epoch_netting();
    assert_eq!(netting.route_count() as usize, routes);
    let netted = netting.netted_settlement_bytes();
    let naive = netting.naive_settlement_bytes();
    assert!(
        netted < naive,
        "netted settlement must be strictly smaller: {netted} !< {naive}"
    );

    RouteLadder {
        pools,
        hops,
        routes,
        sequential_ns,
        parallel_ns,
        speedup: sequential_ns / parallel_ns,
        netted_settlement_bytes: netted,
        naive_settlement_bytes: naive,
        netting_ratio: naive as f64 / netted as f64,
    }
}

/// One rung of the restore-throughput ladder: a tick-dense pool with
/// `positions` positions, decoded + restored with and without the
/// persisted tick→sqrt-price table.
struct RestoreLadder {
    name: String,
    positions: usize,
    ticks: usize,
    encoded_bytes: usize,
    restore_with_table_ns: f64,
    restore_recompute_ns: f64,
    /// The lazy restore above plus materializing every position — the
    /// eager oracle the zero-copy position table must beat.
    restore_eager_ns: f64,
}

fn restore_ladder(positions: usize, samples: usize) -> RestoreLadder {
    // one-spacing rungs tiled over a wide band: positions/35 distinct
    // rungs ⇒ tick count grows with the ladder, the regime where
    // rebuild_tick_index dominates restore
    let mut pool = Pool::new_standard();
    let half_rungs = (positions as i32 / 70).clamp(128, 14_000);
    for i in 0..positions {
        let rung = (i as i32 % (2 * half_rungs)) - half_rungs;
        let id = PositionId::derive(&[b"restore-ladder", &(i as u64).to_be_bytes()]);
        pool.mint(
            id,
            Address::from_index(i as u64 % 1024),
            rung * 60,
            (rung + 1) * 60,
            1_000_000,
            1_000_000,
        )
        .expect("ladder mint");
    }
    let state = pool.export_state();
    let ticks = state.ticks.len();
    let with_table = state.encode_to_vec();
    let mut stripped_state = state;
    stripped_state.tick_prices.clear();
    let stripped = stripped_state.encode_to_vec();

    let time_restore = |bytes: &[u8]| {
        median_ns(
            samples,
            || bytes.to_vec(),
            |b| {
                let decoded = PoolState::decode_all(&b).expect("ladder state decodes");
                Pool::from_state(decoded).expect("ladder state restores")
            },
        )
    };
    let restore_with_table_ns = time_restore(&with_table);
    let restore_recompute_ns = time_restore(&stripped);
    // the eager oracle: the same restore, then decode every packed
    // position record into the live table (what the pre-zero-copy
    // restore paid up front)
    let restore_eager_ns = median_ns(
        samples,
        || with_table.clone(),
        |b| {
            let decoded = PoolState::decode_all(&b).expect("ladder state decodes");
            let mut pool = Pool::from_state(decoded).expect("ladder state restores");
            black_box(pool.materialize_positions());
            pool
        },
    );

    RestoreLadder {
        name: format!("positions_{positions}"),
        positions,
        ticks,
        encoded_bytes: with_table.len(),
        restore_with_table_ns,
        restore_recompute_ns,
        restore_eager_ns,
    }
}

/// One rung of the delta-vs-full checkpoint size grid: a pool with
/// `positions` packed records, `dirty_bp` basis points of them poked in
/// place, and the page-granular delta sized against the full section
/// re-encode.
struct DeltaLadder {
    name: String,
    positions: usize,
    dirty_positions: usize,
    pages_total: usize,
    pages_dirty: usize,
    full_section_bytes: usize,
    delta_bytes: usize,
    shrink: f64,
}

/// Pokes `dirty_bp`/10000 of the pool's positions in place (fee-owed
/// bumps — fixed-stride records, so no byte in the section shifts),
/// diffs the resulting section against the base at the default page
/// size, and verifies the delta applies back to the exact full
/// re-encode before sizing both forms.
fn delta_ladder(state: &PoolState, dirty_bp: u32) -> DeltaLadder {
    let base_bytes = state.encode_to_vec();
    let records = state.positions.clone();
    let total = records.len();
    let mut table = PositionTable::from_records(records.clone());
    let dirty = ((total as u64 * dirty_bp as u64) / 10_000).max(1) as usize;
    // spread the pokes across the whole record range so dirty pages are
    // scattered, not one contiguous run
    let stride = (total / dirty).max(1);
    let mut poked = 0usize;
    let mut i = 0usize;
    while poked < dirty && i < total {
        let id = records.id_at(i);
        let position = table.get_mut(&id).expect("record exists");
        position.tokens_owed0 = position.tokens_owed0.wrapping_add(1);
        poked += 1;
        i += stride;
    }
    let mut dirty_state = state.clone();
    dirty_state.positions = table.export_records();
    let dirty_bytes = dirty_state.encode_to_vec();
    assert_eq!(
        dirty_bytes.len(),
        base_bytes.len(),
        "in-place pokes must never shift section bytes"
    );

    let snapshot_of = |epoch: u64, bytes: Vec<u8>| Snapshot {
        version: SNAPSHOT_VERSION,
        epoch,
        sections: vec![Section {
            kind: SectionKind::Pool(0),
            bytes,
        }],
    };
    let base_snap = snapshot_of(1, base_bytes);
    let next_snap = snapshot_of(2, dirty_bytes.clone());
    let delta = DeltaSnapshot::diff(&base_snap, &next_snap, DEFAULT_PAGE_SIZE);
    // the delta must reproduce the full re-encode bit-exactly
    assert_eq!(
        delta.apply(&base_snap).expect("delta applies"),
        next_snap,
        "delta apply diverged from the full re-encode"
    );

    DeltaLadder {
        name: format!("positions_{total}_dirty_{dirty_bp}bp"),
        positions: total,
        dirty_positions: poked,
        pages_total: dirty_bytes.len().div_ceil(DEFAULT_PAGE_SIZE),
        pages_dirty: delta.pages(),
        full_section_bytes: dirty_bytes.len(),
        delta_bytes: delta.encoded_len(),
        shrink: dirty_bytes.len() as f64 / delta.encoded_len() as f64,
    }
}

/// A pool holding `positions` packed records across a modest band of
/// tick ranges — the position table dominates its section bytes, the
/// regime the delta grid measures.
fn delta_ladder_pool(positions: usize) -> PoolState {
    let mut pool = Pool::new_standard();
    for i in 0..positions {
        let rung = (i % 64) as i32 - 32;
        pool.mint(
            PositionId::derive(&[b"delta-grid", &(i as u64).to_be_bytes()]),
            Address::from_index(i as u64 % 4096),
            rung * 60,
            (rung + 2) * 60,
            1_000_000,
            1_000_000,
        )
        .expect("grid mint");
    }
    pool.export_state()
}

/// One rung of the concurrent-read scaling ladder: `threads` reader
/// threads serving quotes from a sealed epoch view while the write path
/// keeps executing rounds and publishing fresh views on the live shards.
struct QuoteLadder {
    threads: usize,
    quotes: u64,
    wall_ns: f64,
    quotes_per_sec: f64,
    writer_rounds: u64,
}

/// Measures sealed-view quote throughput at one reader-thread count
/// under continuous write load — the production shape the quote path is
/// built for: reads scale out across cores while the next epoch
/// executes, because readers share an immutable `Arc` and never touch a
/// lock.
fn quote_ladder(pools: u32, threads: usize, quotes_per_thread: usize) -> QuoteLadder {
    let users = (4 * pools as u64).max(16);
    let mut gen = TrafficGenerator::new(GeneratorConfig {
        daily_volume: 25_000_000,
        mix: TrafficMix::uniswap_2023(),
        users,
        round_duration: ammboost_sim::time::SimDuration::from_secs(7),
        pools: (0..pools).map(PoolId).collect(),
        skew: TrafficSkew::Zipf { exponent: 1.0 },
        route_style: RouteStyle::default(),
        deadline_slack_rounds: 1_000_000,
        max_positions_per_user: 1,
        liquidity_style: LiquidityStyle::default(),
        quote_style: Default::default(),
        engine_mix: Default::default(),
        seed: 0x900E_D00D + threads as u64,
    });
    let traffic: Vec<Vec<GeneratedTx>> = (0..2).map(|r| gen.next_round(r)).collect();
    let mut shards = ShardMap::new((0..pools).map(PoolId));
    for p in 0..pools {
        shards.seed_liquidity(
            PoolId(p),
            Address::from_pubkey_bytes(b"bench-quote-lp"),
            -120_000,
            120_000,
            4_000_000_000_000_000,
            4_000_000_000_000_000,
        );
    }
    let deposits: HashMap<Address, (u128, u128)> = gen
        .users()
        .into_iter()
        .map(|u| (u, (2_000_000_000_000u128, 2_000_000_000_000u128)))
        .collect();
    let route_gen = &gen;
    shards.begin_epoch(deposits, |u| route_gen.pool_for(u));
    let (view, _) = shards.publish_view(0);

    let stop = AtomicBool::new(false);
    let rounds_done = AtomicU64::new(0);
    let stop_ref = &stop;
    let rounds_ref = &rounds_done;
    let traffic_ref = &traffic;
    let t0 = Instant::now();
    let (quotes, wall) = std::thread::scope(|s| {
        let writer = s.spawn(move || {
            let mut epoch = 1u64;
            while !stop_ref.load(Ordering::Relaxed) {
                for (round, txs) in traffic_ref.iter().enumerate() {
                    let batch: Vec<(&AmmTx, usize)> =
                        txs.iter().map(|g| (&g.tx, g.wire_size)).collect();
                    black_box(shards.execute_batch(&batch, round as u64, ExecMode::Sequential));
                    rounds_ref.fetch_add(1, Ordering::Relaxed);
                }
                black_box(shards.publish_view(epoch));
                epoch += 1;
            }
        });
        let readers: Vec<_> = (0..threads)
            .map(|t| {
                let view = Arc::clone(&view);
                s.spawn(move || {
                    let mut rng =
                        DetRng::new(0x900E ^ (t as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                    let ids = view.pool_ids().to_vec();
                    let mut answered = 0u64;
                    for _ in 0..quotes_per_thread {
                        let pool = ids[rng.range_u64(0, ids.len() as u64) as usize];
                        let dir = rng.unit() < 0.5;
                        let amount = rng.range_u128(1_000, 2_000_000);
                        if black_box(view.quote_swap(pool, dir, SwapKind::ExactInput(amount), None))
                            .is_ok()
                        {
                            answered += 1;
                        }
                    }
                    answered
                })
            })
            .collect();
        let answered: u64 = readers.into_iter().map(|r| r.join().expect("reader")).sum();
        // the reader window defines the measurement; the writer keeps
        // going until all readers are done
        let wall = t0.elapsed();
        stop.store(true, Ordering::Relaxed);
        writer.join().expect("writer");
        (answered, wall)
    });
    let wall_ns = wall.as_nanos() as f64;
    QuoteLadder {
        threads,
        quotes,
        wall_ns,
        quotes_per_sec: quotes as f64 / (wall_ns / 1e9),
        writer_rounds: rounds_done.load(Ordering::Relaxed),
    }
}

/// Extracts every `"key": number` leaf from the snapshot's own JSON
/// dialect (nested objects, string/number/bool values, no arrays) as
/// `dotted.path → value` pairs. Hand-rolled because the workspace has no
/// JSON parser dependency; it only needs to read what this binary wrote.
fn scan_numbers(json: &str) -> Vec<(String, f64)> {
    let bytes = json.as_bytes();
    let mut i = 0;
    let mut stack: Vec<String> = Vec::new();
    let mut pending_key: Option<String> = None;
    let mut out = Vec::new();
    while i < bytes.len() {
        match bytes[i] {
            b'{' => {
                stack.push(pending_key.take().unwrap_or_default());
                i += 1;
            }
            b'}' => {
                stack.pop();
                i += 1;
            }
            b'"' => {
                // our emitter never escapes quotes inside strings
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && bytes[j] != b'"' {
                    j += 1;
                }
                let s = &json[start..j];
                i = j + 1;
                let mut k = i;
                while k < bytes.len() && bytes[k].is_ascii_whitespace() {
                    k += 1;
                }
                if k < bytes.len() && bytes[k] == b':' {
                    pending_key = Some(s.to_string());
                    i = k + 1;
                } else {
                    pending_key = None; // string value: not a metric
                }
            }
            b'0'..=b'9' | b'-' => {
                let start = i;
                while i < bytes.len()
                    && matches!(bytes[i], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                {
                    i += 1;
                }
                if let (Some(key), Ok(v)) = (pending_key.take(), json[start..i].parse::<f64>()) {
                    let mut path: Vec<&str> = stack
                        .iter()
                        .filter(|s| !s.is_empty())
                        .map(String::as_str)
                        .collect();
                    path.push(&key);
                    out.push((path.join("."), v));
                }
            }
            b't' | b'f' => {
                pending_key = None;
                while i < bytes.len() && bytes[i].is_ascii_alphabetic() {
                    i += 1;
                }
            }
            _ => i += 1,
        }
    }
    out
}

/// Metadata and tagging paths the regression gate never compares.
fn check_skips_path(path: &str, skip_speedups: bool) -> bool {
    let leaf = path.rsplit('.').next().unwrap_or(path);
    if matches!(
        leaf,
        "unix_time_secs" | "samples_per_metric" | "hardware_threads" | "threads" | "writer_rounds"
    ) {
        return true;
    }
    // ratios of two individually-gated timings can legally drift ~2x the
    // tolerance while both components stay in band — gate the components
    if matches!(
        leaf,
        "tick_table_speedup"
            | "cross64_speedup_bitmap_vs_oracle"
            | "merkle_x4_speedup"
            | "lazy_restore_speedup"
    ) {
        return true;
    }
    // on a 1-hardware-thread host every concurrency column measures
    // scheduler fairness, not scaling: parallel speedups, and the
    // quote-read ladder whose reader and writer time-slice one core
    // (the JSON marks speedups advisory for the same reason)
    skip_speedups
        && (path.contains("parallel_speedup")
            || path.contains("epoch_parallel_ns")
            || path.contains("pipeline_speedup")
            || path.contains("epoch_pipelined_ns")
            || path.starts_with("quote_reads."))
}

/// Applies the gate's direction-aware tolerance to one metric; returns
/// the failure description when the fresh value drifted out of band.
fn check_metric(path: &str, committed: f64, fresh: f64, tol: f64) -> Option<String> {
    let drift = (fresh - committed) / committed.abs().max(1e-9);
    let failed = if path.contains("_ns") {
        drift > tol // a timing only regresses by getting slower
    } else if path.contains("quotes_per_sec") || path.contains("speedup") {
        -drift > tol // a throughput/scaling number only regresses by dropping
    } else {
        drift.abs() > tol // sizes and counts must not drift either way
    };
    failed.then(|| {
        format!(
            "{path}: committed {committed:.1}, fresh {fresh:.1} ({:+.1}%)",
            drift * 100.0
        )
    })
}

/// Compares a fresh smoke snapshot against the committed baseline file.
/// Paths present on only one side are compared as absences: a metric the
/// baseline lacks (or has lost) means the baseline is stale and must be
/// regenerated, which is itself a gate failure.
fn check_against(
    label: &str,
    committed: &str,
    fresh: &str,
    tol: f64,
    skip_speedups: bool,
    failures: &mut Vec<String>,
) -> usize {
    let committed: HashMap<String, f64> = scan_numbers(committed).into_iter().collect();
    let fresh: Vec<(String, f64)> = scan_numbers(fresh);
    let mut compared = 0usize;
    for (path, fresh_v) in &fresh {
        if check_skips_path(path, skip_speedups) {
            continue;
        }
        match committed.get(path) {
            Some(committed_v) => {
                compared += 1;
                if let Some(msg) = check_metric(path, *committed_v, *fresh_v, tol) {
                    failures.push(format!("{label}: {msg}"));
                }
            }
            None => failures.push(format!(
                "{label}: {path} missing from committed baseline (regenerate it)"
            )),
        }
    }
    let fresh_paths: std::collections::HashSet<&str> =
        fresh.iter().map(|(p, _)| p.as_str()).collect();
    for path in committed.keys() {
        if !check_skips_path(path, skip_speedups) && !fresh_paths.contains(path.as_str()) {
            failures.push(format!(
                "{label}: {path} in committed baseline but not produced any more"
            ));
        }
    }
    compared
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_pool.json".to_string());
    let state_out_path = args
        .iter()
        .position(|a| a == "--state-out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_state.json".to_string());
    let check = args.iter().any(|a| a == "--check");
    let tolerance_pct: f64 = args
        .iter()
        .position(|a| a == "--tolerance")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .or_else(|| std::env::var("AMMBOOST_BENCH_TOLERANCE").ok())
        .map(|s| {
            s.parse()
                .unwrap_or_else(|_| panic!("--tolerance / AMMBOOST_BENCH_TOLERANCE: bad value {s}"))
        })
        .unwrap_or(25.0);
    if let Some(unknown) = args.iter().enumerate().find_map(|(i, a)| {
        let is_value = i > 0
            && (args[i - 1] == "--out"
                || args[i - 1] == "--state-out"
                || args[i - 1] == "--tolerance");
        (a != "--smoke"
            && a != "--out"
            && a != "--state-out"
            && a != "--check"
            && a != "--tolerance"
            && !is_value)
            .then_some(a)
    }) {
        eprintln!("unknown argument: {unknown}");
        eprintln!(
            "usage: bench_snapshot [--smoke] [--out PATH] [--state-out PATH] [--check] [--tolerance PCT]"
        );
        std::process::exit(2);
    }
    // the regression gate always measures in smoke mode: CI-fast, and
    // medians are comparable across sample counts anyway
    let smoke = smoke || check;
    let samples = if smoke { 51 } else { 501 };
    let hardware_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    ammboost_bench::header("Bench snapshot (pool hot paths)");

    // -- single-range swap: alternate directions so price stays centred --
    let base = single_range_pool();
    let mut dir = false;
    let mut persistent = base.clone();
    let swap_single = median_ns(
        samples,
        || (),
        |()| {
            dir = !dir;
            persistent
                .swap(dir, SwapKind::ExactInput(50_000), None)
                .expect("swap")
        },
    );
    ammboost_bench::line("pool/swap_single_range", format!("{swap_single:.0} ns"));

    // -- per-engine single swaps: the same centred alternating-direction
    // pattern through the constant-product and weighted engines --
    let mut cp_engine = CpEngine::new_standard();
    cp_engine
        .mint(
            PositionId::derive(&[b"snap-cp"]),
            Address::from_index(1),
            10u128.pow(14),
            10u128.pow(14),
        )
        .expect("seed cp join");
    let mut cp_dir = false;
    let swap_cp = median_ns(
        samples,
        || (),
        |()| {
            cp_dir = !cp_dir;
            cp_engine
                .swap_with_protection(cp_dir, SwapKind::ExactInput(50_000), None, 0, u128::MAX)
                .expect("cp swap")
        },
    );
    ammboost_bench::line("pool/swap_constant_product", format!("{swap_cp:.0} ns"));
    let mut w_engine = WeightedEngine::new_standard();
    w_engine
        .mint(
            PositionId::derive(&[b"snap-w"]),
            Address::from_index(1),
            10u128.pow(14),
            10u128.pow(14),
        )
        .expect("seed weighted join");
    let mut w_dir = false;
    let swap_weighted = median_ns(
        samples,
        || (),
        |()| {
            w_dir = !w_dir;
            w_engine
                .swap_with_protection(w_dir, SwapKind::ExactInput(50_000), None, 0, u128::MAX)
                .expect("weighted swap")
        },
    );
    ammboost_bench::line("pool/swap_weighted", format!("{swap_weighted:.0} ns"));

    // -- 64-tick-crossing sweep over fragmented liquidity (32 scattered
    // positions → 64 initialized ticks): bitmap engine vs seed oracle --
    let frag_bitmap = fragmented_ladder_pool(32, TickSearch::Bitmap);
    let swap_cross64_bitmap = median_ns(
        samples,
        || frag_bitmap.clone(),
        |mut p| ladder_sweep(&mut p, 63),
    );
    ammboost_bench::line(
        "pool/swap_cross64_bitmap",
        format!("{swap_cross64_bitmap:.0} ns"),
    );
    let frag_oracle = fragmented_ladder_pool(32, TickSearch::BTreeOracle);
    let swap_cross64_oracle = median_ns(
        samples,
        || frag_oracle.clone(),
        |mut p| ladder_sweep(&mut p, 63),
    );
    ammboost_bench::line(
        "pool/swap_cross64_oracle",
        format!("{swap_cross64_oracle:.0} ns"),
    );
    let speedup = swap_cross64_oracle / swap_cross64_bitmap;
    ammboost_bench::line("pool/cross64_speedup", format!("{speedup:.2}x"));

    // -- dense (contiguous ladder) and sparse (one wide range) bands --
    let dense = ladder_pool(64, TickSearch::Bitmap);
    let swap_dense = median_ns(samples, || dense.clone(), |mut p| ladder_sweep(&mut p, 64));
    ammboost_bench::line("pool/swap_dense_band", format!("{swap_dense:.0} ns"));
    let sparse = wide_pool(64, TickSearch::Bitmap);
    let swap_sparse = median_ns(samples, || sparse.clone(), |mut p| ladder_sweep(&mut p, 64));
    ammboost_bench::line("pool/swap_sparse_band", format!("{swap_sparse:.0} ns"));

    // -- mint/burn/collect cycle --
    let lp = Address::from_index(9);
    let mut i = 0u64;
    let mint_burn = median_ns(
        samples,
        || base.clone(),
        |mut p| {
            i += 1;
            let id = PositionId::derive(&[b"mb", &i.to_be_bytes()]);
            p.mint(id, lp, -1200, 1200, 1_000_000, 1_000_000).unwrap();
            let liq = p.position(&id).unwrap().liquidity;
            p.burn(id, lp, liq).unwrap();
            p.collect(id, lp, u128::MAX, u128::MAX).unwrap()
        },
    );
    ammboost_bench::line("pool/mint_burn_collect", format!("{mint_burn:.0} ns"));

    // -- Merkle root over a block's worth of tx leaves: the default
    // (4-way interleaved Keccak) build, the same build named explicitly,
    // and the scalar differential oracle it must stay bit-identical to --
    let leaves: Vec<_> = (0..1024u32).map(|i| leaf_hash(&i.to_be_bytes())).collect();
    let merkle_root = median_ns(
        samples,
        || leaves.clone(),
        |l| MerkleTree::from_leaves(l).root(),
    );
    ammboost_bench::line("merkle/root_1024_leaves", format!("{merkle_root:.0} ns"));
    let merkle_root_x4 = median_ns(
        samples,
        || leaves.clone(),
        |l| MerkleTree::from_leaves(l).root(),
    );
    ammboost_bench::line(
        "merkle/root_1024_leaves_x4",
        format!("{merkle_root_x4:.0} ns"),
    );
    let merkle_root_scalar = median_ns(
        samples,
        || leaves.clone(),
        |l| MerkleTree::from_leaves_scalar(l).root(),
    );
    let merkle_x4_speedup = merkle_root_scalar / merkle_root_x4;
    ammboost_bench::line(
        "merkle/root_1024_leaves_scalar",
        format!("{merkle_root_scalar:.0} ns ({merkle_x4_speedup:.2}x slower than x4)"),
    );

    // ---- the pool_count × skew ladder: sharded epoch execution ----
    ammboost_bench::header("Bench snapshot (sharded multi-pool epochs)");
    let ladder_samples = if smoke { 5 } else { 21 };
    let ladder_rounds = if smoke { 2 } else { 4 };
    let rungs = [
        (1u32, TrafficSkew::Uniform, "uniform", EngineMix::default()),
        (
            4,
            TrafficSkew::Zipf { exponent: 1.0 },
            "zipf1.0",
            EngineMix::default(),
        ),
        (8, TrafficSkew::Uniform, "uniform", EngineMix::default()),
        (
            8,
            TrafficSkew::Zipf { exponent: 1.0 },
            "zipf1.0",
            EngineMix::default(),
        ),
        (
            16,
            TrafficSkew::Zipf { exponent: 1.0 },
            "zipf1.0",
            EngineMix::default(),
        ),
        // the heterogeneous rung: 2 CL + 2 constant-product + 2 weighted
        // shards under the same Zipf popularity curve
        (
            6,
            TrafficSkew::Zipf { exponent: 1.0 },
            "mixed",
            EngineMix::of(2, 2, 2),
        ),
    ];
    let pool_ladders: Vec<PoolCountLadder> = rungs
        .iter()
        .map(|&(pools, skew, name, mix)| {
            let l = pool_count_ladder(pools, skew, name, mix, ladder_samples, ladder_rounds);
            ammboost_bench::line(
                &format!("shard/{}pools_{}/sequential", l.pools, l.skew),
                format!("{:.0} ns/epoch ({} txs)", l.sequential_ns, l.txs_per_epoch),
            );
            ammboost_bench::line(
                &format!("shard/{}pools_{}/parallel", l.pools, l.skew),
                format!("{:.0} ns/epoch ({:.2}x)", l.parallel_ns, l.speedup),
            );
            ammboost_bench::line(
                &format!("shard/{}pools_{}/snapshot", l.pools, l.skew),
                format!(
                    "{} (max section {})",
                    ammboost_bench::fmt_bytes(l.snapshot_bytes),
                    ammboost_bench::fmt_bytes(l.max_pool_section_bytes)
                ),
            );
            l
        })
        .collect();
    if hardware_threads == 1 {
        ammboost_bench::line(
            "shard/note",
            "1 hardware thread: parallel column = scheduling overhead only",
        );
    }
    // ---- the checkpoint-pipeline ladder: epoch + checkpoint, sync vs
    // staged-and-committed off-thread ----
    ammboost_bench::header("Bench snapshot (checkpoint pipeline)");
    let pipeline_ladders: Vec<CheckpointPipelineLadder> = [1u32, 4, 8]
        .iter()
        .map(|&pools| {
            let l = checkpoint_pipeline_ladder(pools, ladder_samples, ladder_rounds);
            ammboost_bench::line(
                &format!("checkpoint/{}pools/epoch_sync", l.pools),
                format!("{:.0} ns/epoch ({} txs)", l.epoch_sync_ns, l.txs_per_epoch),
            );
            ammboost_bench::line(
                &format!("checkpoint/{}pools/epoch_pipelined", l.pools),
                format!("{:.0} ns/epoch ({:.2}x)", l.epoch_pipelined_ns, l.speedup),
            );
            ammboost_bench::line(
                &format!("checkpoint/{}pools/stage_vs_commit", l.pools),
                format!("{:.0} ns stage / {:.0} ns commit", l.stage_ns, l.commit_ns),
            );
            l
        })
        .collect();
    if hardware_threads == 1 {
        ammboost_bench::line(
            "checkpoint/note",
            "1 hardware thread: pipelined column = queueing overhead only",
        );
    }
    let pipeline_ladder_json: Vec<String> = pipeline_ladders
        .iter()
        .map(|l| {
            format!(
                "    \"{}pools\": {{\n      \"pool_count\": {},\n      \"txs_per_epoch\": {},\n      \"epoch_sync_ns\": {:.1},\n      \"epoch_pipelined_ns\": {:.1},\n      \"stage_ns\": {:.1},\n      \"commit_ns\": {:.1},\n      \"pipeline_speedup\": {{\"value\": {:.3}, \"threads\": {}, \"advisory\": true}}\n    }}",
                l.pools,
                l.pools,
                l.txs_per_epoch,
                l.epoch_sync_ns,
                l.epoch_pipelined_ns,
                l.stage_ns,
                l.commit_ns,
                l.speedup,
                hardware_threads,
            )
        })
        .collect();

    // ---- the route hops × pool_count ladder: two-phase routed epochs ----
    ammboost_bench::header("Bench snapshot (routed epochs: hops × pools)");
    let route_samples = if smoke { 5 } else { 21 };
    let route_count = if smoke { 64 } else { 256 };
    let route_rungs = [(2u32, 2usize), (4, 2), (4, 4), (8, 4), (8, 8)];
    let route_ladders: Vec<RouteLadder> = route_rungs
        .iter()
        .map(|&(pools, hops)| {
            let l = route_ladder(pools, hops, route_count, route_samples);
            ammboost_bench::line(
                &format!("route/{}pools_{}hops/sequential", l.pools, l.hops),
                format!("{:.0} ns/epoch ({} routes)", l.sequential_ns, l.routes),
            );
            ammboost_bench::line(
                &format!("route/{}pools_{}hops/parallel", l.pools, l.hops),
                format!("{:.0} ns/epoch ({:.2}x)", l.parallel_ns, l.speedup),
            );
            ammboost_bench::line(
                &format!("route/{}pools_{}hops/settlement", l.pools, l.hops),
                format!(
                    "netted {} vs naive {} ({:.2}x smaller)",
                    ammboost_bench::fmt_bytes(l.netted_settlement_bytes),
                    ammboost_bench::fmt_bytes(l.naive_settlement_bytes),
                    l.netting_ratio
                ),
            );
            l
        })
        .collect();
    // ---- the concurrent-read scaling ladder: quotes/sec under write load ----
    ammboost_bench::header("Bench snapshot (sealed-view quotes under write load)");
    let quotes_per_thread = if smoke { 20_000 } else { 100_000 };
    let mut thread_rungs: Vec<usize> = std::iter::successors(Some(1usize), |n| Some(n * 2))
        .take_while(|&n| n < hardware_threads)
        .collect();
    thread_rungs.push(hardware_threads);
    let quote_ladders: Vec<QuoteLadder> = thread_rungs
        .iter()
        .map(|&threads| {
            let l = quote_ladder(8, threads, quotes_per_thread);
            ammboost_bench::line(
                &format!("quote/{}threads/throughput", l.threads),
                format!(
                    "{:.0} quotes/s ({} quotes, writer ran {} rounds)",
                    l.quotes_per_sec, l.quotes, l.writer_rounds
                ),
            );
            l
        })
        .collect();
    let quote_ladder_json: Vec<String> = quote_ladders
        .iter()
        .map(|l| {
            format!(
                "    \"threads_{}\": {{\n      \"threads\": {},\n      \"quotes\": {},\n      \"wall_ns\": {:.1},\n      \"quotes_per_sec\": {:.1},\n      \"writer_rounds\": {}\n    }}",
                l.threads, l.threads, l.quotes, l.wall_ns, l.quotes_per_sec, l.writer_rounds,
            )
        })
        .collect();

    let route_ladder_json: Vec<String> = route_ladders
        .iter()
        .map(|l| {
            format!(
                "    \"{}pools_{}hops\": {{\n      \"pool_count\": {},\n      \"hops\": {},\n      \"routes_per_epoch\": {},\n      \"epoch_sequential_ns\": {:.1},\n      \"epoch_parallel_ns\": {:.1},\n      \"parallel_speedup\": {{\"value\": {:.3}, \"threads\": {}, \"advisory\": true}},\n      \"netted_settlement_bytes\": {},\n      \"naive_settlement_bytes\": {},\n      \"netting_ratio\": {:.3}\n    }}",
                l.pools,
                l.hops,
                l.pools,
                l.hops,
                l.routes,
                l.sequential_ns,
                l.parallel_ns,
                l.speedup,
                hardware_threads,
                l.netted_settlement_bytes,
                l.naive_settlement_bytes,
                l.netting_ratio,
            )
        })
        .collect();

    let pool_ladder_json: Vec<String> = pool_ladders
        .iter()
        .map(|l| {
            format!(
                "    \"{}pools_{}\": {{\n      \"pool_count\": {},\n      \"skew\": \"{}\",\n      \"txs_per_epoch\": {},\n      \"epoch_sequential_ns\": {:.1},\n      \"epoch_parallel_ns\": {:.1},\n      \"parallel_speedup\": {{\"value\": {:.3}, \"threads\": {}, \"advisory\": true}},\n      \"snapshot_bytes\": {},\n      \"max_pool_section_bytes\": {}\n    }}",
                l.pools,
                l.skew,
                l.pools,
                l.skew,
                l.txs_per_epoch,
                l.sequential_ns,
                l.parallel_ns,
                l.speedup,
                hardware_threads,
                l.snapshot_bytes,
                l.max_pool_section_bytes,
            )
        })
        .collect();

    let unix_secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let json = format!(
        "{{\n  \"schema\": \"ammboost-bench-snapshot/v7\",\n  \"smoke\": {smoke},\n  \"samples_per_metric\": {samples},\n  \"unix_time_secs\": {unix_secs},\n  \"hardware_threads\": {hardware_threads},\n  \"median_ns_per_op\": {{\n    \"pool_swap_single_range\": {swap_single:.1},\n    \"pool_swap_constant_product\": {swap_cp:.1},\n    \"pool_swap_weighted\": {swap_weighted:.1},\n    \"pool_swap_cross64_bitmap\": {swap_cross64_bitmap:.1},\n    \"pool_swap_cross64_oracle\": {swap_cross64_oracle:.1},\n    \"pool_swap_dense_band\": {swap_dense:.1},\n    \"pool_swap_sparse_band\": {swap_sparse:.1},\n    \"pool_mint_burn_collect\": {mint_burn:.1},\n    \"merkle_root_1024_leaves\": {merkle_root:.1},\n    \"merkle_root_1024_leaves_x4\": {merkle_root_x4:.1},\n    \"merkle_root_1024_leaves_scalar\": {merkle_root_scalar:.1}\n  }},\n  \"derived\": {{\n    \"cross64_speedup_bitmap_vs_oracle\": {speedup:.3},\n    \"merkle_x4_speedup\": {merkle_x4_speedup:.3}\n  }},\n  \"multi_pool_epochs\": {{\n{}\n  }},\n  \"checkpoint_pipeline\": {{\n{}\n  }},\n  \"routed_epochs\": {{\n{}\n  }},\n  \"quote_reads\": {{\n{}\n  }}\n}}\n",
        pool_ladder_json.join(",\n"),
        pipeline_ladder_json.join(",\n"),
        route_ladder_json.join(",\n"),
        quote_ladder_json.join(",\n")
    );

    // ---- the state subsystem: snapshot encode/restore + growth control ----
    ammboost_bench::header("Bench snapshot (state subsystem)");
    let state_samples = if smoke { 11 } else { 101 };
    let ladders = [
        state_ladder("volume_50k", 50_000, state_samples),
        state_ladder("volume_500k", 500_000, state_samples),
    ];
    for l in &ladders {
        ammboost_bench::line(
            &format!("state/{}/snapshot_bytes", l.name),
            ammboost_bench::fmt_bytes(l.snapshot_bytes),
        );
        ammboost_bench::line(
            &format!("state/{}/encode", l.name),
            format!("{:.0} ns", l.encode_ns),
        );
        ammboost_bench::line(
            &format!("state/{}/decode_restore", l.name),
            format!("{:.0} ns", l.restore_ns),
        );
        ammboost_bench::line(
            &format!("state/{}/sidechain_pruned", l.name),
            ammboost_bench::fmt_bytes(l.sidechain_bytes_pruned),
        );
        ammboost_bench::line(
            &format!("state/{}/sidechain_unpruned", l.name),
            ammboost_bench::fmt_bytes(l.sidechain_bytes_unpruned),
        );
    }
    let ladder_json: Vec<String> = ladders
        .iter()
        .map(|l| {
            format!(
                "    \"{}\": {{\n      \"accepted_txs\": {},\n      \"snapshot_bytes\": {},\n      \"snapshot_encode_ns\": {:.1},\n      \"snapshot_decode_restore_ns\": {:.1},\n      \"state_root\": \"{}\",\n      \"sidechain_bytes_pruned\": {},\n      \"sidechain_peak_bytes_pruned\": {},\n      \"sidechain_bytes_unpruned\": {},\n      \"sidechain_peak_bytes_unpruned\": {}\n    }}",
                l.name,
                l.accepted,
                l.snapshot_bytes,
                l.encode_ns,
                l.restore_ns,
                l.state_root,
                l.sidechain_bytes_pruned,
                l.sidechain_peak_pruned,
                l.sidechain_bytes_unpruned,
                l.sidechain_peak_unpruned,
            )
        })
        .collect();
    // ---- restore-throughput ladder: tick-dense pools at position scale ----
    ammboost_bench::header("Bench snapshot (restore throughput)");
    let restore_sizes: &[usize] = if smoke {
        &[20_000, 100_000]
    } else {
        &[100_000, 1_000_000]
    };
    let restore_samples = if smoke { 3 } else { 5 };
    let restore_ladders: Vec<RestoreLadder> = restore_sizes
        .iter()
        .map(|&n| {
            let l = restore_ladder(n, restore_samples);
            ammboost_bench::line(
                &format!("restore/{}/bytes", l.name),
                ammboost_bench::fmt_bytes(l.encoded_bytes as u64),
            );
            ammboost_bench::line(
                &format!("restore/{}/with_tick_table", l.name),
                format!("{:.0} ns", l.restore_with_table_ns),
            );
            ammboost_bench::line(
                &format!("restore/{}/recompute", l.name),
                format!(
                    "{:.0} ns ({:.2}x slower)",
                    l.restore_recompute_ns,
                    l.restore_recompute_ns / l.restore_with_table_ns
                ),
            );
            ammboost_bench::line(
                &format!("restore/{}/eager", l.name),
                format!(
                    "{:.0} ns ({:.2}x slower than lazy)",
                    l.restore_eager_ns,
                    l.restore_eager_ns / l.restore_with_table_ns
                ),
            );
            // the zero-copy acceptance bar: at 10⁵+ positions the lazy
            // restore must beat materializing every position up front
            if l.positions >= 100_000 {
                assert!(
                    l.restore_with_table_ns < l.restore_eager_ns,
                    "lazy restore ({:.0} ns) must beat the eager oracle ({:.0} ns) at {} positions",
                    l.restore_with_table_ns,
                    l.restore_eager_ns,
                    l.positions
                );
            }
            l
        })
        .collect();
    let restore_json: Vec<String> = restore_ladders
        .iter()
        .map(|l| {
            format!(
                "    \"{}\": {{\n      \"positions\": {},\n      \"initialized_ticks\": {},\n      \"encoded_bytes\": {},\n      \"decode_restore_with_tick_table_ns\": {:.1},\n      \"decode_restore_recompute_ns\": {:.1},\n      \"tick_table_speedup\": {:.3},\n      \"decode_restore_eager_ns\": {:.1},\n      \"lazy_restore_speedup\": {:.3}\n    }}",
                l.name,
                l.positions,
                l.ticks,
                l.encoded_bytes,
                l.restore_with_table_ns,
                l.restore_recompute_ns,
                l.restore_recompute_ns / l.restore_with_table_ns,
                l.restore_eager_ns,
                l.restore_eager_ns / l.restore_with_table_ns,
            )
        })
        .collect();
    // ---- delta-vs-full checkpoint grid: dirty fraction × positions ----
    ammboost_bench::header("Bench snapshot (delta checkpoints)");
    let delta_sizes: &[usize] = if smoke {
        &[100_000]
    } else {
        &[100_000, 1_000_000]
    };
    let delta_ladders: Vec<DeltaLadder> = delta_sizes
        .iter()
        .flat_map(|&n| {
            let state = delta_ladder_pool(n);
            [10u32, 100, 1000]
                .iter()
                .map(|&bp| {
                    let l = delta_ladder(&state, bp);
                    ammboost_bench::line(
                        &format!("delta/{}/bytes", l.name),
                        format!(
                            "{} delta vs {} full ({:.1}x smaller, {}/{} pages)",
                            ammboost_bench::fmt_bytes(l.delta_bytes as u64),
                            ammboost_bench::fmt_bytes(l.full_section_bytes as u64),
                            l.shrink,
                            l.pages_dirty,
                            l.pages_total
                        ),
                    );
                    // the tentpole acceptance bar: a sparse-dirty epoch
                    // (≤1% of positions) must shrink the checkpoint ≥10×
                    if bp <= 100 {
                        assert!(
                            l.shrink >= 10.0,
                            "delta at {}bp dirty must shrink ≥10x, got {:.1}x",
                            bp,
                            l.shrink
                        );
                    }
                    l
                })
                .collect::<Vec<_>>()
        })
        .collect();
    let delta_json: Vec<String> = delta_ladders
        .iter()
        .map(|l| {
            format!(
                "    \"{}\": {{\n      \"positions\": {},\n      \"dirty_positions\": {},\n      \"pages_total\": {},\n      \"pages_dirty\": {},\n      \"full_section_bytes\": {},\n      \"delta_bytes\": {},\n      \"delta_shrink\": {:.3}\n    }}",
                l.name,
                l.positions,
                l.dirty_positions,
                l.pages_total,
                l.pages_dirty,
                l.full_section_bytes,
                l.delta_bytes,
                l.shrink,
            )
        })
        .collect();

    let state_json = format!(
        "{{\n  \"schema\": \"ammboost-state-snapshot/v3\",\n  \"smoke\": {smoke},\n  \"samples_per_metric\": {state_samples},\n  \"unix_time_secs\": {unix_secs},\n  \"ladders\": {{\n{}\n  }},\n  \"restore_ladders\": {{\n{}\n  }},\n  \"delta_ladders\": {{\n{}\n  }}\n}}\n",
        ladder_json.join(",\n"),
        restore_json.join(",\n"),
        delta_json.join(",\n")
    );
    if check {
        // ---- the regression gate: fresh smoke run vs committed baseline ----
        ammboost_bench::header("Bench check (fresh smoke run vs committed baseline)");
        let tol = tolerance_pct / 100.0;
        let committed_pool = std::fs::read_to_string(&out_path)
            .unwrap_or_else(|e| panic!("read committed baseline {out_path}: {e}"));
        let committed_state = std::fs::read_to_string(&state_out_path)
            .unwrap_or_else(|e| panic!("read committed baseline {state_out_path}: {e}"));
        // a speedup is not comparable when either side ran on one
        // hardware thread
        let committed_threads = scan_numbers(&committed_pool)
            .into_iter()
            .find(|(p, _)| p == "hardware_threads")
            .map(|(_, v)| v as usize)
            .unwrap_or(1);
        let skip_speedups = hardware_threads == 1 || committed_threads == 1;
        let mut failures = Vec::new();
        let mut compared = 0;
        compared += check_against(
            &out_path,
            &committed_pool,
            &json,
            tol,
            skip_speedups,
            &mut failures,
        );
        compared += check_against(
            &state_out_path,
            &committed_state,
            &state_json,
            tol,
            skip_speedups,
            &mut failures,
        );
        ammboost_bench::line("check/tolerance", format!("±{tolerance_pct}%"));
        ammboost_bench::line("check/metrics_compared", compared);
        ammboost_bench::line(
            "check/speedup_columns",
            if skip_speedups {
                "skipped (1 hw thread)"
            } else {
                "gated"
            },
        );
        assert!(
            compared > 10,
            "gate compared almost nothing — schema mismatch?"
        );
        if failures.is_empty() {
            println!();
            println!("bench check PASS ({compared} metrics within ±{tolerance_pct}%)");
        } else {
            println!();
            for f in &failures {
                eprintln!("bench check FAIL: {f}");
            }
            eprintln!(
                "bench check: {} failure(s) across {compared} compared metrics (tolerance \
                 ±{tolerance_pct}%; override with --tolerance PCT or AMMBOOST_BENCH_TOLERANCE, \
                 or regenerate the baselines with `bench_snapshot --smoke` if the change is \
                 intended)",
                failures.len(),
            );
            std::process::exit(1);
        }
    } else {
        std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("write {out_path}: {e}"));
        std::fs::write(&state_out_path, &state_json)
            .unwrap_or_else(|e| panic!("write {state_out_path}: {e}"));
        println!();
        println!("wrote {out_path}");
        println!("wrote {state_out_path}");
    }
}
