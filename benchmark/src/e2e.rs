//! The untraced end-to-end path: what a user of the node sees.
//!
//! It touches the node only through `SystemConfig` fields,
//! `System::{new, run, checkpoint, last_snapshot, last_delta, quote_view}`,
//! `Snapshot::{encode, decode}`, `restore_node` and
//! `QuoteView::{quote_swap, simulate_route, pool_ids}`, so modes and
//! oracles can be deleted from the node without touching this file.

use crate::json::Metric;
use crate::stats::{min, summarize, Summary};
use crate::workloads::Workload;
use ammboost_amm::pool::SwapKind;
use ammboost_amm::tx::{RouteHop, RouteTx};
use ammboost_amm::types::PoolId;
use ammboost_core::{restore_node, NodeRestore, QuoteView, System, SystemConfig};
use ammboost_crypto::{Address, H256};
use ammboost_state::Snapshot;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Fewest timed repetitions of a workload, however long one takes.
pub const MIN_REPS: usize = 5;
/// Quotes in the post-run stream.
const QUOTES_PER_STREAM: usize = 250_000;
/// Times each repetition answers the stream.
const QUOTE_PASSES: usize = 3;
/// Quotes timed together: a few milliseconds of work, short enough that
/// some pass answers each chunk undisturbed.
const QUOTE_CHUNK: usize = 5_000;

/// SplitMix64: the harness's own generator, so the quote stream depends
/// on nothing but `--seed`.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the modulo bias is far below what a workload
    /// generator needs to care about).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

pub enum QuoteOp {
    Swap {
        pool: PoolId,
        zero_for_one: bool,
        amount_in: u128,
    },
    Route(RouteTx),
}

/// The post-run read stream: exact-input swap quotes on uniformly drawn
/// pools; when the view has several pools every 4th request is a 2- or
/// 3-hop route simulation over distinct pools with alternating
/// directions (the shape `RouteTx::validate` admits).
pub fn quote_stream(seed: u64, pools: &[PoolId], n: usize) -> Vec<QuoteOp> {
    let mut rng = SplitMix64(seed ^ 0x51_07E5);
    (0..n)
        .map(|i| {
            let amount_in = 1_000 + rng.below(119_000) as u128;
            let mut zero_for_one = rng.below(2) == 0;
            if pools.len() < 2 || i % 4 != 3 {
                return QuoteOp::Swap {
                    pool: pools[rng.below(pools.len() as u64) as usize],
                    zero_for_one,
                    amount_in,
                };
            }
            let hop_count = (2 + rng.below(2) as usize).min(pools.len());
            let mut remaining = pools.to_vec();
            let hops = (0..hop_count)
                .map(|_| {
                    let pool = remaining.swap_remove(rng.below(remaining.len() as u64) as usize);
                    let hop = RouteHop { pool, zero_for_one };
                    zero_for_one = !zero_for_one;
                    hop
                })
                .collect();
            QuoteOp::Route(RouteTx {
                user: Address::from_pubkey_bytes(b"nodebench-reader"),
                hops,
                amount_in,
                min_amount_out: 0,
                deadline_round: u64::MAX,
            })
        })
        .collect()
}

/// Answers the stream against `view`; returns `(errors, checksum)` where
/// the checksum folds every quoted output amount.
pub fn serve_stream(view: &QuoteView, stream: &[QuoteOp]) -> (u64, u128) {
    let mut errors = 0u64;
    let mut checksum = 0u128;
    for op in stream {
        let out = match op {
            QuoteOp::Swap {
                pool,
                zero_for_one,
                amount_in,
            } => view
                .quote_swap(*pool, *zero_for_one, SwapKind::ExactInput(*amount_in), None)
                .map(|r| r.amount_out)
                .ok(),
            QuoteOp::Route(route) => view.simulate_route(route).map(|q| q.amount_out).ok(),
        };
        match out {
            Some(amount) => checksum = checksum.wrapping_add(black_box(amount)),
            None => errors += 1,
        }
    }
    (errors, checksum)
}

/// Everything about one repetition that must not depend on the clock:
/// bit-equal across repetitions of one seed, or the run is incorrect.
#[derive(Clone, Debug, PartialEq)]
pub struct Fingerprint {
    pub submitted: u64,
    pub accepted: u64,
    pub rejected: u64,
    pub leftover_queue: u64,
    pub quotes_served: u64,
    pub quotes_failed: u64,
    pub routes_accepted: u64,
    pub route_legs: u64,
    pub mainchain_gas: u64,
    pub mainchain_bytes: u64,
    pub sidechain_bytes: u64,
    pub sidechain_peak_bytes: u64,
    pub max_summary_bytes: u64,
    pub snapshot_bytes: u64,
    pub delta_bytes: u64,
    pub sc_latency_s: f64,
    pub payout_latency_s: f64,
    pub state_root: H256,
    pub stream_quotes: u64,
    pub stream_errors: u64,
    pub stream_checksum: u128,
}

struct Rep {
    setup_s: f64,
    run_s: f64,
    fastsync_ms: Vec<f64>,
    /// Seconds per [`QUOTE_CHUNK`] of the stream, one list per pass.
    quote_chunk_s: Vec<Vec<f64>>,
    fingerprint: Fingerprint,
    /// Output checks that failed in this repetition.
    problems: Vec<String>,
}

fn one_rep(workload: &Workload, seed: u64, stream: &mut Option<Vec<QuoteOp>>) -> Rep {
    let mut problems = Vec::new();

    let setup = Instant::now();
    let cfg: SystemConfig = workload.config(seed);
    let mut sys = System::new(cfg.clone());
    let setup_s = setup.elapsed().as_secs_f64();

    let run = Instant::now();
    let report = sys.run();
    let run_s = run.elapsed().as_secs_f64();

    if report.accepted + report.rejected != report.submitted {
        problems.push(format!(
            "accepted {} + rejected {} != submitted {}",
            report.accepted, report.rejected, report.submitted
        ));
    }
    if report.leftover_queue != 0 {
        problems.push(format!(
            "{} transactions left queued",
            report.leftover_queue
        ));
    }

    // the drain epoch ran after the last scheduled checkpoint: take the
    // end-of-run one a joining node would fast-sync from
    let stats = sys.checkpoint(cfg.epochs + 1);
    let snapshot = sys.last_snapshot().expect("checkpoint just taken");
    let wire = snapshot.encode();
    // with no earlier checkpoint to diff against, a follower fetches the
    // whole snapshot: that is the delta (and keeps the metric above zero)
    let delta_bytes = sys
        .last_delta()
        .map_or(wire.len(), |delta| delta.encoded_len());

    let mut fastsync_ms = Vec::with_capacity(workload.restore_passes);
    for _ in 0..workload.restore_passes {
        let pass = Instant::now();
        let node = fast_sync(black_box(&wire));
        fastsync_ms.push(pass.elapsed().as_secs_f64() * 1e3);
        // checked (and the node dropped) off the clock: a joining node
        // keeps what it restored
        match node {
            Ok(node) if node.root == stats.root => {}
            Ok(node) => problems.push(format!("restored root {} != {}", node.root, stats.root)),
            Err(e) => problems.push(format!("fast-sync failed: {e}")),
        }
    }

    let view = sys.quote_view().expect("a run publishes views");
    // the pool set is the workload's, so one stream serves every repetition
    let stream: &[QuoteOp] =
        stream.get_or_insert_with(|| quote_stream(seed, view.pool_ids(), QUOTES_PER_STREAM));
    let mut quote_chunk_s = Vec::with_capacity(QUOTE_PASSES);
    let (mut stream_errors, mut stream_checksum) = (0u64, 0u128);
    for _ in 0..QUOTE_PASSES {
        let mut pass = Vec::with_capacity(stream.len().div_ceil(QUOTE_CHUNK));
        for chunk in stream.chunks(QUOTE_CHUNK) {
            let quoting = Instant::now();
            let (errors, checksum) = serve_stream(&view, chunk);
            pass.push(quoting.elapsed().as_secs_f64());
            stream_errors += errors;
            stream_checksum = stream_checksum.wrapping_add(checksum);
        }
        quote_chunk_s.push(pass);
    }
    if stream_errors != 0 {
        problems.push(format!("{stream_errors} post-run quotes failed"));
    }

    Rep {
        setup_s,
        run_s,
        fastsync_ms,
        quote_chunk_s,
        fingerprint: Fingerprint {
            submitted: report.submitted,
            accepted: report.accepted,
            rejected: report.rejected,
            leftover_queue: report.leftover_queue,
            quotes_served: report.quotes_served,
            quotes_failed: report.quotes_failed,
            routes_accepted: report.routes_accepted,
            route_legs: report.route_legs_executed,
            mainchain_gas: report.mainchain_gas,
            mainchain_bytes: report.mainchain_growth_bytes,
            sidechain_bytes: report.sidechain_bytes,
            sidechain_peak_bytes: report.sidechain_peak_bytes,
            max_summary_bytes: report.max_summary_bytes,
            snapshot_bytes: wire.len() as u64,
            delta_bytes: delta_bytes as u64,
            sc_latency_s: report.avg_sc_latency_secs,
            payout_latency_s: report.avg_payout_latency_secs,
            state_root: stats.root,
            stream_quotes: (stream.len() * QUOTE_PASSES) as u64,
            stream_errors,
            stream_checksum,
        },
        problems,
    }
}

/// What a joining node does with a snapshot off the wire.
pub fn fast_sync(wire: &[u8]) -> Result<NodeRestore, String> {
    let snapshot = Snapshot::decode(wire).map_err(|e| e.to_string())?;
    restore_node(&snapshot).map_err(|e| e.to_string())
}

/// Peak resident set size of this process so far, from `VmHWM`.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that failed; the run is correct when there are none.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Count, extremes, median and quartiles behind each timed metric.
    pub timings: Vec<(&'static str, Summary)>,
    pub fingerprint: Fingerprint,
}

/// Runs `workload` for at least `seconds` (and at least [`MIN_REPS`]
/// repetitions), one fresh `System` per repetition.
pub fn run(workload: &Workload, seed: u64, seconds: u64) -> Outcome {
    let budget = Duration::from_secs(seconds);
    let started = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut stream = None;
    while reps.len() < MIN_REPS || started.elapsed() < budget {
        reps.push(one_rep(workload, seed, &mut stream));
    }

    let fingerprint = reps[0].fingerprint.clone();
    let mut problems: Vec<String> = Vec::new();
    for (i, rep) in reps.iter().enumerate() {
        problems.extend(rep.problems.iter().map(|p| format!("rep {i}: {p}")));
        if rep.fingerprint != fingerprint {
            problems.push(format!(
                "rep {i} is not deterministic: {:?} vs rep 0 {:?}",
                rep.fingerprint, fingerprint
            ));
        }
    }

    let setup_s: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let run_s: Vec<f64> = reps.iter().map(|r| r.run_s).collect();
    let fastsync_ms: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.fastsync_ms.iter().copied())
        .collect();
    let passes: Vec<&Vec<f64>> = reps.iter().flat_map(|r| &r.quote_chunk_s).collect();
    let quote_qps: Vec<f64> = passes
        .iter()
        .map(|pass| QUOTES_PER_STREAM as f64 / pass.iter().sum::<f64>())
        .collect();
    // every pass answers the same stream against the same sealed state, so
    // chunk k is the same work in each: the undisturbed cost of the stream
    // is the sum over chunks of the chunk's best time in any pass
    let best_stream_s: f64 = (0..passes[0].len())
        .map(|k| min(&passes.iter().map(|pass| pass[k]).collect::<Vec<f64>>()))
        .sum();
    let f = &fingerprint;
    let epochs = workload.config(seed).epochs as f64;
    let accepted = f.accepted as f64;
    let node_tps: Vec<f64> = run_s.iter().map(|s| accepted / s).collect();
    let epoch_ms: Vec<f64> = run_s.iter().map(|s| s * 1e3 / epochs).collect();

    // Interference on a shared host only ever slows a repetition down, so
    // the best repetition is the steadiest estimate of what the program
    // costs: its spread from run to run was less than half the median's
    // when this benchmark was defined. Median and quartiles are printed
    // beside it.
    let setup = summarize(&setup_s);
    let tps = summarize(&node_tps);
    let epoch = summarize(&epoch_ms);
    let fastsync = summarize(&fastsync_ms);
    let timings = vec![
        ("setup_s", setup),
        ("node_tps", tps),
        ("epoch_ms", epoch),
        ("fastsync_ms", fastsync),
        ("quote_qps", summarize(&quote_qps)),
    ];
    let m = |name, unit, value| Metric { name, unit, value };
    let metrics = vec![
        m("setup_s", "s", setup.min),
        m("node_tps", "tx/s", tps.max),
        m("epoch_ms", "ms", epoch.min),
        m("fastsync_ms", "ms", fastsync.min),
        m(
            "quote_qps",
            "quotes/s",
            QUOTES_PER_STREAM as f64 / best_stream_s,
        ),
        m("peak_rss_mb", "MB", peak_rss_mb()),
        m("sc_latency_s", "sim_s", f.sc_latency_s),
        m("payout_latency_s", "sim_s", f.payout_latency_s),
        m("gas_per_tx", "gas", f.mainchain_gas as f64 / accepted),
        m(
            "mainchain_bytes_per_tx",
            "B",
            f.mainchain_bytes as f64 / accepted,
        ),
        m("sidechain_retained_bytes", "B", f.sidechain_bytes as f64),
        m("sidechain_peak_bytes", "B", f.sidechain_peak_bytes as f64),
        m("snapshot_bytes", "B", f.snapshot_bytes as f64),
        m("delta_bytes", "B", f.delta_bytes as f64),
    ];

    // a transaction the AMM rejects (slippage floor, spent deposit) and an
    // in-run valuation of a position the sealed view does not hold yet are
    // outcomes the node recorded correctly; they are pinned by the
    // fingerprint. What fails is work the node did not finish or got wrong.
    let attempted = f.submitted + f.quotes_served + f.quotes_failed + f.stream_quotes;
    let failed = f.leftover_queue + f.stream_errors;
    Outcome {
        attempted,
        failed,
        problems,
        metrics,
        timings,
        fingerprint,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_seeded_and_repeatable() {
        let a: Vec<u64> = (0..4).map(|_| SplitMix64(7).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        let mut r7 = SplitMix64(7);
        let mut r8 = SplitMix64(8);
        assert_ne!(r7.next_u64(), r8.next_u64());
        // reference value of SplitMix64 seeded with 0
        assert_eq!(SplitMix64(0).next_u64(), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn single_pool_streams_hold_only_swaps() {
        let stream = quote_stream(7, &[PoolId(0)], 64);
        assert_eq!(stream.len(), 64);
        assert!(stream.iter().all(|op| matches!(op, QuoteOp::Swap { .. })));
    }

    #[test]
    fn multi_pool_streams_route_every_fourth_request_validly() {
        let pools: Vec<PoolId> = (0..5).map(PoolId).collect();
        let stream = quote_stream(7, &pools, 400);
        let routes: Vec<&RouteTx> = stream
            .iter()
            .filter_map(|op| match op {
                QuoteOp::Route(r) => Some(r),
                QuoteOp::Swap { .. } => None,
            })
            .collect();
        assert_eq!(routes.len(), 100);
        for route in routes {
            assert!((2..=3).contains(&route.hops.len()));
            route.validate().expect("generated routes are well-formed");
        }
        for op in &stream {
            if let QuoteOp::Swap { amount_in, .. } = op {
                assert!((1_000..120_000).contains(amount_in));
            }
        }
    }

    #[test]
    fn the_stream_depends_on_the_seed_only() {
        let pools: Vec<PoolId> = (0..3).map(PoolId).collect();
        let amounts = |seed| -> Vec<u128> {
            quote_stream(seed, &pools, 32)
                .iter()
                .map(|op| match op {
                    QuoteOp::Swap { amount_in, .. } => *amount_in,
                    QuoteOp::Route(r) => r.amount_in,
                })
                .collect()
        };
        assert_eq!(amounts(7), amounts(7));
        assert_ne!(amounts(7), amounts(8));
    }
}
