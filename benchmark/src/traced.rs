//! The traced run: per-layer metrics from the replica driver, checked
//! against the untraced `System::run` of the same configuration.
//!
//! Each pair runs `System::run` untraced and the replica traced. The
//! per-layer budget is the fastest replica run's; the residual and the
//! overhead compare it with the fastest untraced run.

use crate::driver::{Replica, ReplicaReport};
use crate::e2e::{fast_sync, quote_stream, serve_stream};
use crate::json::Metric;
use crate::span;
use crate::stats::{min, quantile};
use crate::trace::{busy_ms_by_name, leaf_coverage, Tracer};
use crate::workloads::Workload;
use ammboost_core::{checkpoint_node, ExecMode, QuoteView, System};
use ammboost_crypto::H256;
use ammboost_state::{Checkpointer, Snapshot};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Fewest untraced/traced pairs, however long one takes.
const MIN_PAIRS: usize = 2;
/// Individually timed quotes behind the latency percentiles.
const TIMED_QUOTES: usize = 100_000;

/// Span names whose busy time is a per-layer `*_ms` metric, with the
/// metric's name. Everything else the trace holds is `core.system.*`
/// loop structure.
const LAYER_SPANS: [(&str, &str); 24] = [
    ("workload.generate", "workload.generate_ms"),
    ("consensus.election", "consensus.election_ms"),
    ("core.shard.begin_epoch", "core.shard.begin_epoch_ms"),
    ("core.shard.execute", "core.shard.execute_ms"),
    ("core.shard.end_epoch", "core.shard.end_epoch_ms"),
    ("core.view.publish", "core.view.publish_ms"),
    ("core.view.inrun_quotes", "core.view.inrun_quotes_ms"),
    ("sidechain.append_meta", "sidechain.append_meta_ms"),
    ("sidechain.summary", "sidechain.summary_ms"),
    ("sidechain.prune", "sidechain.prune_ms"),
    ("crypto.tsqc_sign", "crypto.tsqc_sign_ms"),
    ("crypto.tsqc_assemble", "crypto.tsqc_assemble_ms"),
    ("crypto.dkg", "crypto.dkg_ms"),
    ("mainchain.deposits", "mainchain.deposits_ms"),
    (
        "mainchain.snapshot_deposits",
        "mainchain.snapshot_deposits_ms",
    ),
    ("mainchain.abi_encode", "mainchain.abi_encode_ms"),
    ("mainchain.bank_sync", "mainchain.bank_sync_ms"),
    ("mainchain.relock", "mainchain.relock_ms"),
    ("mainchain.chain", "mainchain.chain_ms"),
    ("state.stage", "state.stage_ms"),
    ("state.commit", "state.commit_ms"),
    ("state.retention_prune", "state.retention_prune_ms"),
    ("post.encode", "state.encode_ms"),
    ("post.restore", "state.restore_ms"),
];

/// Whether `metric` is the busy time of a layer inside `System::run`
/// (not of a post-run probe), so that it is part of the run's budget.
pub fn in_run_layer(metric: &str) -> bool {
    LAYER_SPANS
        .iter()
        .any(|(span_name, name)| *name == metric && !span_name.starts_with("post."))
}

/// Counts reported as they are, with their unit.
const COUNTS: [(&str, &str); 14] = [
    ("workload.txs", "count"),
    ("consensus.tickets", "count"),
    ("core.shard.txs", "count"),
    ("core.shard.rejected", "count"),
    ("core.shard.route_legs", "count"),
    ("core.view.pools_recloned", "count"),
    ("core.view.pools_reused", "count"),
    ("sidechain.summary_bytes_max", "B"),
    ("sidechain.meta_bytes", "B"),
    ("crypto.tsqc_payload_bytes", "B"),
    ("mainchain.sync_bytes", "B"),
    ("mainchain.sync_gas", "gas"),
    ("state.pages_total", "count"),
    ("state.pages_dirty", "count"),
];

/// One traced replica run, reduced to its metrics.
struct TracedRun {
    wall_ms: f64,
    /// Busy time of every layer inside the run, summed.
    layer_ms: f64,
    coverage: f64,
    ended_with: Agreement,
    /// Every per-layer metric that needs no untraced run to compare with.
    metrics: Vec<Metric>,
    tracer: Tracer,
}

/// `state.checkpoint_sparse_ms`: restore the end-of-run snapshot, prime a
/// checkpointer on it, execute one more generated round on the restored
/// node and time the checkpoint that follows — the cost of checkpointing
/// fat state of which one round's worth is dirty.
fn sparse_checkpoint_ms(replica: &mut Replica, snapshot: &Snapshot, round: u64) -> f64 {
    let mut node = ammboost_core::restore_node(snapshot).expect("own snapshot restores");
    let mut checkpointer = Checkpointer::new();
    checkpoint_node(
        &mut checkpointer,
        node.epoch,
        &mut node.shards,
        &node.ledger,
    );

    let (generator, bank, next_epoch) = replica.next_round_inputs();
    let deposits = bank.snapshot_deposits(next_epoch);
    node.shards
        .begin_epoch(deposits, |user| generator.pool_for(user));
    let batch = generator.next_round(round);
    let txs: Vec<_> = batch.iter().map(|g| (&g.tx, g.wire_size)).collect();
    let executed = node.shards.execute_batch(&txs, round, ExecMode::default());
    black_box(&executed);
    node.shards.end_epoch();

    let timed = Instant::now();
    let output = checkpoint_node(
        &mut checkpointer,
        node.epoch + 1,
        &mut node.shards,
        &node.ledger,
    );
    let ms = timed.elapsed().as_secs_f64() * 1e3;
    black_box(output.stats.root);
    ms
}

/// Per-quote latency percentiles over the post-run stream, in ns.
fn quote_latency_ns(view: &QuoteView, seed: u64) -> (f64, f64) {
    let stream = quote_stream(seed, view.pool_ids(), TIMED_QUOTES);
    let mut ns = Vec::with_capacity(stream.len());
    for op in &stream {
        let t = Instant::now();
        black_box(serve_stream(view, std::slice::from_ref(op)));
        ns.push(t.elapsed().as_nanos() as f64);
    }
    (quantile(&ns, 0.5), quantile(&ns, 0.999))
}

/// What an untraced `System::run` and the replica must agree on: the
/// run's counts, gas and bytes, and the end state's root.
type Agreement = (ReplicaReport, H256);

/// One untraced `System::run`: its wall in ms and what it ended with.
fn untraced_run(workload: &Workload, seed: u64) -> (f64, Agreement) {
    let cfg = workload.config(seed);
    let mut sys = System::new(cfg.clone());
    let timed = Instant::now();
    let report = sys.run();
    let wall_ms = timed.elapsed().as_secs_f64() * 1e3;
    let root = sys.checkpoint(cfg.epochs + 1).root;
    let ended_with = ReplicaReport {
        submitted: report.submitted,
        accepted: report.accepted,
        rejected: report.rejected,
        leftover_queue: report.leftover_queue,
        mainchain_gas: report.mainchain_gas,
        sidechain_bytes: report.sidechain_bytes,
    };
    (wall_ms, (ended_with, root))
}

fn traced_run(workload: &Workload, seed: u64, problems: &mut Vec<String>) -> TracedRun {
    let cfg = workload.config(seed);
    let mut replica = Replica::new(cfg.clone());
    let report = replica.run();
    let snapshot = replica.checkpoint(cfg.epochs + 1).snapshot;
    let ended_with = (report, snapshot.root());
    let (quote_ns_p50, quote_ns_p999) = quote_latency_ns(replica.quote_view(), seed);

    let wire = span!(replica.tr, "post.encode", snapshot.encode());
    let restored = span!(replica.tr, "post.restore", fast_sync(&wire));
    if restored.map(|node| node.root) != Ok(snapshot.root()) {
        problems.push("replica snapshot does not restore to its own root".to_string());
    }
    let round = cfg.epochs * cfg.rounds_per_epoch;
    let sparse_ms = sparse_checkpoint_ms(&mut replica, &snapshot, round);

    // span 0 is the run's root; the post-run probes sit beside it
    let tr = replica.tr;
    let wall_ms = tr.spans()[0].duration_ns() as f64 / 1e6;
    let busy = busy_ms_by_name(tr.spans());

    let m = |name, unit, value| Metric { name, unit, value };
    let busy_ms = |span_name: &str| busy.get(span_name).copied().unwrap_or(0.0);
    let mut metrics = Vec::new();
    let mut layer_ms = 0.0;
    for (span_name, metric) in LAYER_SPANS {
        metrics.push(m(metric, "ms", busy_ms(span_name)));
        if in_run_layer(metric) {
            layer_ms += busy_ms(span_name);
        }
    }
    for (name, unit) in COUNTS {
        metrics.push(m(name, unit, tr.get_count(name) as f64));
    }
    let txs = tr.get_count("core.shard.txs").max(1) as f64;
    let head_share = tr.get_count("core.shard.head_pool_txs") as f64 / txs;
    let exec_ns_per_tx = busy_ms("core.shard.execute") * 1e6 / txs;
    metrics.push(m("core.shard.max_pool_share", "ratio", head_share));
    metrics.push(m("amm.exec_ns_per_tx", "ns", exec_ns_per_tx));
    metrics.push(m("core.view.quote_ns_p50", "ns", quote_ns_p50));
    metrics.push(m("core.view.quote_ns_p99.9", "ns", quote_ns_p999));
    metrics.push(m("state.checkpoint_sparse_ms", "ms", sparse_ms));
    TracedRun {
        wall_ms,
        layer_ms,
        coverage: leaf_coverage(tr.spans()),
        ended_with,
        metrics,
        tracer: tr,
    }
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that failed; the run is correct when there are none.
    pub problems: Vec<String>,
    /// Readings worth a second look that do not make the run incorrect.
    pub notes: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Wall of the fastest untraced `System::run`, ms.
    pub untraced_wall_ms: f64,
    /// Wall of the fastest replica run, ms.
    pub replica_wall_ms: f64,
    pub pairs: usize,
    /// The fastest replica run's spans and counts, as JSON-lines.
    pub trace_jsonl: String,
}

/// Runs untraced/traced pairs of `workload` for at least `seconds` (and
/// at least [`MIN_PAIRS`] pairs).
pub fn run(workload: &Workload, seed: u64, seconds: u64) -> Outcome {
    let budget = Duration::from_secs(seconds);
    let started = Instant::now();
    let mut problems = Vec::new();
    let mut untraced_ms = Vec::new();
    let mut runs: Vec<TracedRun> = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;
    while runs.len() < MIN_PAIRS || started.elapsed() < budget {
        // whichever runs second finds the allocator warm, so the order
        // alternates from pair to pair
        let (traced, (wall_ms, expected)) = if runs.len() % 2 == 0 {
            let untraced = untraced_run(workload, seed);
            (traced_run(workload, seed, &mut problems), untraced)
        } else {
            let traced = traced_run(workload, seed, &mut problems);
            (traced, untraced_run(workload, seed))
        };
        if traced.ended_with != expected {
            problems.push(format!(
                "replica diverged from System::run: {:?}, expected {expected:?}",
                traced.ended_with
            ));
        }
        (attempted, failed) = (expected.0.submitted, expected.0.leftover_queue);
        untraced_ms.push(wall_ms);
        runs.push(traced);
    }

    // Interference only ever slows a run down, so the budget is read
    // from the fastest replica run — one consistent set of spans, whose
    // layer times add up — against the fastest untraced run.
    let untraced_wall_ms = min(&untraced_ms);
    let pairs = runs.len();
    let fastest = runs
        .into_iter()
        .min_by(|a, b| a.wall_ms.total_cmp(&b.wall_ms))
        .expect("at least one pair");

    // the post-run probes are not part of `System::run`, so the residual
    // is taken against the in-run layers only
    let residual_ms = untraced_wall_ms - fastest.layer_ms;
    let coverage = fastest.coverage;
    let overhead_pct = (fastest.wall_ms / untraced_wall_ms - 1.0) * 100.0;
    let m = |name, unit, value| Metric { name, unit, value };
    let mut metrics = fastest.metrics;
    metrics.push(m("core.system.residual_ms", "ms", residual_ms));
    metrics.push(m("trace.coverage", "ratio", coverage));
    metrics.push(m("trace.overhead_pct", "%", overhead_pct));

    if coverage < 0.90 {
        problems.push(format!("trace.coverage {coverage:.3} is below 0.90"));
    }
    // The residual and the overhead compare two separately timed runs, so
    // they carry the host's run-to-run noise (±10 % of the wall was seen
    // on a shared host). They are reported, not enforced: what keeps the
    // replica honest is the exact agreement checked above.
    let mut notes = Vec::new();
    if !(0.0..=0.20 * untraced_wall_ms).contains(&residual_ms) {
        notes.push(format!(
            "core.system.residual_ms {residual_ms:.1} is outside 0..20 % of the untraced \
             wall {untraced_wall_ms:.1} ms; on a quiet host that means the replica no longer \
             mirrors the node, on a noisy one run it again"
        ));
    }

    Outcome {
        attempted,
        failed,
        problems,
        notes,
        metrics,
        untraced_wall_ms,
        replica_wall_ms: fastest.wall_ms,
        pairs,
        trace_jsonl: fastest.tracer.to_json_lines(),
    }
}
