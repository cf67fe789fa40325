//! CI smoke drill for the `ammboost-state` subsystem, multi-pool
//! edition: run a **sharded** system (default: 8 pools under
//! Zipf-skewed traffic), **checkpoint** all shards into one
//! Merkle-committed snapshot, **prune** the raw history the snapshot
//! covers, **restore** a fresh node from the serialized snapshot, and
//! **re-verify** the state root plus byte-identical per-shard state.
//! Exits non-zero on any divergence.
//!
//! `--routed` turns a share of the swap traffic into multi-hop
//! cross-pool routes, drilling the two-phase epoch (hop waves + netting
//! barrier) through the same checkpoint → prune → restore → re-verify
//! cycle.
//!
//! `--quotes` adds the concurrent read-path drill: reader threads hammer
//! the sealed epoch-0 [`QuoteView`] **while** the epochs execute on the
//! live shards, every answer is recorded, and after the run each one is
//! re-verified bit-for-bit against the frozen view bytes (a reader that
//! ever saw a partially-executed epoch would diverge here). A second
//! hammer round runs against the final sealed view and is re-verified
//! against the post-epoch restored snapshot.
//!
//! `--delta` appends the delta-chain drill: after the full cycle, a run
//! of synthetic single-shard epochs journals only page-granular
//! [`ammboost_state::DeltaSnapshot`]s into a [`CheckpointStore`], the
//! chain compacts at its threshold, and the folded tip must restore
//! byte-identical to the live node.
//!
//! Usage: `state_drill [--seed N] [--pools N] [--uniform] [--routed] [--quotes] [--delta]`
//! (anything else — unknown flag, missing or unparsable value — prints
//! the usage line and exits 2: CI must never run a drill other than the
//! one its step names).

use ammboost_amm::engines::Engine;
use ammboost_amm::pool::{SwapKind, SwapResult};
use ammboost_amm::types::PoolId;
use ammboost_core::checkpoint::{checkpoint_node, restore_node};
use ammboost_core::config::{SnapshotPolicy, SystemConfig};
use ammboost_core::system::System;
use ammboost_core::view::{QuoteError, QuoteView};
use ammboost_sim::DetRng;
use ammboost_state::{prune_to_snapshot, CheckpointStore, Checkpointer, RetentionPolicy, Snapshot};
use ammboost_workload::{QuoteStyle, RouteStyle, TrafficSkew};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

/// One answered read-path query: the request plus the answer the reader
/// thread got from the sealed view, kept for post-run re-verification.
type AnsweredQuote = (PoolId, bool, u128, Result<SwapResult, QuoteError>);

/// Number of concurrent reader threads per hammer round.
const READER_THREADS: usize = 4;

/// Per-reader answer cap: bounds re-verification cost while leaving the
/// readers running long enough to overlap many executed rounds.
const READER_CAP: usize = 20_000;

/// Hammers `view` from [`READER_THREADS`] threads until `stop` is set
/// (or every thread hits its cap), recording every answer. Quotes draw
/// from per-thread deterministic RNG streams, so the drill is exactly
/// reproducible for a given seed. Every reader answers one quote and
/// then waits on `running`; a writer that waits on it too starts only
/// once all readers are mid-stream — a three-epoch run lasts a few
/// milliseconds, less than it can take a reader thread to start.
fn hammer_view(
    view: &Arc<QuoteView>,
    seed: u64,
    stop: &AtomicBool,
    running: &Barrier,
) -> Vec<AnsweredQuote> {
    std::thread::scope(|s| {
        let readers: Vec<_> = (0..READER_THREADS)
            .map(|t| {
                let view = Arc::clone(view);
                s.spawn(move || {
                    let mut rng =
                        DetRng::new(seed ^ (t as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                    let ids = view.pool_ids().to_vec();
                    let mut out: Vec<AnsweredQuote> = Vec::new();
                    while !stop.load(Ordering::Relaxed) && out.len() < READER_CAP {
                        let pool = ids[rng.range_u64(0, ids.len() as u64) as usize];
                        let dir = rng.unit() < 0.5;
                        let amount = rng.range_u128(1_000, 2_000_000);
                        let res = view.quote_swap(pool, dir, SwapKind::ExactInput(amount), None);
                        out.push((pool, dir, amount, res));
                        if out.len() == 1 {
                            running.wait();
                        }
                    }
                    out
                })
            })
            .collect();
        readers
            .into_iter()
            .flat_map(|r| r.join().expect("reader thread panicked"))
            .collect()
    })
}

/// Re-verifies every answered quote against `reference` pools (frozen
/// view bytes or a restored snapshot): recomputing the quote there must
/// reproduce the recorded answer bit for bit.
fn reverify(answers: &[AnsweredQuote], reference: impl Fn(PoolId) -> Engine) -> usize {
    let mut pools: std::collections::HashMap<PoolId, Engine> = std::collections::HashMap::new();
    for (pool, dir, amount, recorded) in answers {
        let p = pools.entry(*pool).or_insert_with(|| reference(*pool));
        let again = p
            .quote_swap(*dir, SwapKind::ExactInput(*amount), None)
            .map_err(QuoteError::from);
        assert_eq!(
            recorded, &again,
            "answered quote diverges from reference state \
             (pool {pool:?}, zero_for_one {dir}, amount {amount})"
        );
    }
    answers.len()
}

const USAGE: &str =
    "usage: state_drill [--seed N] [--pools N] [--uniform] [--routed] [--quotes] [--delta]";

#[derive(Debug)]
struct Options {
    seed: u64,
    pools: u32,
    uniform: bool,
    routed: bool,
    quotes: bool,
    delta: bool,
}

fn flag_value<T: std::str::FromStr>(flag: &str, raw: Option<&String>) -> Result<T, String> {
    let raw = raw.ok_or_else(|| format!("{flag} needs a value"))?;
    raw.parse()
        .map_err(|_| format!("{flag}: cannot parse {raw:?}"))
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        seed: 7,
        pools: 8,
        uniform: false,
        routed: false,
        quotes: false,
        delta: false,
    };
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        match flag.as_str() {
            "--seed" => opts.seed = flag_value(flag, rest.next())?,
            "--pools" => opts.pools = flag_value(flag, rest.next())?,
            "--uniform" => opts.uniform = true,
            "--routed" => opts.routed = true,
            "--quotes" => opts.quotes = true,
            "--delta" => opts.delta = true,
            unknown => return Err(format!("unknown argument: {unknown}")),
        }
    }
    if opts.pools < if opts.routed { 2 } else { 1 } {
        return Err(format!("--pools {}: too few pools", opts.pools));
    }
    Ok(opts)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Options {
        seed,
        pools,
        uniform,
        routed,
        quotes,
        delta,
    } = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("{e}");
        eprintln!("{USAGE}");
        std::process::exit(2);
    });

    ammboost_bench::header("State drill: checkpoint → prune → restore → verify");
    ammboost_bench::line("config/pools", pools);
    ammboost_bench::line("config/skew", if uniform { "uniform" } else { "zipf(1.0)" });
    ammboost_bench::line("config/routed", routed);
    ammboost_bench::line("config/quotes", quotes);
    ammboost_bench::line("config/delta", delta);

    let mut cfg = SystemConfig::small_test();
    cfg.seed = seed;
    cfg.pools = pools;
    cfg.users = cfg.users.max(2 * pools as u64);
    cfg.traffic_skew = if uniform {
        TrafficSkew::Uniform
    } else {
        TrafficSkew::Zipf { exponent: 1.0 }
    };
    if routed {
        cfg.route_style = RouteStyle::routed(0.35, 4);
    }
    if quotes {
        // also exercise the system's own in-run quote serving
        cfg.quote_style = QuoteStyle::per_tx(1.0);
    }
    // checkpoint every epoch but keep all raw history during the run
    // (both pruning paths off) so the drill's explicit prune phase below
    // demonstrates real reclamation
    cfg.disable_pruning = true;
    cfg.snapshot = SnapshotPolicy {
        interval_epochs: 1,
        keep_epochs: u64::MAX,
    };
    let seed = cfg.seed;
    let mut sys = System::new(cfg);

    // -- run, with reader threads hammering the sealed genesis view -------
    // The readers hold the epoch-0 view while every epoch executes on the
    // live shards: any write-path leakage into a published view would be
    // caught by the re-verification below.
    let genesis = sys.quote_view().expect("genesis view published");
    let frozen_genesis: Vec<_> = genesis
        .pool_ids()
        .iter()
        .map(|&id| (id, genesis.pool(id).expect("covered").export_state()))
        .collect();
    let stop = AtomicBool::new(false);
    let (report, answered) = if quotes {
        let running = Barrier::new(READER_THREADS + 1);
        std::thread::scope(|s| {
            let reader = s.spawn(|| hammer_view(&genesis, seed, &stop, &running));
            running.wait();
            let report = sys.run();
            stop.store(true, Ordering::Relaxed);
            (report, reader.join().expect("hammer scope panicked"))
        })
    } else {
        (sys.run(), Vec::new())
    };
    if quotes {
        // every answer served during execution matches the frozen
        // epoch-0 bytes: no reader observed a partially-executed epoch
        let n = reverify(&answered, |id| {
            let state = frozen_genesis
                .iter()
                .find(|(fid, _)| *fid == id)
                .map(|(_, s)| s.clone())
                .expect("covered pool");
            Engine::from_state(state).expect("frozen bytes restore")
        });
        assert!(n > 0, "quote drill answered nothing");
        ammboost_bench::line("quotes/concurrent_answered", n);
        ammboost_bench::line("quotes/served_in_run", report.quotes_served);
        ammboost_bench::line("quotes/view_publications", report.view_publications);
        ammboost_bench::line("quotes/view_pools_reused", report.view_pools_reused);
        ammboost_bench::line("quotes/view_pools_recloned", report.view_pools_recloned);
        assert!(report.quotes_served > 0, "in-run quote serving was idle");
    }
    ammboost_bench::line("run/accepted_txs", report.accepted);
    ammboost_bench::line("run/snapshots_taken", report.snapshots_taken);
    assert!(report.accepted > 0, "no traffic processed");
    assert!(
        report.snapshots_taken >= 3,
        "policy produced no checkpoints"
    );
    if routed {
        ammboost_bench::line("run/routes_accepted", report.routes_accepted);
        ammboost_bench::line("run/route_legs", report.route_legs_executed);
        assert!(report.routes_accepted > 0, "routed drill saw no routes");
        assert!(
            report.route_legs_executed >= 2 * report.routes_accepted,
            "every route has at least two legs"
        );
    }

    // -- checkpoint: a final snapshot covering the drain epoch ------------
    let epoch = report.epochs + 1;
    let stats = sys.checkpoint(epoch);
    assert_eq!(
        stats.pools_total, pools as usize,
        "snapshot must cover every shard"
    );
    ammboost_bench::line(
        "checkpoint/bytes",
        ammboost_bench::fmt_bytes(stats.snapshot_bytes),
    );
    ammboost_bench::line("checkpoint/pools", stats.pools_total);
    ammboost_bench::line("checkpoint/root", stats.root);
    let wire = sys.last_snapshot().expect("checkpoint taken").encode();

    // -- restore: decode (root-verified) and rebuild a working node -------
    let decoded = Snapshot::decode(&wire).expect("snapshot root verifies");
    let mut node = restore_node(&decoded).expect("snapshot restores");
    assert_eq!(node.root, stats.root, "restored root diverges");
    assert_eq!(node.shards.len(), pools as usize, "shard count diverges");
    assert_eq!(
        node.shards.export_states(),
        sys.shards().export_states(),
        "restored shards diverge"
    );
    assert_eq!(
        node.ledger.export_state(),
        sys.ledger().export_state(),
        "restored ledger diverges"
    );
    ammboost_bench::line("restore/state", "byte-identical across all shards");

    // -- quote drill round 2: final sealed view vs post-epoch snapshot ----
    // Hammer the last published view, then re-verify every answer against
    // the pools restored from the serialized snapshot: the sealed view and
    // the post-epoch snapshot must answer identically, bit for bit.
    if quotes {
        let final_view = sys.quote_view().expect("final view published");
        assert_eq!(final_view.pool_count(), pools as usize);
        let stop = AtomicBool::new(false); // bounded round: readers run to their cap
        let answered = hammer_view(
            &final_view,
            seed ^ 0x0F1E_2D3C_4B5A_6978,
            &stop,
            &Barrier::new(READER_THREADS),
        );
        let n = reverify(&answered, |id| {
            Engine::from_state(
                node.shards
                    .get(id)
                    .expect("restored shard")
                    .pool()
                    .export_state(),
            )
            .expect("snapshot bytes restore")
        });
        assert!(n > 0, "final-view quote drill answered nothing");
        ammboost_bench::line("quotes/final_view_reverified", n);
    }

    // -- prune: drop the raw history the snapshot covers ------------------
    let before = node.ledger.size_bytes();
    let pruned = prune_to_snapshot(&mut node.ledger, epoch, RetentionPolicy::default());
    assert!(
        pruned.epochs_pruned > 0,
        "nothing to prune — drill is vacuous"
    );
    assert!(pruned.reclaimed_bytes > 0, "pruning reclaimed nothing");
    ammboost_bench::line("prune/epochs", pruned.epochs_pruned);
    ammboost_bench::line(
        "prune/reclaimed",
        ammboost_bench::fmt_bytes(pruned.reclaimed_bytes),
    );
    assert_eq!(
        node.ledger.size_bytes(),
        before - pruned.reclaimed_bytes,
        "ledger accounting broken"
    );

    // -- re-verify: the pruned node still checkpoints and restores --------
    let out2 = checkpoint_node(
        &mut Checkpointer::new(),
        epoch,
        &mut node.shards,
        &node.ledger,
    );
    let (snap2, stats2) = (out2.snapshot, out2.stats);
    let node2 = restore_node(&Snapshot::decode(&snap2.encode()).expect("root verifies"))
        .expect("post-prune snapshot restores");
    assert_eq!(node2.root, stats2.root);
    assert_eq!(
        node2.shards.export_states(),
        node.shards.export_states(),
        "post-prune restore diverges"
    );
    ammboost_bench::line("reverify/root", stats2.root);

    // -- delta mode: checkpoint → delta chain → compact → restore ---------
    // Each synthetic epoch touches exactly one shard, checkpoints, and
    // journals only the page-granular delta. The chain compacts at the
    // threshold; the folded tip must restore byte-identical to the node
    // that was checkpointed.
    if delta {
        let mut cp = Checkpointer::new();
        let mut store = CheckpointStore::with_compaction_threshold(3);
        let base = checkpoint_node(&mut cp, epoch + 1, &mut node.shards, &node.ledger);
        store
            .commit(&base.snapshot, None)
            .expect("base full snapshot commits");

        let rounds = 7u64;
        let mut delta_bytes = 0u64;
        let mut full_bytes = 0u64;
        let mut last_root = base.stats.root;
        for i in 0..rounds {
            // touch one shard: a fresh LP range marks exactly that pool
            // dirty, so the delta stays sparse
            let p = PoolId((i % pools as u64) as u32);
            node.shards.seed_liquidity(
                p,
                ammboost_crypto::Address::from_index(1_000 + i),
                -60_000,
                60_000,
                10u128.pow(10) + i as u128,
                10u128.pow(10) + i as u128,
            );
            let out = checkpoint_node(&mut cp, epoch + 2 + i, &mut node.shards, &node.ledger);
            let d = out
                .delta
                .expect("every checkpoint after the base emits a delta");
            delta_bytes += d.encoded_len() as u64;
            full_bytes += out.stats.snapshot_bytes;
            store.commit_delta(&d, None).expect("delta journals");
            last_root = out.stats.root;
        }
        assert!(
            store.compactions() > 0,
            "chain never compacted at threshold 3 over {rounds} deltas"
        );
        let folded = store.latest().expect("folded tip decodes");
        assert_eq!(folded.root(), last_root, "folded tip root diverges");
        let delta_node = restore_node(&folded).expect("folded tip restores");
        assert_eq!(
            delta_node.shards.export_states(),
            node.shards.export_states(),
            "delta-chain restore diverges from the live node"
        );
        // the chain is recoverable from its persisted journal too
        let rec = store.recover();
        assert_eq!(rec, ammboost_state::RecoveryOutcome::Clean);
        ammboost_bench::line("delta/chained", rounds);
        ammboost_bench::line("delta/compactions", store.compactions());
        ammboost_bench::line("delta/bytes", ammboost_bench::fmt_bytes(delta_bytes));
        ammboost_bench::line("delta/full_bytes", ammboost_bench::fmt_bytes(full_bytes));
        ammboost_bench::line(
            "delta/shrink",
            format!("{:.1}x", full_bytes as f64 / delta_bytes.max(1) as f64),
        );
        assert!(
            delta_bytes < full_bytes,
            "deltas must undercut full snapshots on sparse epochs"
        );
    }

    println!();
    println!(
        "state drill PASS ({pools} pools{}{}{})",
        if routed { ", routed traffic" } else { "" },
        if quotes { ", concurrent quotes" } else { "" },
        if delta { ", delta chain" } else { "" }
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parser_accepts_the_ci_invocations_and_nothing_else() {
        let defaults = parse(&[]).unwrap();
        assert_eq!((defaults.seed, defaults.pools), (7, 8));
        let full = parse(&["--pools", "8", "--routed", "--quotes", "--seed", "9"]).unwrap();
        assert_eq!((full.seed, full.pools), (9, 8));
        assert!(full.routed && full.quotes && !full.delta && !full.uniform);
        assert!(parse(&["--delta", "--uniform"]).unwrap().delta);
        // a typo must not fall back to the default drill
        assert!(parse(&["--pool", "1"]).unwrap_err().contains("--pool"));
        assert!(parse(&["--pools", "x"]).unwrap_err().contains("\"x\""));
        assert!(parse(&["--pools"]).unwrap_err().contains("needs a value"));
        assert!(parse(&["--pools", "-1"]).is_err());
        assert!(parse(&["1"]).is_err());
        assert!(parse(&["--pools", "0"]).is_err());
        assert!(parse(&["--pools", "1", "--routed"]).is_err());
    }
}
