//! CI chaos drill: a seeded schedule of storage/sync faults against the
//! checkpoints of a full workload, asserting that every fault is
//! **detected** (corruption never silently restores), **recovered** (a
//! torn commit falls back to the last committed state or rolls the
//! marked write forward) or **healed** (a single honest provider heals
//! every quarantined page). Exits non-zero on any divergence.
//!
//! The schedule exercises all six fault kinds:
//!
//! 1. **bit-flip / truncation / duplication** of the snapshot wire form —
//!    `Snapshot::decode` must reject every mutation (never silently
//!    restore).
//! 2. **mid-checkpoint crash** — `CheckpointStore` commits torn at every
//!    crash point recover to the last committed snapshot (or roll the
//!    marked write forward), never to a torn state.
//! 3. **provider drop / stale root / delay** — self-healing restore
//!    against one dishonest provider and one honest provider quarantines
//!    every bad page and heals it within the retry budget.
//! 4. **delta-chain faults** — mid-delta-commit crashes recover to the
//!    chain tip (discard torn, roll forward marked), corrupted delta
//!    wire bytes never decode, a delta against the wrong base is
//!    refused, and page-granular delta sync from a stale snapshot heals
//!    a tampered page off the honest provider.
//!
//! Usage: `chaos_drill [--seed N] [--pools N]` (anything else — unknown
//! flag, missing or unparsable value — prints the usage line and exits 2).

use ammboost_core::config::{SnapshotPolicy, SystemConfig};
use ammboost_core::system::System;
use ammboost_sim::{FaultInjector, FaultKind, FaultSpec, InjectionPoint};
use ammboost_state::heal::{
    delta_sync, fetch_manifest, heal_restore, RetryPolicy, SectionProvider, SimProvider,
};
use ammboost_state::pages::page_count;
use ammboost_state::store::{CheckpointStore, CrashPoint, RecoveryOutcome, StoreError};
use ammboost_state::{DeltaSnapshot, Snapshot, PAGE_SIZE};
use std::sync::{Arc, Mutex};

/// Builds the drill's system config: `small_test` sized, checkpoints
/// every epoch, traffic across `pools` pools running a *heterogeneous*
/// engine fleet (CL, CL, constant-product, weighted, repeating) — every
/// fault in the schedule has to detect/heal engine-tagged sections of
/// all three kinds.
fn drill_config(seed: u64, pools: u32, epochs: u64) -> SystemConfig {
    let mut cfg = SystemConfig::small_test();
    cfg.seed = seed;
    cfg.pools = pools;
    cfg.users = cfg.users.max(2 * pools as u64);
    cfg.epochs = epochs;
    cfg.engine_mix = ammboost_workload::EngineMix::of(2, 1, 1);
    cfg.snapshot = SnapshotPolicy {
        interval_epochs: 1,
        keep_epochs: u64::MAX,
    };
    cfg
}

/// Runs a system to completion and returns it with its report.
fn run_system(cfg: SystemConfig) -> (System, ammboost_core::system::SystemReport) {
    let mut sys = System::new(cfg);
    let report = sys.run();
    (sys, report)
}

const USAGE: &str = "usage: chaos_drill [--seed N] [--pools N]";

/// `(seed, pools)` from the command line; defaults 7 and 4.
fn parse_args(args: &[String]) -> Result<(u64, u32), String> {
    fn value<T: std::str::FromStr>(flag: &str, raw: Option<&String>) -> Result<T, String> {
        let raw = raw.ok_or_else(|| format!("{flag} needs a value"))?;
        raw.parse()
            .map_err(|_| format!("{flag}: cannot parse {raw:?}"))
    }
    let (mut seed, mut pools) = (7u64, 4u32);
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        match flag.as_str() {
            "--seed" => seed = value(flag, rest.next())?,
            "--pools" => pools = value(flag, rest.next())?,
            unknown => return Err(format!("unknown argument: {unknown}")),
        }
    }
    if pools < 2 {
        return Err(format!(
            "--pools {pools}: the drill needs at least two pools"
        ));
    }
    Ok((seed, pools))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (seed, pools) = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("{e}");
        eprintln!("{USAGE}");
        std::process::exit(2);
    });
    let epochs = 6u64;

    ammboost_bench::header("Chaos drill: fault schedule vs clean run");
    ammboost_bench::line("config/seed", seed);
    ammboost_bench::line("config/pools", pools);
    ammboost_bench::line("config/epochs", epochs);

    // -- clean reference run ---------------------------------------------
    let (mut clean_sys, clean_report) = run_system(drill_config(seed, pools, epochs));
    assert!(clean_report.accepted > 0, "clean run processed no traffic");
    let label_epoch = clean_report.epochs + 1;
    let clean_stats = clean_sys.checkpoint(label_epoch);
    let clean_snapshot = clean_sys.last_snapshot().expect("checkpoint taken").clone();
    ammboost_bench::line("clean/accepted_txs", clean_report.accepted);
    ammboost_bench::line("clean/root", clean_stats.root);

    // -- fault 1: wire corruption is always detected ----------------------
    let wire = clean_snapshot.encode();
    let mut injector = FaultInjector::new(seed);
    for kind in [
        FaultKind::BitFlip,
        FaultKind::Truncate,
        FaultKind::Duplicate,
    ] {
        let mut mutated = wire.clone();
        assert!(injector.mutate(kind, &mut mutated), "mutation was a no-op");
        assert!(
            Snapshot::decode(&mutated).is_err(),
            "{} of the wire form was silently restored",
            kind.name()
        );
    }
    ammboost_bench::line("corruption/detected", "bit-flip, truncate, duplicate");

    // -- fault 2: mid-checkpoint crash recovers to last committed ---------
    let later_snapshot = Snapshot::seal(
        clean_snapshot.epoch() + 1,
        clean_snapshot.sections().to_vec(),
    )
    .expect("a snapshot's own sections reseal");
    let mut store = CheckpointStore::new();
    store
        .commit(&clean_snapshot, None)
        .expect("clean commit succeeds");
    let torn_len = later_snapshot.encode().len();
    for crash in [
        CrashPoint::DuringStage { offset: 0 },
        CrashPoint::DuringStage {
            offset: torn_len / 2,
        },
        CrashPoint::DuringStage {
            offset: torn_len - 1,
        },
        CrashPoint::BeforeMark,
    ] {
        let err = store.commit(&later_snapshot, Some(crash)).unwrap_err();
        assert!(matches!(err, StoreError::SimulatedCrash(_)));
        assert!(store.is_torn(), "crash left no staged residue");
        let outcome = store.recover();
        assert!(
            matches!(outcome, RecoveryOutcome::DiscardedTorn { .. }),
            "torn write must be discarded, got {outcome:?}"
        );
        let latest = store.latest().expect("previous commit still readable");
        assert_eq!(
            latest.root(),
            clean_snapshot.root(),
            "recovery lost the last committed snapshot ({crash:?})"
        );
    }
    // staged + marked but not installed: recovery rolls forward
    store
        .commit(&later_snapshot, Some(CrashPoint::BeforeInstall))
        .unwrap_err();
    let outcome = store.recover();
    assert_eq!(
        outcome,
        RecoveryOutcome::RolledForward {
            epoch: later_snapshot.epoch()
        },
        "marked complete write must roll forward"
    );
    assert_eq!(
        store.latest().expect("rolled forward").root(),
        later_snapshot.root()
    );
    ammboost_bench::line("crash/recoveries", store.recoveries());
    ammboost_bench::line("crash/commits", store.commits());

    // -- fault 3: self-healing restore with one dishonest provider --------
    // A stale prefix run (same seed, one epoch short) gives the dishonest
    // provider genuinely outdated pages to serve.
    let (mut stale_sys, stale_report) = run_system(drill_config(seed, pools, epochs - 1));
    let stale_stats = stale_sys.checkpoint(stale_report.epochs + 1);
    assert_ne!(
        stale_stats.root, clean_stats.root,
        "stale prefix run must diverge from the full run"
    );
    let stale_snapshot = stale_sys.last_snapshot().expect("checkpoint taken").clone();
    // sections 0..pools are the pool sections; the scheduled stale-root
    // fault lands on section 2's first page, which must actually differ
    // between the runs
    let (clean_pool, stale_pool) = (
        &clean_snapshot.sections()[2].bytes,
        &stale_snapshot.sections()[2].bytes,
    );
    assert_ne!(
        clean_pool.chunks(PAGE_SIZE).next(),
        stale_pool.chunks(PAGE_SIZE).next(),
        "drill seed produced an unchanged pool page — pick another seed"
    );
    // occurrence 0 is a stale manifest, refused by the explicit check
    // below; 1 is the honest manifest the restore accepts, so provider 0
    // is asked for every page first, from occurrence 2 on in canonical
    // order — the first page of sections 0..4 each take one fault, and
    // the page after the truncated one arrives late
    let mut page_at = 2u64;
    let first_pages: Vec<u64> = (clean_snapshot.sections().iter())
        .map(|s| {
            let at = page_at;
            page_at += page_count(s.bytes.len()) as u64;
            at
        })
        .collect();
    let mut provider_faults = FaultInjector::new(seed ^ 0x5EA1);
    let schedule = [
        (0, FaultKind::StaleRoot), // stale manifest, skipped
        (first_pages[0], FaultKind::Drop),
        (first_pages[1], FaultKind::BitFlip),
        (first_pages[2], FaultKind::StaleRoot),
        (first_pages[3], FaultKind::Truncate),
        (first_pages[3] + 1, FaultKind::Delay { millis: 40 }), // late but honest
    ];
    provider_faults.schedule_all(schedule.map(|(occurrence, kind)| FaultSpec {
        point: InjectionPoint::Provider(0),
        occurrence,
        kind,
    }));
    let mut dishonest = SimProvider::faulty(
        0,
        clean_snapshot.clone(),
        Arc::new(Mutex::new(provider_faults)),
    )
    .with_stale(stale_snapshot.clone());
    let mut honest = SimProvider::honest(1, clean_snapshot.clone());
    let mut providers: Vec<&mut dyn SectionProvider> = vec![&mut dishonest, &mut honest];
    let (_, slot) = fetch_manifest(&mut providers, clean_stats.root).expect("honest manifest");
    assert_eq!(slot, 1, "the stale manifest must be skipped");
    let policy = RetryPolicy::default();
    let (restored, heal) = heal_restore(None, &mut providers, clean_stats.root, &policy)
        .expect("healing restore succeeds");
    assert_eq!(
        heal.quarantined.len(),
        4,
        "drop, bit-flip, stale-root and truncate must each quarantine: {:?}",
        heal.quarantined
    );
    for q in &heal.quarantined {
        assert!(
            heal.healed_sections.contains(&q.section),
            "quarantined section {} was never healed",
            q.section
        );
    }
    assert!(
        heal.sim_elapsed.as_millis() >= 40,
        "backoff and the delayed delivery must consume simulated time"
    );
    assert_eq!(
        restored.root, clean_stats.root,
        "healed restore re-derives a different root"
    );
    for (id, pool) in &restored.pools {
        let reference = clean_sys
            .processor()
            .pool(*id)
            .expect("restored pool exists on the clean node")
            .export_state();
        assert_eq!(
            pool.export_state(),
            reference,
            "healed pool {id} diverges from the clean node"
        );
    }
    ammboost_bench::line("heal/quarantined", heal.quarantined.len());
    ammboost_bench::line("heal/attempts", heal.attempts);
    ammboost_bench::line("heal/retries", heal.retries);
    ammboost_bench::line("heal/sim_elapsed_ms", heal.sim_elapsed.as_millis());

    // -- fault 4: delta-chain crashes, corruption, and page healing -------
    // The stale→clean pair from fault 3 gives a genuine dirty-page diff.
    let delta = DeltaSnapshot::diff(&stale_snapshot, &clean_snapshot);
    assert!(
        !delta.deltas.is_empty(),
        "stale→clean delta carries no dirty pages — pick another seed"
    );
    let mut delta_store = CheckpointStore::new();
    delta_store
        .commit(&stale_snapshot, None)
        .expect("delta base commits");
    let delta_len = delta.encoded_len();
    for crash in [
        CrashPoint::DuringStage { offset: 0 },
        CrashPoint::DuringStage {
            offset: delta_len / 2,
        },
        CrashPoint::DuringStage {
            offset: delta_len - 1,
        },
        CrashPoint::BeforeMark,
    ] {
        let err = delta_store.commit_delta(&delta, Some(crash)).unwrap_err();
        assert!(matches!(err, StoreError::SimulatedCrash(_)));
        let outcome = delta_store.recover();
        assert!(
            matches!(outcome, RecoveryOutcome::DiscardedTorn { .. }),
            "torn delta must be discarded, got {outcome:?}"
        );
        assert_eq!(
            delta_store.latest().expect("base survives").root(),
            stale_snapshot.root(),
            "torn delta moved the chain tip ({crash:?})"
        );
    }
    // staged + marked delta rolls forward to the new tip on recovery
    delta_store
        .commit_delta(&delta, Some(CrashPoint::BeforeInstall))
        .unwrap_err();
    let outcome = delta_store.recover();
    assert_eq!(
        outcome,
        RecoveryOutcome::RolledForward { epoch: delta.epoch },
        "marked delta must roll forward"
    );
    let folded = delta_store.latest().expect("chain folds");
    assert_eq!(
        folded.root(),
        clean_snapshot.root(),
        "folded delta chain diverges from the full snapshot"
    );
    // a delta whose base is no longer the tip must be refused
    assert!(
        matches!(
            delta_store.commit_delta(&delta, None),
            Err(StoreError::DeltaBaseMismatch { .. })
        ),
        "re-applying a delta off the wrong base must be refused"
    );
    // corrupted delta wire bytes never decode
    let delta_wire = delta.encode();
    for kind in [
        FaultKind::BitFlip,
        FaultKind::Truncate,
        FaultKind::Duplicate,
    ] {
        let mut mutated = delta_wire.clone();
        assert!(injector.mutate(kind, &mut mutated), "mutation was a no-op");
        assert!(
            DeltaSnapshot::decode(&mutated).is_err(),
            "{} of the delta wire form was silently accepted",
            kind.name()
        );
    }
    // page-granular delta sync: provider 0 flips a byte in a page reply
    // (occurrence 0 is the manifest, 1 the first page)
    let mut page_faults = FaultInjector::new(seed ^ 0xDE17A);
    page_faults.schedule_all([FaultSpec {
        point: InjectionPoint::Provider(0),
        occurrence: 1,
        kind: FaultKind::BitFlip,
    }]);
    let mut bad_pages =
        SimProvider::faulty(0, clean_snapshot.clone(), Arc::new(Mutex::new(page_faults)));
    let mut good_pages = SimProvider::honest(1, clean_snapshot.clone());
    let mut page_providers: Vec<&mut dyn SectionProvider> = vec![&mut bad_pages, &mut good_pages];
    let (synced, delta_heal) = delta_sync(
        Some(&stale_snapshot),
        &mut page_providers,
        clean_stats.root,
        &policy,
    )
    .expect("delta sync heals");
    assert_eq!(
        synced.root(),
        clean_stats.root,
        "delta sync landed on the wrong root"
    );
    assert!(
        delta_heal.pages_fetched > 0,
        "page-granular sync never shipped a page"
    );
    let flipped_pages = delta_heal
        .quarantined
        .iter()
        .filter(|q| q.reason == "page-hash-mismatch")
        .count();
    assert_eq!(
        flipped_pages, 1,
        "the flipped page must quarantine exactly once"
    );
    ammboost_bench::line("delta/dirty_pages", delta.deltas.len());
    ammboost_bench::line("delta/recoveries", delta_store.recoveries());
    ammboost_bench::line("delta/pages_fetched", delta_heal.pages_fetched);
    ammboost_bench::line("delta/pages_reused", delta_heal.pages_reused);

    println!();
    println!("chaos drill PASS ({pools} pools, {epochs} epochs, 6 fault kinds, delta chain)");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<(u64, u32), String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parser_accepts_the_ci_invocation_and_nothing_else() {
        assert_eq!(parse(&[]), Ok((7, 4)));
        assert_eq!(parse(&["--seed", "7", "--pools", "4"]), Ok((7, 4)));
        assert_eq!(parse(&["--pools", "6", "--seed", "11"]), Ok((11, 6)));
        // a typo must not fall back to the default drill
        assert!(parse(&["--bogus"]).unwrap_err().contains("--bogus"));
        assert!(parse(&["--seed"]).unwrap_err().contains("needs a value"));
        assert!(parse(&["--seed", "seven"]).unwrap_err().contains("seven"));
        assert!(parse(&["--pools", "1"]).unwrap_err().contains("two pools"));
    }
}
