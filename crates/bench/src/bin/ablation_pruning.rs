//! Ablation: how much of ammBoost's state-growth control comes from
//! meta-block pruning (block suppression)? Runs the default workload with
//! pruning enabled vs disabled and compares sidechain growth — the
//! ablation behind the README's "State growth control" section.

use ammboost_bench::{fmt_bytes, header, line};
use ammboost_core::config::SystemConfig;
use ammboost_core::system::System;

fn main() {
    header("Ablation — sidechain pruning on/off (V_D = 500K, 11 epochs)");
    let mut on = SystemConfig::default();
    on.daily_volume = 500_000;
    let with_pruning = System::new(on).run();

    let mut off = SystemConfig::default();
    off.daily_volume = 500_000;
    off.disable_pruning = true;
    let without_pruning = System::new(off).run();

    line(
        "sidechain final (pruning ON)",
        fmt_bytes(with_pruning.sidechain_bytes),
    );
    line(
        "sidechain final (pruning OFF)",
        fmt_bytes(without_pruning.sidechain_bytes),
    );
    line(
        "bytes reclaimed by pruning",
        fmt_bytes(with_pruning.sidechain_pruned_bytes),
    );
    let reduction = 100.0
        * (1.0 - with_pruning.sidechain_bytes as f64 / without_pruning.sidechain_bytes as f64);
    line(
        "pruning reduces sidechain size by",
        format!("{reduction:.2}%"),
    );
    println!();
    line(
        "note",
        "the paper reports ≥93.42% chain-growth reduction; pruning is the \
         mechanism that keeps the *sidechain* from merely inheriting the \
         growth the mainchain avoided",
    );
    assert!(
        with_pruning.sidechain_bytes < without_pruning.sidechain_bytes / 5,
        "pruning must reclaim the bulk of sidechain state"
    );
}
