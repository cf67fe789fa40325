//! The four fixed workloads. Everything not set here is
//! `SystemConfig::default()`; the seed is the only input from outside.

use ammboost_core::config::SnapshotPolicy;
use ammboost_core::SystemConfig;
use ammboost_workload::{
    EngineMix, LiquidityStyle, QuoteStyle, RouteStyle, TrafficMix, TrafficSkew,
};

/// Users of the fat-state workloads. State-proportional boundary work
/// (deposit snapshot, summary, sync ABI, TSQC, bank sync, relock,
/// checkpoint, restore) is O(users); 50 000 is what fits the time cap.
const FAT_USERS: u64 = 50_000;
/// Epochs of the fat-state workloads: the fewest that still give a full
/// checkpoint, an in-run delta against it and an end-of-run delta.
const FAT_EPOCHS: u64 = 2;

pub struct Workload {
    pub name: &'static str,
    /// One sentence on why the workload exists.
    pub why: &'static str,
    /// Decode + restore passes per repetition: enough for the run to hold
    /// some thirty samples, so that its best pass is a steady statistic.
    pub restore_passes: usize,
    configure: fn(&mut SystemConfig),
}

impl Workload {
    /// The exact configuration the node runs for `seed`.
    pub fn config(&self, seed: u64) -> SystemConfig {
        let mut cfg = SystemConfig {
            seed,
            ..SystemConfig::default()
        };
        (self.configure)(&mut cfg);
        cfg
    }
}

fn fat(cfg: &mut SystemConfig) {
    cfg.pools = 2;
    cfg.users = FAT_USERS;
    cfg.epochs = FAT_EPOCHS;
    cfg.snapshot = SnapshotPolicy::every_epoch();
    // a 50 000-user sync needs far more than one 30 M-gas block; the
    // workload reports the gas, it does not cap it
    cfg.mainchain.gas_limit = u64::MAX;
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "paper_default",
        why: "the paper's section VI-A setup unchanged: thin state, so generation, election, \
              execution and block append do the work; the bypass workload for state-size and \
              routing optimisations",
        restore_passes: 16,
        configure: |_| {},
    },
    Workload {
        name: "fleet_mixed",
        why: "16 pools of three engines, Zipf traffic, 30 % routed swaps, fragmented \
              liquidity, 2 in-run quotes per tx: partitioning, hop waves, netting, view \
              publication, reads beside writes",
        restore_passes: 8,
        configure: |cfg| {
            cfg.pools = 16;
            cfg.users = 256;
            cfg.traffic_skew = TrafficSkew::Zipf { exponent: 1.0 };
            cfg.engine_mix = EngineMix::of(2, 1, 1);
            cfg.route_style = RouteStyle::routed(0.3, 4);
            cfg.liquidity_style = LiquidityStyle::Fragmented;
            cfg.quote_style = QuoteStyle::per_tx(2.0);
            cfg.snapshot = SnapshotPolicy::every_epoch();
        },
    },
    Workload {
        name: "fat_busy",
        why: "50 000 users on 2 pools, mint-heavy mix: state-proportional boundary work \
              (sync ABI, TSQC, bank sync, checkpoint, restore) dominates and most state is \
              dirtied each epoch",
        restore_passes: 6,
        configure: |cfg| {
            fat(cfg);
            cfg.mix = TrafficMix::from_tuple((60.0, 20.0, 10.0, 10.0));
        },
    },
    Workload {
        name: "fat_idle",
        why: "the same 50 000-user state at 21 tx per round: almost nothing is dirty, so any \
              boundary cost left is O(state) rather than O(dirty)",
        restore_passes: 6,
        configure: |cfg| {
            fat(cfg);
            cfg.daily_volume = 250_000;
        },
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
