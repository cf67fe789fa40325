//! # ammboost-core
//!
//! The ammBoost system itself — the paper's primary contribution wired
//! over the substrate crates:
//!
//! - [`config`] — experiment configuration (§VI-A defaults) and the
//!   fault-injection plan.
//! - [`txenv`] — the `CreateTx` / `VerifyTx` API of §III.
//! - [`processor`] — pool-snapshot-based, delayed-token-payout execution
//!   with epoch deposits (§IV-B, Fig. 4).
//! - [`shard`] — `PoolId` as a routing key: one processor per pool,
//!   parallel per-pool batch execution, deterministic effect merging,
//!   and the two-phase routed epoch (shard-parallel hop waves + the
//!   netting barrier).
//! - [`workers`] — the persistent shard worker pool backing parallel
//!   execution (threads spawned once per process, not per round).
//! - [`system`] — the full runner: election → DKG → rounds of meta-blocks
//!   → summary → TSQC-authenticated sync → pruning, plus interruption
//!   recovery (view change, mass-sync, rollbacks; §IV-C).
//! - [`view`] — epoch-sealed, `Arc`-shared quote views: the concurrent
//!   read path (quote / simulate-route / value-position) served while
//!   the worker pool executes the next epoch.
//! - [`checkpoint`] — node-level snapshot / restore / fast-sync catch-up
//!   over the `ammboost-state` subsystem.
//! - [`baseline`] — the all-on-mainchain Uniswap baseline for comparison.
//! - [`api`] — the paper's §III functionality list (`SystemSetup` …
//!   `Prune`) as concrete entry points.
//!
//! ```no_run
//! use ammboost_core::config::SystemConfig;
//! use ammboost_core::system::System;
//!
//! let report = System::new(SystemConfig::small_test()).run();
//! println!("throughput: {:.2} tx/s", report.throughput_tps);
//! ```

#![warn(missing_docs)]

pub mod api;
pub mod baseline;
pub mod checkpoint;
pub mod config;
pub mod processor;
pub mod shard;
pub mod system;
pub mod txenv;
pub mod view;
pub mod workers;

pub use baseline::{BaselineConfig, BaselineReport, BaselineRunner};
pub use checkpoint::{
    catch_up, checkpoint_node, recover_node, restore_node, stage_node, NodeRestore,
    NodeRestoreError,
};
pub use config::{DepositPolicy, FaultPlan, SystemConfig};
pub use processor::{EpochProcessor, ProcessorState};
pub use shard::{ExecMode, ShardMap};
pub use system::{System, SystemReport};
pub use txenv::{create_tx, verify_tx, SignedTx};
pub use view::{QuoteError, QuoteView, RouteQuote, ViewPublishStats};
pub use workers::WorkerPool;
