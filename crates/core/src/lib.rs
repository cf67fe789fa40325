//! # ammboost-core
//!
//! The ammBoost system itself — the paper's primary contribution wired
//! over the substrate crates:
//!
//! - [`config`] — experiment configuration (§VI-A defaults) and the
//!   fault-injection plan.
//! - [`txenv`] — the `CreateTx` / `VerifyTx` API of §III.
//! - [`processor`] — pool-snapshot-based, delayed-token-payout execution
//!   over every pool and one epoch deposit book (§IV-B, Fig. 4), with
//!   `PoolId` as the routing key and the two-phase routed epoch (hop
//!   waves + the netting barrier).
//! - [`node`] — the sidechain node: the paper's two `UpdateState` steps
//!   (execute a round into a meta-block; seal the epoch into a summary
//!   block and a quote view) composed once, stepped one round at a time.
//! - [`system`] — the world that drives the node: traffic, election → DKG,
//!   TSQC-authenticated sync to TokenBank, pruning, plus interruption
//!   recovery (view change, mass-sync, rollbacks; §IV-C).
//! - [`view`] — epoch-sealed, `Arc`-shared quote views: the concurrent
//!   read path (quote / simulate-route / value-position), answered on the
//!   node's quote-reader thread while the next round executes.
//! - [`checkpoint`] — node-level snapshot / restore / fast-sync catch-up
//!   over the `ammboost-state` subsystem.
//! - [`baseline`] — the all-on-mainchain Uniswap baseline for comparison.
//!
//! ```no_run
//! use ammboost_core::config::SystemConfig;
//! use ammboost_core::system::System;
//!
//! let report = System::new(SystemConfig::small_test()).run();
//! println!("throughput: {:.2} tx/s", report.throughput_tps);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backlog;
pub mod baseline;
pub mod checkpoint;
pub mod config;
pub mod node;
pub mod processor;
pub mod system;
pub mod txenv;
pub mod view;

/// The world's packed arrival queue, re-exported only so the criterion
/// benches can time its codec; [`System`] owns the one instance.
#[doc(hidden)]
pub use backlog::Backlog;
pub use baseline::{BaselineConfig, BaselineReport, BaselineRunner};
pub use checkpoint::{
    catch_up, checkpoint_node, recover_node, restore_node, stage_node, NodeRestore,
    NodeRestoreError,
};
pub use config::{DepositPolicy, FaultPlan, SystemConfig};
pub use node::{EpochOutput, Node, NodeCounters, RoundOutput};
pub use processor::{EpochProcessor, ExecMode, ProcessorState, ShardMap};
pub use system::{System, SystemReport};
pub use txenv::{create_tx, verify_tx, SignedTx};
pub use view::{QuoteError, QuoteView, RouteQuote, ViewPublishStats};
