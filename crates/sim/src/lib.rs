//! # ammboost-sim
//!
//! The deterministic simulation substrate all ammBoost experiments run on:
//!
//! - [`time`] — millisecond-resolution simulated clocks (no wall time).
//! - [`net`] — Δ-bounded, bandwidth-limited network cost model (the
//!   paper's 1 Gbps cluster).
//! - [`rng`] — seeded randomness with the sampling helpers workloads need.
//! - [`metrics`] — latency statistics, throughput and chain-growth series.
//! - [`fault`] — deterministic storage/sync fault injection (bit-flips,
//!   truncation, drops, delays, duplicates, stale roots) addressable by
//!   injection point and occurrence index.
//!
//! Everything is seedable and free of wall-clock reads, so each experiment
//! binary reproduces its numbers bit-for-bit from its seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod metrics;
pub mod net;
pub mod rng;
pub mod time;

pub use fault::{FaultEvent, FaultInjector, FaultKind, FaultSpec, InjectionPoint};
pub use metrics::{throughput, GrowthSeries, LatencyStats};
pub use net::NetworkModel;
pub use rng::DetRng;
pub use time::{SimDuration, SimTime};
