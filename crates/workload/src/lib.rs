//! # ammboost-workload
//!
//! Traffic generation for ammBoost experiments, calibrated against the
//! paper's Uniswap 2023 analysis:
//!
//! - [`uniswap2023`] — the embedded Table VII model (mix percentages,
//!   daily volumes, average transaction sizes) and derived statistics.
//! - [`mix`] — configurable traffic mixes, including the six Table XI
//!   variants.
//! - [`generator`] — the deterministic generator: constant arrival rate
//!   `ρ = ⌈V_D · bt / 86400⌉` per round, position-aware burns/collects.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod generator;
pub mod mix;
pub mod uniswap2023;

pub use generator::{
    EngineMix, GeneratedTx, GeneratorConfig, LiquidityStyle, QuoteRequest, QuoteStyle, RouteStyle,
    TrafficGenerator, TrafficSkew,
};
pub use mix::TrafficMix;
