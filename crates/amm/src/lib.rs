//! # ammboost-amm
//!
//! A from-scratch Uniswap-V3-style concentrated-liquidity AMM engine — the
//! "original AMM logic" that ammBoost migrates to its sidechain (paper
//! §IV-B). One implementation serves both deployment modes: the mainchain
//! baseline contracts (`ammboost-mainchain`) and the sidechain processor
//! (`ammboost-core`) execute exactly this code, which is what makes the
//! paper's equivalence argument ("same logic, same outcome") testable.
//!
//! Modules:
//! - [`types`] — ticks, liquidity, amounts, position/pool ids.
//! - [`tick_math`] — tick ↔ Q64.96 sqrt-price conversion (derived factors,
//!   no magic constants).
//! - [`sqrt_price_math`] — amount deltas and price movement.
//! - [`liquidity_math`] — amounts → liquidity conversions.
//! - [`swap_math`] — the single-range swap step.
//! - [`tick_bitmap`] — word-packed next-initialized-tick index.
//! - [`fast_hash`] — multiply-mix hashing for integer-keyed hot maps.
//! - [`pool`] — the pool: multi-range swaps, positions, fees, flash loans.
//! - [`positions`] — zero-copy position storage: wire-format records
//!   behind an id index, decoded lazily through a copy-on-write overlay.
//! - [`engines`] — the multi-engine fleet: the [`AmmEngine`] trait over
//!   this pool plus constant-product and weighted geometric-mean engines.
//! - [`tx`] — the transaction vocabulary + paper-calibrated size models.
//!
//! ```
//! use ammboost_amm::pool::{Pool, SwapKind};
//! use ammboost_amm::types::PositionId;
//! use ammboost_crypto::Address;
//!
//! let mut pool = Pool::new_standard(); // 0.3% fee, price 1.0
//! let lp = Address::from_index(1);
//! let id = PositionId::derive(&[b"quickstart"]);
//! pool.mint(id, lp, -600, 600, 1_000_000, 1_000_000)?;
//! let out = pool.swap(true, SwapKind::ExactInput(10_000), None)?;
//! assert!(out.amount_out > 0);
//! # Ok::<(), ammboost_amm::error::AmmError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engines;
pub mod error;
pub mod fast_hash;
pub mod liquidity_math;
pub mod pool;
pub mod positions;
pub mod sqrt_price_math;
pub mod swap_math;
pub mod tick_bitmap;
pub mod tick_math;
pub mod tx;
pub mod types;

pub use engines::{
    AmmEngine, CpEngine, CpState, Engine, EngineKind, EngineState, PositionInfo, SharePosition,
    WeightedEngine, WeightedState,
};
pub use error::AmmError;
pub use pool::{Pool, Position, PositionValuation, SwapKind, SwapResult};
pub use positions::{PositionRecords, PositionTable, RecordsError, POSITION_RECORD_BYTES};
pub use tick_bitmap::TickBitmap;
pub use types::{Amount, AmountPair, Liquidity, PoolId, PositionId, Tick};
