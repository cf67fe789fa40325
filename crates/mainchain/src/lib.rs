//! # ammboost-mainchain
//!
//! A simulated smart-contract mainchain standing in for the paper's
//! Sepolia testnet (see README, "Sync authentication", for the
//! substitution argument):
//!
//! - [`gas`] — the EVM gas schedule (EIP-2929 storage pricing, EIP-1108
//!   precompiles) with a labelled, itemizable meter.
//! - [`abi`] — Ethereum-ABI word encoding for calldata/storage sizes.
//! - [`chain`] — 12-second blocks, 30M-gas budget, FIFO mempool,
//!   dependency-chained transactions, confirmation times, reorg injection.
//! - [`contracts`] — [`Erc20`](contracts::Erc20) tokens, ammBoost's
//!   [`TokenBank`](contracts::TokenBank) base contract with
//!   TSQC-authenticated `Sync`, and the full-on-chain
//!   [`UniswapBaseline`](contracts::UniswapBaseline) the paper compares
//!   against.
//!
//! Gas numbers are *derived* from the schedule, not asserted: Table II's
//! itemization (22,100/word storage, 6,000 ecMul, 113,000 pairing, 15,771
//! per payout, ~105,392 per deposit) falls out of the contracts' storage
//! access patterns.

#![warn(missing_docs)]

pub mod abi;
pub mod chain;
pub mod contracts;
pub mod gas;

pub use chain::{ChainConfig, Mainchain, TxId, TxSpec};
pub use contracts::{Erc20, SyncInput, TokenBank, UniswapBaseline};
pub use gas::GasMeter;
