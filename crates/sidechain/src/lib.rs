//! # ammboost-sidechain
//!
//! The ammBoost sidechain ledger layer:
//!
//! - [`block`] — temporary meta-blocks (pruned after sync) and permanent
//!   summary-blocks (epoch checkpoints), plus executed-transaction
//!   effects.
//! - [`summary`] — the Fig. 4 summary rules: the epoch deposit ledger
//!   whose final state is the payout list, and the position/pool entries
//!   TokenBank consumes.
//! - [`codec`] — the packed binary encoding (97 B payouts, 217 B
//!   positions vs the mainchain's 352/416 B ABI — Table IV).
//! - [`ledger`] — chain validation, epoch sequencing, and block
//!   suppression (pruning).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod codec;
pub mod ledger;
pub mod summary;

pub use block::{ExecutedTx, MetaBlock, SummaryBlock, TxEffect};
pub use ledger::{BlockError, Ledger};
pub use summary::{Deposits, PayoutEntry, PoolUpdate, PositionEntry};
