//! # ammboost-consensus
//!
//! The sidechain consensus substrate:
//!
//! - [`election`] — VRF-sortition committee election with publicly
//!   verifiable election proofs (paper §IV-A, Appendix A).
//! - [`pbft`] — the leader-based PBFT state machine (pre-prepare /
//!   prepare / commit, quorum `2f + 2` of `3f + 2`) with view change, and
//!   a deterministic driver for fault-injection experiments.
//! - [`latency`] — the agreement-latency model calibrated against the
//!   paper's Table XII (committee size → agreement seconds).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod election;
pub mod latency;
pub mod pbft;

pub use election::{elect_committee, Committee, ElectionProof, MinerRecord};
pub use latency::AgreementModel;
pub use pbft::{run_consensus, Behavior, ConsensusOutcome, Message, Replica};
