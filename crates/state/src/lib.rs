//! # ammboost-state
//!
//! The state snapshot, pruning and fast-sync subsystem — what turns the
//! sidechain's epoch summaries into actual state-size reduction (paper
//! §IV-B/C: committed state, not history, is the unit of persistence).
//!
//! - [`codec`] — a deterministic, versioned, hand-rolled binary codec
//!   ([`Encode`]/[`Decode`] over [`ByteWriter`]/[`ByteReader`]) extending
//!   the sidechain's field-packing style; exhaustive error handling, no
//!   serde dependency.
//! - [`records`] — codec implementations for every snapshot record type
//!   (pool state, positions, ticks, blocks, ledger, deposits).
//! - [`snapshot`] — sealed, Merkle-committed [`Snapshot`]s whose root is
//!   a single 32-byte commitment to the full system state, computed once
//!   per snapshot; tamper-evident wire encoding.
//! - [`checkpoint`] — incremental checkpointing with dirty-pool tracking
//!   and a page-hash cache: per-epoch snapshots re-encode only touched
//!   pools and re-hash only changed pages, and each commit also emits a
//!   page-granular delta against the previous checkpoint.
//! - [`pages`] — fixed-size page decomposition of section encodings; a
//!   section's page root is its leaf in the snapshot root.
//! - [`delta`] — [`DeltaSnapshot`]: the page-granular difference between
//!   two committed snapshots, with `apply` proven byte-identical to a
//!   full re-encode and tamper detection down to single page bytes.
//! - [`prune`] — snapshot-aware retention pruning of raw meta-block
//!   history, reporting reclaimed bytes.
//! - [`sync`] — fast-sync restore: snapshot → working pools (derived tick
//!   indexes regenerated, never serialized) + ledger + deposits.
//! - [`heal`] — page-granular self-healing sync: one page-hash manifest
//!   bound to the trusted root before any page moves, reuse of a stale
//!   local snapshot's matching pages, quarantine of bad copies, provider
//!   rotation with bounded retries and deterministic backoff on simulated
//!   time.
//! - [`store`] — crash-consistent checkpoint persistence: a stage→mark→
//!   install journal whose recovery always lands on the last committed
//!   snapshot, whatever byte a simulated crash tore the write at.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod codec;
pub mod delta;
pub mod heal;
pub mod pages;
pub mod prune;
pub mod records;
pub mod snapshot;
pub mod store;
pub mod sync;

pub use checkpoint::{CheckpointOutput, CheckpointStats, Checkpointer, StagedCheckpoint};
pub use codec::{ByteReader, ByteWriter, CodecError, Decode, Encode};
pub use delta::{DeltaError, DeltaSnapshot, SectionDelta, DELTA_MAGIC, DELTA_VERSION};
pub use heal::{
    delta_sync, fetch_manifest, heal_restore, HealReport, PageReply, Quarantine, RetryPolicy,
    SectionProvider, SimProvider, SyncError, SyncManifest,
};
pub use pages::{page_hash, page_hashes, page_root, PageDiff, PAGE_SIZE};
pub use prune::{prune_to_snapshot, PruneReport, RetentionPolicy};
pub use snapshot::{
    root_from_leaves, Section, SectionKind, Snapshot, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
pub use store::{CheckpointStore, CrashPoint, RecoveryOutcome, StoreError};
pub use sync::{restore, restore_from_bytes, RestoreError, RestoredState};
