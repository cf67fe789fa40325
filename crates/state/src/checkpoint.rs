//! Incremental checkpointing with dirty-pool tracking and delta
//! emission.
//!
//! A [`Checkpointer`] owns the encoded form of every section from the
//! previous checkpoint. Pools are re-encoded only when they were marked
//! dirty since; clean pools reuse their cached bytes, so the per-epoch
//! cost of a snapshot scales with the *touched* state, not the total
//! state — the incremental analogue of the paper's "commit summaries,
//! not history".
//!
//! On top of the byte cache the checkpointer is **delta-granular**: once
//! the caller confirms a commit landed ([`Checkpointer::note_committed`]),
//! the next stage also diffs every re-encoded section against its prior
//! bytes page by page (pure memcmp — no hashing in the stage half) and
//! the commit emits a [`DeltaSnapshot`] alongside the full snapshot:
//! base root, dirty pages with sub-leaf hashes, removed sections. The
//! journal persists the delta; the full snapshot stays the source of
//! truth the delta is proven against.

use crate::codec::Encode;
use crate::delta::{DeltaSnapshot, SectionDelta};
use crate::pages::{diff_pages, page_count, seal_pages, DEFAULT_PAGE_SIZE};
use crate::snapshot::{
    root_from_section_hashes, section_hashes, Section, SectionKind, Snapshot, SNAPSHOT_VERSION,
};
use ammboost_amm::engines::Engine;
use ammboost_amm::types::PoolId;
use ammboost_crypto::{Address, H256};
use ammboost_sidechain::ledger::Ledger;
use ammboost_sidechain::summary::Deposits;
use std::collections::{BTreeMap, BTreeSet};

/// What one checkpoint cost and produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Epoch the snapshot covers.
    pub epoch: u64,
    /// Pools included.
    pub pools_total: usize,
    /// Pools that were dirty and had to be re-encoded.
    pub pools_reencoded: usize,
    /// Pools whose cached encoding was reused verbatim.
    pub pools_reused: usize,
    /// Full serialized snapshot size in bytes.
    pub snapshot_bytes: u64,
    /// The snapshot's state root.
    pub root: H256,
    /// Pages across all sections at the checkpointer's page size.
    pub pages_total: usize,
    /// Dirty pages shipped in the emitted delta (0 without a delta).
    pub pages_dirty: usize,
    /// Serialized size of the emitted delta (0 without a delta).
    pub delta_bytes: u64,
}

/// Everything one checkpoint produced: the full snapshot, the optional
/// page-granular delta against the previous *committed* checkpoint, and
/// the stats.
#[derive(Clone, Debug)]
pub struct CheckpointOutput {
    /// The full Merkle-committed snapshot.
    pub snapshot: Snapshot,
    /// The delta against the last committed snapshot — present from the
    /// second checkpoint on, once [`Checkpointer::note_committed`]
    /// confirmed the base landed.
    pub delta: Option<DeltaSnapshot>,
    /// Cost and size accounting.
    pub stats: CheckpointStats,
}

/// Raw page diffs for one changed section: `(page index, page bytes)`.
type PageDiffs = Vec<(u32, Vec<u8>)>;

/// The page diffs collected during staging, before any hashing.
#[derive(Debug)]
struct StagedDelta {
    base_epoch: u64,
    base_root: H256,
    removed: Vec<SectionKind>,
    /// `(section index, raw page diffs)` for every changed section.
    entries: Vec<(usize, PageDiffs)>,
}

/// The observing half of a checkpoint: every section encoded, dirty
/// flags consumed, cache refreshed, page diffs cut — everything that
/// must read the live node state. What remains
/// ([`StagedCheckpoint::commit`]) is pure hashing and assembly over data
/// this struct *owns*: a function of these bytes and of nothing the node
/// does afterwards, and a separately timed span for a caller that wants
/// to tell encoding from hashing.
#[derive(Debug)]
pub struct StagedCheckpoint {
    epoch: u64,
    sections: Vec<Section>,
    pools_total: usize,
    pools_reencoded: usize,
    pools_reused: usize,
    page_size: usize,
    staged_delta: Option<StagedDelta>,
}

impl StagedCheckpoint {
    /// The epoch this stage covers.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Finishes the checkpoint: Merkle-hashes the staged sections once
    /// (shared between the root and the delta's section hashes),
    /// assembles the [`Snapshot`], seals the staged page diffs into a
    /// [`DeltaSnapshot`] when a confirmed base exists, and reports
    /// stats. Deterministic in the staged data alone — committing
    /// after the live state has moved on yields byte-identical output
    /// to an inline commit.
    pub fn commit(self) -> CheckpointOutput {
        let hashes = section_hashes(&self.sections);
        let root = root_from_section_hashes(SNAPSHOT_VERSION, self.epoch, &hashes);
        let pages_total: usize = self
            .sections
            .iter()
            .map(|s| page_count(s.bytes.len(), self.page_size))
            .sum();
        let snapshot = Snapshot {
            version: SNAPSHOT_VERSION,
            epoch: self.epoch,
            sections: self.sections,
        };
        let delta = self.staged_delta.map(|sd| {
            let deltas = sd
                .entries
                .into_iter()
                .map(|(idx, raw)| {
                    let section = &snapshot.sections[idx];
                    SectionDelta {
                        kind: section.kind,
                        new_len: section.bytes.len() as u32,
                        new_hash: hashes[idx],
                        pages: seal_pages(section.kind, raw),
                    }
                })
                .collect();
            DeltaSnapshot {
                snapshot_version: SNAPSHOT_VERSION,
                base_epoch: sd.base_epoch,
                epoch: snapshot.epoch,
                base_root: sd.base_root,
                root,
                page_size: self.page_size as u32,
                removed: sd.removed,
                deltas,
            }
        });
        let stats = CheckpointStats {
            epoch: snapshot.epoch,
            pools_total: self.pools_total,
            pools_reencoded: self.pools_reencoded,
            pools_reused: self.pools_reused,
            // exact wire sizes without serializing — the section hashes
            // above are the only hashing a checkpoint pays here
            snapshot_bytes: snapshot.encoded_len() as u64,
            root,
            pages_total,
            pages_dirty: delta.as_ref().map_or(0, DeltaSnapshot::pages),
            delta_bytes: delta.as_ref().map_or(0, |d| d.encoded_len() as u64),
        };
        CheckpointOutput {
            snapshot,
            delta,
            stats,
        }
    }
}

/// Incremental snapshot producer. One per node; survives across epochs so
/// the section caches stay warm.
#[derive(Debug)]
pub struct Checkpointer {
    /// Encoded pool sections from the last stage.
    cache: BTreeMap<u32, Vec<u8>>,
    /// Encoded non-pool sections (ledger, deposits, aux) from the last
    /// stage.
    other_cache: BTreeMap<SectionKind, Vec<u8>>,
    /// Pools mutated since their cached encoding was produced.
    dirty: BTreeSet<u32>,
    /// Epoch the caches reflect (the last staged epoch).
    cache_epoch: Option<u64>,
    /// Last commit the caller confirmed, when it matches `cache_epoch` —
    /// the base the next stage may diff against.
    committed: Option<(u64, H256)>,
    /// Page size deltas are cut at.
    page_size: usize,
}

impl Default for Checkpointer {
    fn default() -> Checkpointer {
        Checkpointer::new()
    }
}

impl Checkpointer {
    /// A checkpointer with an empty (all-dirty) cache and the default
    /// page size.
    pub fn new() -> Checkpointer {
        Checkpointer::with_page_size(DEFAULT_PAGE_SIZE)
    }

    /// A checkpointer cutting deltas at `page_size` bytes.
    ///
    /// # Panics
    /// Panics on a zero page size.
    pub fn with_page_size(page_size: usize) -> Checkpointer {
        assert!(page_size > 0, "page size must be positive");
        Checkpointer {
            cache: BTreeMap::new(),
            other_cache: BTreeMap::new(),
            dirty: BTreeSet::new(),
            cache_epoch: None,
            committed: None,
            page_size,
        }
    }

    /// Page size deltas are cut at.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Records that `pool` changed since the last checkpoint; its next
    /// snapshot section will be re-encoded.
    pub fn mark_dirty(&mut self, pool: PoolId) {
        self.dirty.insert(pool.0);
    }

    /// Whether `pool` must be re-encoded at the next checkpoint (an
    /// uncached pool counts as dirty).
    pub fn is_dirty(&self, pool: PoolId) -> bool {
        self.dirty.contains(&pool.0) || !self.cache.contains_key(&pool.0)
    }

    /// Confirms that the checkpoint staged at `epoch` was committed and
    /// installed with `root`. The *next* stage will then emit a delta
    /// against it. A note for any epoch other than the last staged one
    /// is ignored (the caches no longer reflect that snapshot), which
    /// fails safe: no delta, full snapshot only.
    pub fn note_committed(&mut self, epoch: u64, root: H256) {
        if self.cache_epoch == Some(epoch) {
            self.committed = Some((epoch, root));
        }
    }

    /// Builds a Merkle-committed snapshot of the full node state at
    /// `epoch` — every pool engine (cached bytes reused unless dirty),
    /// the ledger, the deposit map, and any auxiliary sections the
    /// caller provides (sorted by tag for canonical ordering) — plus,
    /// from the second call on, the page-granular delta against the
    /// previous checkpoint. Pool sections are engine-tagged (format v3),
    /// so a heterogeneous fleet snapshots uniformly.
    ///
    /// Equivalent to [`Checkpointer::stage`], [`StagedCheckpoint::commit`]
    /// and [`Checkpointer::note_committed`] in sequence.
    pub fn checkpoint(
        &mut self,
        epoch: u64,
        pools: &[(PoolId, &Engine)],
        ledger: &Ledger,
        deposits: &Deposits,
        aux: Vec<(u8, Vec<u8>)>,
    ) -> CheckpointOutput {
        let deposits = deposits.to_sorted_entries();
        let output = self.stage(epoch, pools, ledger, &deposits, aux).commit();
        self.note_committed(output.stats.epoch, output.stats.root);
        output
    }

    /// The encode-only half of [`Checkpointer::checkpoint`]: consumes
    /// dirty flags, (re-)encodes every section, refreshes the caches and
    /// cuts page diffs against the prior bytes (memcmp only), but
    /// performs **no hashing**. The returned [`StagedCheckpoint`] owns
    /// its sections, so its `commit` — the Merkle work — depends on
    /// nothing the live state does after this call returns.
    ///
    /// `deposits` is the deposit ledger's sorted export
    /// ([`Deposits::to_sorted_entries`], or the merge of several): the
    /// section's canonical encoding is ascending by address.
    pub fn stage(
        &mut self,
        epoch: u64,
        pools: &[(PoolId, &Engine)],
        ledger: &Ledger,
        deposits: &[(Address, (u128, u128))],
        mut aux: Vec<(u8, Vec<u8>)>,
    ) -> StagedCheckpoint {
        debug_assert!(crate::codec::ensure_sorted_keys(deposits).is_ok());
        // a delta base exists iff the caller confirmed the commit of
        // exactly the stage the caches reflect
        let base = match self.committed.take() {
            Some((e, root)) if self.cache_epoch == Some(e) => Some((e, root)),
            _ => None,
        };
        let prev_kinds: BTreeSet<SectionKind> = self
            .cache
            .keys()
            .map(|id| SectionKind::Pool(*id))
            .chain(self.other_cache.keys().copied())
            .collect();

        let mut sections = Vec::with_capacity(pools.len() + 2 + aux.len());
        let mut entries: Vec<(usize, PageDiffs)> = Vec::new();
        let mut reencoded = 0usize;
        let mut reused = 0usize;

        let mut sorted: Vec<&(PoolId, &Engine)> = pools.iter().collect();
        sorted.sort_by_key(|(id, _)| *id);
        for (id, pool) in sorted {
            let bytes = if self.is_dirty(*id) {
                reencoded += 1;
                let bytes = pool.export_state().encode_to_vec();
                if base.is_some() {
                    let old = self.cache.get(&id.0).map_or(&[] as &[u8], Vec::as_slice);
                    let raw = diff_pages(old, &bytes, self.page_size);
                    if !raw.is_empty() || old.len() != bytes.len() {
                        entries.push((sections.len(), raw));
                    }
                }
                self.cache.insert(id.0, bytes.clone());
                self.dirty.remove(&id.0);
                bytes
            } else {
                // clean pools reuse their cached bytes verbatim, so they
                // can never contribute a page diff
                reused += 1;
                self.cache[&id.0].clone()
            };
            sections.push(Section {
                kind: SectionKind::Pool(id.0),
                bytes,
            });
        }
        // drop cache entries for pools that no longer exist
        let live: BTreeSet<u32> = pools.iter().map(|(id, _)| id.0).collect();
        self.cache.retain(|id, _| live.contains(id));

        let mut others = vec![
            (SectionKind::Ledger, ledger.export_state().encode_to_vec()),
            (SectionKind::Deposits, deposits.encode_to_vec()),
        ];
        aux.sort_by_key(|(tag, _)| *tag);
        others.extend(
            aux.into_iter()
                .map(|(tag, bytes)| (SectionKind::Aux(tag), bytes)),
        );
        let live_others: BTreeSet<SectionKind> = others.iter().map(|(kind, _)| *kind).collect();
        for (kind, bytes) in others {
            if base.is_some() {
                let old = self
                    .other_cache
                    .get(&kind)
                    .map_or(&[] as &[u8], Vec::as_slice);
                if old != bytes.as_slice() {
                    let raw = diff_pages(old, &bytes, self.page_size);
                    entries.push((sections.len(), raw));
                }
            }
            self.other_cache.insert(kind, bytes.clone());
            sections.push(Section { kind, bytes });
        }
        self.other_cache
            .retain(|kind, _| live_others.contains(kind));

        let staged_delta = base.map(|(base_epoch, base_root)| {
            let current: BTreeSet<SectionKind> = sections.iter().map(|s| s.kind).collect();
            StagedDelta {
                base_epoch,
                base_root,
                removed: prev_kinds.difference(&current).copied().collect(),
                entries,
            }
        });

        self.cache_epoch = Some(epoch);
        StagedCheckpoint {
            epoch,
            sections,
            pools_total: pools.len(),
            pools_reencoded: reencoded,
            pools_reused: reused,
            page_size: self.page_size,
            staged_delta,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ammboost_amm::engines::EngineKind;
    use ammboost_amm::pool::SwapKind;
    use ammboost_amm::types::PositionId;
    use ammboost_crypto::Address;

    fn pool_with_liquidity(salt: u64) -> Engine {
        pool_of_kind(EngineKind::ConcentratedLiquidity, salt)
    }

    fn pool_of_kind(kind: EngineKind, salt: u64) -> Engine {
        let mut p = Engine::new_standard(kind);
        p.mint(
            PositionId::derive(&[b"ckpt", &salt.to_be_bytes()]),
            Address::from_index(salt),
            -600,
            600,
            10_000_000,
            10_000_000,
        )
        .unwrap();
        p
    }

    fn fixtures() -> (Ledger, Deposits) {
        (Ledger::new(H256::hash(b"genesis")), Deposits::new())
    }

    #[test]
    fn clean_pools_reuse_cached_encoding() {
        let pool_a = pool_with_liquidity(1);
        let mut pool_b = pool_with_liquidity(2);
        let (ledger, deposits) = fixtures();
        let mut cp = Checkpointer::new();

        let pools = [(PoolId(0), &pool_a), (PoolId(1), &pool_b)];
        let out1 = cp.checkpoint(1, &pools, &ledger, &deposits, vec![]);
        assert_eq!(
            out1.stats.pools_reencoded, 2,
            "first checkpoint encodes all"
        );
        assert!(out1.delta.is_none(), "nothing to diff against");

        // only pool 1 trades
        pool_b
            .swap(true, SwapKind::ExactInput(1_000), None)
            .unwrap();
        cp.mark_dirty(PoolId(1));
        let pools = [(PoolId(0), &pool_a), (PoolId(1), &pool_b)];
        let out2 = cp.checkpoint(2, &pools, &ledger, &deposits, vec![]);
        assert_eq!(out2.stats.pools_reencoded, 1);
        assert_eq!(out2.stats.pools_reused, 1);

        // the incremental snapshot matches a from-scratch one exactly
        let fresh = Checkpointer::new().checkpoint(2, &pools, &ledger, &deposits, vec![]);
        assert_eq!(out2.snapshot, fresh.snapshot);
        assert_eq!(out2.stats.root, fresh.stats.root);
    }

    #[test]
    fn dirty_flag_forces_reencode_and_root_changes() {
        let mut pool = pool_with_liquidity(1);
        let (ledger, deposits) = fixtures();
        let mut cp = Checkpointer::new();
        let out1 = cp.checkpoint(1, &[(PoolId(0), &pool)], &ledger, &deposits, vec![]);

        pool.swap(true, SwapKind::ExactInput(50_000), None).unwrap();
        cp.mark_dirty(PoolId(0));
        let out2 = cp.checkpoint(2, &[(PoolId(0), &pool)], &ledger, &deposits, vec![]);
        assert_eq!(out2.stats.pools_reencoded, 1);
        assert_ne!(
            out1.stats.root, out2.stats.root,
            "state change must move the root"
        );
    }

    #[test]
    fn stale_cache_without_dirty_mark_reuses_bytes() {
        // contract check: the cache answers for un-marked pools even if
        // the caller mutated them behind the checkpointer's back
        let mut pool = pool_with_liquidity(1);
        let (ledger, deposits) = fixtures();
        let mut cp = Checkpointer::new();
        let out1 = cp.checkpoint(1, &[(PoolId(0), &pool)], &ledger, &deposits, vec![]);
        pool.swap(true, SwapKind::ExactInput(50_000), None).unwrap();
        let out2 = cp.checkpoint(2, &[(PoolId(0), &pool)], &ledger, &deposits, vec![]);
        assert_eq!(out2.stats.pools_reused, 1);
        assert_eq!(
            out1.snapshot.section(SectionKind::Pool(0)),
            out2.snapshot.section(SectionKind::Pool(0))
        );
    }

    #[test]
    fn heterogeneous_fleet_checkpoints_with_engine_tags() {
        let cl = pool_of_kind(EngineKind::ConcentratedLiquidity, 1);
        let cp_pool = pool_of_kind(EngineKind::ConstantProduct, 2);
        let weighted = pool_of_kind(EngineKind::Weighted, 3);
        let (ledger, deposits) = fixtures();
        let pools = [
            (PoolId(0), &cl),
            (PoolId(1), &cp_pool),
            (PoolId(2), &weighted),
        ];
        let out = Checkpointer::new().checkpoint(4, &pools, &ledger, &deposits, vec![]);
        assert_eq!(out.snapshot.version, SNAPSHOT_VERSION);
        assert_eq!(out.stats.pools_reencoded, 3);
        // every pool section leads with its engine-kind tag
        for ((_, engine), (_, section)) in pools.iter().zip(out.snapshot.pool_sections()) {
            assert_eq!(section.bytes[0], engine.kind().tag());
        }
    }

    #[test]
    fn deferred_commit_is_byte_identical_to_immediate_checkpoint() {
        // stage at epoch 2, keep mutating the pool, then commit: the
        // staged sections own their bytes, so the late commit must equal
        // an immediate checkpoint taken at stage time — the contract a
        // caller that stages and commits in two steps relies on
        let mut pool = pool_with_liquidity(1);
        let (ledger, deposits) = fixtures();
        let pools = [(PoolId(0), &pool)];

        let mut cp_now = Checkpointer::new();
        let now = cp_now.checkpoint(2, &pools, &ledger, &deposits, vec![]);

        let mut cp_late = Checkpointer::new();
        let deposits = deposits.to_sorted_entries();
        let staged = cp_late.stage(2, &[(PoolId(0), &pool)], &ledger, &deposits, vec![]);
        assert_eq!(staged.epoch(), 2);
        pool.swap(true, SwapKind::ExactInput(123_456), None)
            .unwrap();
        let late = staged.commit();

        assert_eq!(late.snapshot, now.snapshot);
        assert_eq!(late.stats, now.stats);
        assert_eq!(
            late.snapshot.encode(),
            now.snapshot.encode(),
            "wire bytes diverge"
        );
    }

    #[test]
    fn aux_sections_sorted_by_tag() {
        let pool = pool_with_liquidity(1);
        let (ledger, deposits) = fixtures();
        let out = Checkpointer::new().checkpoint(
            1,
            &[(PoolId(0), &pool)],
            &ledger,
            &deposits,
            vec![(9, vec![9]), (1, vec![1])],
        );
        let tags: Vec<SectionKind> = out.snapshot.sections.iter().map(|s| s.kind).collect();
        assert_eq!(
            tags,
            vec![
                SectionKind::Pool(0),
                SectionKind::Ledger,
                SectionKind::Deposits,
                SectionKind::Aux(1),
                SectionKind::Aux(9),
            ]
        );
    }

    #[test]
    fn second_checkpoint_emits_delta_that_applies_cleanly() {
        let pool_a = pool_with_liquidity(1);
        let mut pool_b = pool_with_liquidity(2);
        let (ledger, deposits) = fixtures();
        let mut cp = Checkpointer::new();
        let pools = [(PoolId(0), &pool_a), (PoolId(1), &pool_b)];
        let out1 = cp.checkpoint(1, &pools, &ledger, &deposits, vec![]);

        pool_b
            .swap(true, SwapKind::ExactInput(5_000), None)
            .unwrap();
        cp.mark_dirty(PoolId(1));
        let pools = [(PoolId(0), &pool_a), (PoolId(1), &pool_b)];
        let out2 = cp.checkpoint(2, &pools, &ledger, &deposits, vec![]);

        let delta = out2.delta.expect("second checkpoint diffs");
        assert_eq!(delta.base_root, out1.stats.root);
        assert_eq!(delta.base_epoch, 1);
        // the clean pool contributes nothing
        assert!(delta.deltas.iter().all(|d| d.kind != SectionKind::Pool(0)));
        assert_eq!(delta.apply(&out1.snapshot).unwrap(), out2.snapshot);
        assert_eq!(out2.stats.pages_dirty, delta.pages());
        assert_eq!(out2.stats.delta_bytes, delta.encoded_len() as u64);
        assert!(
            out2.stats.delta_bytes < out2.stats.snapshot_bytes,
            "delta must undercut the full snapshot"
        );
    }

    #[test]
    fn removed_pool_and_aux_listed_in_delta() {
        let pool_a = pool_with_liquidity(1);
        let pool_b = pool_with_liquidity(2);
        let (ledger, deposits) = fixtures();
        let mut cp = Checkpointer::new();
        let pools = [(PoolId(0), &pool_a), (PoolId(1), &pool_b)];
        let out1 = cp.checkpoint(1, &pools, &ledger, &deposits, vec![(4, vec![1, 2])]);

        // pool 1 and the aux section disappear
        let pools = [(PoolId(0), &pool_a)];
        let out2 = cp.checkpoint(2, &pools, &ledger, &deposits, vec![]);
        let delta = out2.delta.expect("delta present");
        assert_eq!(
            delta.removed,
            vec![SectionKind::Pool(1), SectionKind::Aux(4)]
        );
        assert_eq!(delta.apply(&out1.snapshot).unwrap(), out2.snapshot);
    }

    #[test]
    fn unconfirmed_commit_yields_no_delta() {
        let pool = pool_with_liquidity(1);
        let (ledger, deposits) = fixtures();
        let deposits = deposits.to_sorted_entries();
        let mut cp = Checkpointer::new();
        // raw stage/commit without note_committed: the checkpointer must
        // not guess that the base landed
        let _ = cp
            .stage(1, &[(PoolId(0), &pool)], &ledger, &deposits, vec![])
            .commit();
        let out2 = cp
            .stage(2, &[(PoolId(0), &pool)], &ledger, &deposits, vec![])
            .commit();
        assert!(out2.delta.is_none());
    }

    #[test]
    fn stale_note_is_ignored() {
        let pool = pool_with_liquidity(1);
        let (ledger, deposits) = fixtures();
        let deposits = deposits.to_sorted_entries();
        let mut cp = Checkpointer::new();
        let out1 = cp
            .stage(1, &[(PoolId(0), &pool)], &ledger, &deposits, vec![])
            .commit();
        // a second stage runs before the note arrives: the caches moved
        // on, so noting epoch 1 must not produce an epoch-1-based delta
        let _ = cp
            .stage(2, &[(PoolId(0), &pool)], &ledger, &deposits, vec![])
            .commit();
        cp.note_committed(1, out1.stats.root);
        let out3 = cp
            .stage(3, &[(PoolId(0), &pool)], &ledger, &deposits, vec![])
            .commit();
        assert!(out3.delta.is_none(), "stale note must fail safe");
    }

    #[test]
    fn delta_chain_across_epochs_matches_full_snapshots() {
        let mut pool = pool_with_liquidity(1);
        let (ledger, deposits) = fixtures();
        let mut cp = Checkpointer::new();
        let mut current = cp
            .checkpoint(0, &[(PoolId(0), &pool)], &ledger, &deposits, vec![])
            .snapshot;
        for epoch in 1..5u64 {
            pool.swap(true, SwapKind::ExactInput(10_000 * epoch as u128), None)
                .unwrap();
            cp.mark_dirty(PoolId(0));
            let out = cp.checkpoint(epoch, &[(PoolId(0), &pool)], &ledger, &deposits, vec![]);
            let delta = out.delta.expect("chained delta");
            // wire round-trip, then apply onto the running base
            let decoded = DeltaSnapshot::decode(&delta.encode()).unwrap();
            current = decoded.apply(&current).unwrap();
            assert_eq!(current, out.snapshot, "epoch {epoch}");
            assert_eq!(current.encode(), out.snapshot.encode());
        }
    }
}
