//! Incremental checkpointing with dirty-pool tracking, a page-hash
//! cache and delta emission.
//!
//! A [`Checkpointer`] owns the encoded form of every section from the
//! previous checkpoint and, once that checkpoint was committed, the hash
//! of every [`PAGE_SIZE`] page of it — the leaves under each section's
//! page root (each section's leaf). Pools are re-encoded only when they
//! were marked dirty since; clean pools reuse their cached bytes. Staging
//! diffs every re-encoded section against its cached bytes page by page
//! (pure memcmp — no hashing in the stage half); committing hashes only
//! the pages that changed, four at a time across all sections, splices
//! them into the cached page hashes and refolds the changed sections'
//! page roots. A section whose bytes did not move keeps its leaf. So the
//! Keccak work of a checkpoint scales with the *touched* state, not the
//! total state — the incremental analogue of the paper's "commit
//! summaries, not history".
//!
//! Once the caller confirms a commit landed
//! ([`Checkpointer::note_committed`]), the next commit also emits a
//! [`DeltaSnapshot`] alongside the full snapshot: base root, the changed
//! pages with the sub-leaf hashes the commit just computed, removed
//! sections. The journal persists the delta; the full snapshot stays the
//! source of truth the delta is proven against.

use crate::codec::Encode;
use crate::delta::{DeltaSnapshot, SectionDelta};
use crate::pages::{
    diff_pages, hash_page_refs, page_count, page_of, page_root_from_hashes, section_page_hashes,
    PageDiff, PageRef, PAGE_SIZE,
};
use crate::snapshot::{check_canonical, Section, SectionKind, Snapshot};
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
    /// Pages across all sections.
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

/// A section's page hashes and the page root they fold to.
#[derive(Debug)]
struct PageHashes {
    pages: Vec<H256>,
    leaf: H256,
}

/// One cached section: the encoding of the last stage and, once that
/// stage was committed, its page hashes.
#[derive(Debug)]
struct Cached {
    bytes: Vec<u8>,
    hashes: Option<PageHashes>,
}

/// What a commit has to hash for one staged section.
#[derive(Debug)]
struct StagedSection {
    /// Pages whose bytes differ from the cached encoding (every page of a
    /// section new to the cache).
    changed: Vec<u32>,
    /// Whether the bytes differ at all (a shrink to a page boundary
    /// changes no page, only the length).
    modified: bool,
    /// The cached encoding's page hashes; `None` when that encoding was
    /// never committed, and then every page is hashed.
    cached: Option<PageHashes>,
}

/// The observing half of a checkpoint: every section encoded, dirty
/// flags consumed, byte cache refreshed, changed pages found —
/// everything that must read the live node state. What remains
/// ([`StagedCheckpoint::commit`]) is hashing and assembly over the bytes
/// this struct *owns* and the page hashes the checkpointer cached: a
/// function of those and of nothing the node does afterwards, and a
/// separately timed span for a caller that wants to tell encoding from
/// hashing. It borrows the checkpointer, whose page-hash cache the commit
/// refreshes; a stage that is dropped uncommitted leaves that cache
/// empty, so the next commit hashes every page.
#[derive(Debug)]
pub struct StagedCheckpoint<'a> {
    cache: &'a mut BTreeMap<SectionKind, Cached>,
    epoch: u64,
    sections: Vec<Section>,
    staged: Vec<StagedSection>,
    pools_total: usize,
    pools_reencoded: usize,
    pools_reused: usize,
    /// The confirmed base a delta is cut against — epoch, root and the
    /// sections it had that are gone now.
    base: Option<(u64, H256, Vec<SectionKind>)>,
}

impl StagedCheckpoint<'_> {
    /// The epoch this stage covers.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Finishes the checkpoint: hashes every changed page — and every
    /// page of a section without cached hashes — in one four-lane run
    /// across sections, refolds the changed sections' page roots, seals
    /// the [`Snapshot`] under those leaves, assembles the
    /// [`DeltaSnapshot`] from the same page hashes when a confirmed base
    /// exists, and reports stats. Deterministic in the staged data alone
    /// — committing after the live state has moved on yields
    /// byte-identical output to an inline commit.
    pub fn commit(self) -> CheckpointOutput {
        let kinds: Vec<Vec<u8>> = self
            .sections
            .iter()
            .map(|s| s.kind.encode_to_vec())
            .collect();
        let mut dirty: Vec<PageRef<'_>> = Vec::new();
        for ((section, staged), kind) in self.sections.iter().zip(&self.staged).zip(&kinds) {
            let kind = kind.as_slice();
            if staged.cached.is_some() {
                dirty.extend(
                    (staged.changed.iter()).map(|&i| (kind, i, page_of(&section.bytes, i))),
                );
            } else {
                let pages = section.bytes.chunks(PAGE_SIZE).enumerate();
                dirty.extend(pages.map(|(i, page)| (kind, i as u32, page)));
            }
        }
        let mut fresh = hash_page_refs(&dirty).into_iter();

        let mut staged = self.staged;
        let hashes: Vec<PageHashes> = (self.sections.iter().zip(&mut staged))
            .map(|(section, staged)| {
                let (kind, len) = (section.kind, section.bytes.len());
                let pages = match staged.cached.take() {
                    Some(cached) if !staged.modified => return cached,
                    Some(PageHashes { mut pages, .. }) => {
                        pages.resize(page_count(len), H256::ZERO);
                        for &i in &staged.changed {
                            pages[i as usize] = fresh.next().expect("a hash per changed page");
                        }
                        pages
                    }
                    None => fresh.by_ref().take(page_count(len)).collect(),
                };
                let leaf = page_root_from_hashes(kind, len, &pages);
                PageHashes { pages, leaf }
            })
            .collect();

        let leaves = hashes.iter().map(|h| h.leaf).collect();
        let pages_total: usize = hashes.iter().map(|h| h.pages.len()).sum();
        let snapshot = Snapshot::from_leaves(self.epoch, self.sections, leaves)
            .expect("stage emits sections in canonical order");
        let delta = self.base.map(|(base_epoch, base_root, removed)| {
            let sections = snapshot.sections().iter().zip(&staged).zip(&hashes);
            let deltas = sections
                .filter(|((_, staged), _)| staged.modified)
                .map(|((section, staged), hashes)| SectionDelta {
                    kind: section.kind,
                    new_len: section.bytes.len() as u32,
                    new_hash: hashes.leaf,
                    pages: (staged.changed.iter())
                        .map(|&index| PageDiff {
                            index,
                            hash: hashes.pages[index as usize],
                            bytes: page_of(&section.bytes, index).to_vec(),
                        })
                        .collect(),
                })
                .collect();
            DeltaSnapshot {
                base_epoch,
                epoch: snapshot.epoch(),
                base_root,
                root: snapshot.root(),
                removed,
                deltas,
            }
        });
        for (section, hashes) in snapshot.sections().iter().zip(hashes) {
            let cached = self.cache.get_mut(&section.kind);
            cached.expect("staged sections are cached").hashes = Some(hashes);
        }

        let stats = CheckpointStats {
            epoch: snapshot.epoch(),
            pools_total: self.pools_total,
            pools_reencoded: self.pools_reencoded,
            pools_reused: self.pools_reused,
            // exact wire sizes without serializing
            snapshot_bytes: snapshot.encoded_len() as u64,
            root: snapshot.root(),
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
/// the section and page-hash caches stay warm.
#[derive(Debug, Default)]
pub struct Checkpointer {
    /// Every section of the last stage, by kind.
    cache: BTreeMap<SectionKind, Cached>,
    /// Pools mutated since their cached encoding was produced.
    dirty: BTreeSet<u32>,
    /// Epoch the caches reflect (the last staged epoch).
    cache_epoch: Option<u64>,
    /// Last commit the caller confirmed, when it matches `cache_epoch` —
    /// the base the next stage may diff against.
    committed: Option<(u64, H256)>,
}

impl Checkpointer {
    /// A checkpointer with an empty (all-dirty) cache.
    pub fn new() -> Checkpointer {
        Checkpointer::default()
    }

    /// A checkpointer that holds `snapshot` as if it had staged and
    /// committed it itself: every section's bytes and page hashes, with
    /// the snapshot's epoch and root as the confirmed base. A node
    /// restored from `snapshot` checkpoints on from here, so its first
    /// checkpoint re-encodes only the pools marked dirty since, hashes only
    /// the pages that changed and emits a [`DeltaSnapshot`] against
    /// `snapshot`.
    pub fn resume(snapshot: &Snapshot) -> Checkpointer {
        let sections = snapshot.sections();
        let pages = section_page_hashes(sections);
        let cache = (sections.iter().zip(pages).zip(snapshot.leaves()))
            .map(|((section, pages), &leaf)| {
                let hashes = Some(PageHashes { pages, leaf });
                let bytes = section.bytes.clone();
                (section.kind, Cached { bytes, hashes })
            })
            .collect();
        Checkpointer {
            cache,
            dirty: BTreeSet::new(),
            cache_epoch: Some(snapshot.epoch()),
            committed: Some((snapshot.epoch(), snapshot.root())),
        }
    }

    /// Records that `pool` changed since the last checkpoint; its next
    /// snapshot section will be re-encoded.
    pub fn mark_dirty(&mut self, pool: PoolId) {
        self.dirty.insert(pool.0);
    }

    /// Whether `pool` must be re-encoded at the next checkpoint (an
    /// uncached pool counts as dirty).
    pub fn is_dirty(&self, pool: PoolId) -> bool {
        self.dirty.contains(&pool.0) || !self.cache.contains_key(&SectionKind::Pool(pool.0))
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
    /// previous checkpoint. Pool sections are engine-tagged, so a
    /// heterogeneous fleet snapshots uniformly.
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
    /// dirty flags, (re-)encodes every section, refreshes the byte cache
    /// and finds each section's changed pages against the prior bytes
    /// (memcmp only), but performs **no hashing**. The returned
    /// [`StagedCheckpoint`] owns its sections, so its `commit` — the
    /// Merkle work — depends on nothing the live state does after this
    /// call returns.
    ///
    /// `deposits` is the deposit ledger's sorted export
    /// ([`Deposits::to_sorted_entries`], or the merge of several): the
    /// section's canonical encoding is ascending by address.
    ///
    /// # Panics
    /// Panics when two pools share an id or two aux sections a tag.
    pub fn stage(
        &mut self,
        epoch: u64,
        pools: &[(PoolId, &Engine)],
        ledger: &Ledger,
        deposits: &[(Address, (u128, u128))],
        mut aux: Vec<(u8, Vec<u8>)>,
    ) -> StagedCheckpoint<'_> {
        debug_assert!(crate::codec::ensure_sorted_keys(deposits).is_ok());
        // a delta base exists iff the caller confirmed the commit of
        // exactly the stage the caches reflect
        let base = match self.committed.take() {
            Some((e, root)) if self.cache_epoch == Some(e) => Some((e, root)),
            _ => None,
        };

        // every section in canonical order, with its fresh encoding — or
        // none for a clean pool, whose cached bytes stand
        let mut next: Vec<(SectionKind, Option<Vec<u8>>)> =
            Vec::with_capacity(pools.len() + 2 + aux.len());
        let (mut reencoded, mut reused) = (0usize, 0usize);
        let mut sorted: Vec<&(PoolId, &Engine)> = pools.iter().collect();
        sorted.sort_by_key(|(id, _)| *id);
        for (id, pool) in sorted {
            let bytes = if self.is_dirty(*id) {
                reencoded += 1;
                self.dirty.remove(&id.0);
                Some(pool.export_state().encode_to_vec())
            } else {
                reused += 1;
                None
            };
            next.push((SectionKind::Pool(id.0), bytes));
        }
        next.push((SectionKind::Ledger, Some(ledger.encode_to_vec())));
        next.push((SectionKind::Deposits, Some(deposits.encode_to_vec())));
        aux.sort_by_key(|(tag, _)| *tag);
        next.extend(
            aux.into_iter()
                .map(|(tag, bytes)| (SectionKind::Aux(tag), Some(bytes))),
        );
        assert!(
            check_canonical(next.iter().map(|(kind, _)| kind)).is_ok(),
            "pool ids and aux tags must be distinct"
        );

        let live: BTreeSet<SectionKind> = next.iter().map(|(kind, _)| *kind).collect();
        let removed: Vec<SectionKind> = (self.cache.keys())
            .filter(|kind| !live.contains(kind))
            .copied()
            .collect();
        for kind in &removed {
            self.cache.remove(kind);
        }

        let mut sections = Vec::with_capacity(next.len());
        let mut staged = Vec::with_capacity(next.len());
        for (kind, fresh) in next {
            let is_new = !self.cache.contains_key(&kind);
            let cached = self.cache.entry(kind).or_insert(Cached {
                bytes: Vec::new(),
                hashes: None,
            });
            let (changed, modified) = match fresh {
                None => (Vec::new(), false),
                Some(bytes) => {
                    let changed = diff_pages(&cached.bytes, &bytes);
                    let modified =
                        is_new || !changed.is_empty() || cached.bytes.len() != bytes.len();
                    cached.bytes = bytes;
                    (changed, modified)
                }
            };
            sections.push(Section {
                kind,
                bytes: cached.bytes.clone(),
            });
            staged.push(StagedSection {
                changed,
                modified,
                cached: cached.hashes.take(),
            });
        }

        self.cache_epoch = Some(epoch);
        StagedCheckpoint {
            cache: &mut self.cache,
            epoch,
            sections,
            staged,
            pools_total: pools.len(),
            pools_reencoded: reencoded,
            pools_reused: reused,
            base: base.map(|(e, root)| (e, root, removed)),
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
        let tags: Vec<SectionKind> = out.snapshot.sections().iter().map(|s| s.kind).collect();
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
    fn new_empty_section_is_carried_by_the_delta() {
        // an aux section that appears empty changes no page, but it is
        // still new: the delta must carry it or apply loses it
        let pool = pool_with_liquidity(1);
        let (ledger, deposits) = fixtures();
        let mut cp = Checkpointer::new();
        let out1 = cp.checkpoint(1, &[(PoolId(0), &pool)], &ledger, &deposits, vec![]);
        let out2 = cp.checkpoint(
            2,
            &[(PoolId(0), &pool)],
            &ledger,
            &deposits,
            vec![(5, vec![])],
        );
        let delta = out2.delta.expect("delta present");
        assert!(delta.deltas.iter().any(|d| d.kind == SectionKind::Aux(5)));
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
    fn leaves_match_a_fresh_seal_whatever_the_cache_held() {
        // a committed stage, then one dropped uncommitted (its page
        // hashes never computed), then one committed: every output must
        // be the snapshot `seal` builds from the same sections
        let mut pool = pool_with_liquidity(1);
        let (ledger, deposits) = fixtures();
        let deposits = deposits.to_sorted_entries();
        let mut cp = Checkpointer::new();
        let check = |out: &CheckpointOutput| {
            let sections = out.snapshot.sections().to_vec();
            let sealed = Snapshot::seal(out.stats.epoch, sections).unwrap();
            assert_eq!(out.snapshot, sealed, "epoch {}", out.stats.epoch);
            assert_eq!(out.stats.root, sealed.root());
        };
        let out = cp
            .stage(1, &[(PoolId(0), &pool)], &ledger, &deposits, vec![])
            .commit();
        check(&out);
        cp.note_committed(1, out.stats.root);
        for epoch in 2..4u64 {
            pool.swap(true, SwapKind::ExactInput(20_000 * epoch as u128), None)
                .unwrap();
            cp.mark_dirty(PoolId(0));
            let aux = vec![(3, vec![epoch as u8; 3000])];
            let staged = cp.stage(epoch, &[(PoolId(0), &pool)], &ledger, &deposits, aux);
            if epoch == 2 {
                drop(staged);
                continue;
            }
            let out = staged.commit();
            check(&out);
            assert!(out.delta.is_none(), "the base was never confirmed");
        }
    }

    #[test]
    fn resumed_checkpointer_continues_as_the_one_that_committed() {
        // two pools, one traded after the base: a checkpointer resumed
        // from the base snapshot produces the very output of the one that
        // committed it — reuse, dirty pages, delta and all
        let pool_a = pool_with_liquidity(1);
        let mut pool_b = pool_with_liquidity(2);
        let (ledger, deposits) = fixtures();
        let mut live = Checkpointer::new();
        let pools = [(PoolId(0), &pool_a), (PoolId(1), &pool_b)];
        let base = live.checkpoint(1, &pools, &ledger, &deposits, vec![(2, vec![7; 5000])]);
        let mut resumed = Checkpointer::resume(&base.snapshot);

        pool_b
            .swap(true, SwapKind::ExactInput(5_000), None)
            .unwrap();
        let pools = [(PoolId(0), &pool_a), (PoolId(1), &pool_b)];
        let outs = [&mut live, &mut resumed].map(|cp| {
            cp.mark_dirty(PoolId(1));
            cp.checkpoint(2, &pools, &ledger, &deposits, vec![(2, vec![8; 5000])])
        });
        let [live, resumed] = outs;
        assert_eq!(resumed.stats, live.stats);
        assert_eq!(
            (resumed.stats.pools_reencoded, resumed.stats.pools_reused),
            (1, 1)
        );
        assert_eq!(resumed.snapshot, live.snapshot);
        let delta = resumed.delta.expect("the snapshot is the base");
        assert_eq!(delta.base_root, base.stats.root);
        assert_eq!(Some(delta), live.delta);
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
