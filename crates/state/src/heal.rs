//! Page-granular self-healing fast sync.
//!
//! Plain [`restore`] trusts one source and fails on
//! the first bad byte. For a late-joiner on a real network that is not
//! good enough: providers lag, drop requests, serve stale roots, or
//! corrupt payloads in flight. This module turns fast sync into a
//! page-by-page protocol with one trust object:
//!
//! 1. A [`SyncManifest`] — the snapshot epoch plus each section's kind,
//!    byte length and [`PAGE_SIZE`] page hashes — is fetched from any
//!    provider. Each entry folds to its section's page root, which is the
//!    section's v4 leaf, and the leaves fold to a root
//!    ([`root_from_leaves`]). A manifest out of canonical order, with a
//!    page-hash count that disagrees with its length, or folding to
//!    anything but the *trusted* root (from consensus) is counted stale
//!    before any page moves.
//! 2. Every page the joiner does not already hold is fetched and checked
//!    against its page hash. A mismatching, truncated, duplicated or
//!    dropped page is **quarantined** — never used — and re-fetched from
//!    the next provider in rotation, with bounded retries and
//!    deterministic exponential backoff on simulated time. A cold joiner
//!    holds nothing; one with a stale snapshot reuses every section whose
//!    sealed leaf still matches and every page whose hash does.
//! 3. The reassembled snapshot is sealed under the manifest's leaves, so
//!    its root is the trusted root before [`restore`] runs.
//!
//! Only v4 roots are healed toward: a v2/v3 leaf is a flat hash with no
//! pages under it. v2/v3 snapshots still decode and restore, and a v3
//! snapshot held locally lends its pages, its sections being encoded
//! exactly as v4's.
//!
//! The result: a sync succeeds as long as *some* provider serves each
//! page honestly, and every failure mode is a typed [`SyncError`], not a
//! panic or abort. Providers are simulated ([`SectionProvider`]), with
//! [`SimProvider`] wiring byte faults from a shared
//! [`FaultInjector`] into its replies.

use crate::pages::{
    page_count, page_hash, page_hashes, page_root_from_hashes, section_page_hashes, PAGE_SIZE,
};
use crate::snapshot::{
    check_canonical, root_from_leaves, Section, SectionKind, Snapshot, SNAPSHOT_VERSION,
};
use crate::sync::{restore, RestoreError, RestoredState};
use ammboost_crypto::H256;
use ammboost_sim::{FaultInjector, FaultKind, InjectionPoint, SimDuration};
use std::fmt;
use std::sync::{Arc, Mutex};

/// Why a self-healing sync failed. Replaces the panic/abort behaviour of
/// the plain restore path with a closed taxonomy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SyncError {
    /// A pool-section decoder panicked; contained and reported by pool id.
    SectionDecodeFailed {
        /// Pool id of the section whose decoder panicked.
        section: u32,
    },
    /// No provider served a manifest committing to the trusted root.
    NoValidManifest {
        /// Providers asked.
        providers_tried: usize,
        /// How many of them served a malformed manifest or one for a
        /// *different* root.
        stale: usize,
    },
    /// A page of a section could not be healed within the retry budget.
    HealExhausted {
        /// Index of the section in canonical order.
        section: usize,
        /// Fetch attempts spent on the page.
        attempts: u32,
    },
    /// The healed snapshot restored with a non-byte-level error (missing
    /// section, invalid pool state, codec bug).
    Restore(RestoreError),
}

impl fmt::Display for SyncError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SyncError::SectionDecodeFailed { section } => {
                write!(f, "pool section {section} decoder panicked")
            }
            SyncError::NoValidManifest {
                providers_tried,
                stale,
            } => write!(
                f,
                "no valid manifest from {providers_tried} providers ({stale} stale)"
            ),
            SyncError::HealExhausted { section, attempts } => {
                write!(f, "section {section} unhealed after {attempts} attempts")
            }
            SyncError::Restore(e) => write!(f, "healed snapshot failed to restore: {e}"),
        }
    }
}

impl std::error::Error for SyncError {}

impl From<RestoreError> for SyncError {
    fn from(e: RestoreError) -> Self {
        match e {
            RestoreError::SectionDecodeFailed { section } => {
                SyncError::SectionDecodeFailed { section }
            }
            other => SyncError::Restore(other),
        }
    }
}

/// One section of a [`SyncManifest`]: what its v4 leaf is folded from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Section kind.
    pub kind: SectionKind,
    /// Byte length of the section encoding.
    pub len: u32,
    /// [`page_hash`] of every [`PAGE_SIZE`] page, in index order.
    pub page_hashes: Vec<H256>,
}

/// What a late-joiner syncs against: the snapshot epoch and, per section
/// in canonical order, its kind, length and page hashes. The entries fold
/// to the v4 section leaves and those to the root, so one manifest binds
/// every page to the trusted root without carrying any payload. It costs
/// 32 B per KiB of state (≈ 3 %), and a joiner receives all of it, the
/// entries of sections it already holds included.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyncManifest {
    /// Snapshot epoch.
    pub epoch: u64,
    /// One entry per section, canonical order.
    pub sections: Vec<ManifestEntry>,
}

impl SyncManifest {
    /// The manifest of `snapshot`'s sections sealed as v4: every page of
    /// every section hashed once, in one four-lane run.
    pub fn of(snapshot: &Snapshot) -> SyncManifest {
        let hashes = section_page_hashes(snapshot.sections());
        let sections = (snapshot.sections().iter().zip(hashes))
            .map(|(s, page_hashes)| ManifestEntry {
                kind: s.kind,
                len: s.bytes.len() as u32,
                page_hashes,
            })
            .collect();
        SyncManifest {
            epoch: snapshot.epoch(),
            sections,
        }
    }

    /// Each section's v4 leaf: the page root its entry folds to.
    fn leaves(&self) -> Vec<H256> {
        (self.sections.iter())
            .map(|e| page_root_from_hashes(e.kind, e.len as usize, &e.page_hashes))
            .collect()
    }

    /// The v4 root this manifest commits to.
    pub fn root(&self) -> H256 {
        root_from_leaves(SNAPSHOT_VERSION, self.epoch, &self.leaves())
    }
}

/// One provider reply to a page fetch.
#[derive(Debug, Clone)]
pub enum PageReply {
    /// The page bytes, delivered immediately.
    Page(Vec<u8>),
    /// The page bytes, delivered after a simulated delay.
    Delayed {
        /// Simulated delivery delay in milliseconds.
        millis: u64,
        /// The (possibly corrupt) page bytes.
        bytes: Vec<u8>,
    },
    /// No reply (request dropped / provider offline).
    Dropped,
}

/// A simulated snapshot provider a late-joiner can fetch from.
pub trait SectionProvider {
    /// Stable provider id (used for fault addressing and reporting).
    fn id(&self) -> u32;
    /// The provider's manifest, or `None` if it does not answer.
    fn manifest(&mut self) -> Option<SyncManifest>;
    /// Fetches page `page` of the section at canonical `index`.
    fn fetch_page(&mut self, index: usize, page: u32) -> PageReply;
}

/// A provider serving one snapshot, optionally perturbed by a shared
/// [`FaultInjector`] at [`InjectionPoint::Provider`]`(id)`. Each request —
/// manifest or page — visits the injection point once, so occurrence
/// indexes address individual requests. [`FaultKind::StaleRoot`] serves
/// the manifest, or the same page, of an older snapshot (a lagging
/// replica) when one is configured; [`FaultKind::Panic`] is treated as a
/// drop (a crashed provider looks like silence from the fetcher's side).
/// Both manifests are built once, with the provider.
pub struct SimProvider {
    id: u32,
    fresh: (Snapshot, SyncManifest),
    stale: Option<(Snapshot, SyncManifest)>,
    injector: Option<Arc<Mutex<FaultInjector>>>,
}

impl SimProvider {
    /// An honest provider serving `snapshot`.
    pub fn honest(id: u32, snapshot: Snapshot) -> SimProvider {
        let manifest = SyncManifest::of(&snapshot);
        SimProvider {
            id,
            fresh: (snapshot, manifest),
            stale: None,
            injector: None,
        }
    }

    /// A provider whose replies consult `injector` at
    /// [`InjectionPoint::Provider`]`(id)`.
    pub fn faulty(id: u32, snapshot: Snapshot, injector: Arc<Mutex<FaultInjector>>) -> SimProvider {
        SimProvider {
            injector: Some(injector),
            ..SimProvider::honest(id, snapshot)
        }
    }

    /// Configures the older snapshot served when a stale-root fault fires.
    pub fn with_stale(mut self, stale: Snapshot) -> SimProvider {
        let manifest = SyncManifest::of(&stale);
        self.stale = Some((stale, manifest));
        self
    }

    fn fire(&self) -> Option<FaultKind> {
        self.injector
            .as_ref()
            .map(|inj| {
                inj.lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner())
                    .fire(InjectionPoint::Provider(self.id))
            })
            .unwrap_or(None)
    }

    fn mutate(&self, kind: FaultKind, bytes: &mut Vec<u8>) {
        if let Some(inj) = &self.injector {
            inj.lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .mutate(kind, bytes);
        }
    }

    fn source(&self, fault: Option<FaultKind>) -> &(Snapshot, SyncManifest) {
        match fault {
            Some(FaultKind::StaleRoot) => self.stale.as_ref().unwrap_or(&self.fresh),
            _ => &self.fresh,
        }
    }
}

impl SectionProvider for SimProvider {
    fn id(&self) -> u32 {
        self.id
    }

    fn manifest(&mut self) -> Option<SyncManifest> {
        match self.fire() {
            Some(FaultKind::Drop) | Some(FaultKind::Panic) => None,
            fault => Some(self.source(fault).1.clone()),
        }
    }

    fn fetch_page(&mut self, index: usize, page: u32) -> PageReply {
        let fault = self.fire();
        let section = self.source(fault).0.sections().get(index);
        let Some(bytes) = section.and_then(|s| s.bytes.chunks(PAGE_SIZE).nth(page as usize)) else {
            return PageReply::Dropped;
        };
        let mut bytes = bytes.to_vec();
        match fault {
            Some(FaultKind::Drop) | Some(FaultKind::Panic) => PageReply::Dropped,
            Some(FaultKind::Delay { millis }) => PageReply::Delayed { millis, bytes },
            Some(kind @ (FaultKind::BitFlip | FaultKind::Truncate | FaultKind::Duplicate)) => {
                self.mutate(kind, &mut bytes);
                PageReply::Page(bytes)
            }
            Some(FaultKind::StaleRoot) | None => PageReply::Page(bytes),
        }
    }
}

/// Retry budget and backoff schedule for healing fetches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total fetch attempts per page (first try included).
    pub max_attempts: u32,
    /// Backoff before retry `k` is `base_backoff * 2^(k-1)` — exponential
    /// and fully deterministic on the simulated clock.
    pub base_backoff: SimDuration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 6,
            base_backoff: SimDuration::from_millis(50),
        }
    }
}

impl RetryPolicy {
    /// The backoff waited before attempt `attempt` (0-based; the first
    /// attempt waits nothing).
    pub fn backoff_before(&self, attempt: u32) -> SimDuration {
        if attempt == 0 {
            SimDuration::ZERO
        } else {
            self.base_backoff
                .saturating_mul(1u64 << (attempt - 1).min(32))
        }
    }
}

/// One quarantine event: a fetched page copy that failed verification
/// (or never arrived) and was discarded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quarantine {
    /// Canonical index of the page's section.
    pub section: usize,
    /// Provider that served the bad copy.
    pub provider: u32,
    /// Attempt number (0-based) at which it happened.
    pub attempt: u32,
    /// What was wrong: `"dropped"` or `"page-hash-mismatch"`.
    pub reason: &'static str,
}

/// What a healing sync did: which sections needed healing, how many pages
/// moved and how many were reused, how much retry/backoff budget it
/// spent, and the simulated time that passed.
#[derive(Debug, Clone, Default)]
pub struct HealReport {
    /// Every discarded bad copy, in fetch order.
    pub quarantined: Vec<Quarantine>,
    /// Sections with a page that needed a retry, all ending verified.
    pub healed_sections: Vec<usize>,
    /// Total page fetch attempts.
    pub attempts: u64,
    /// Total retries (attempts beyond the first per page).
    pub retries: u64,
    /// Sections reused wholesale from the local snapshot (sealed v4 leaf
    /// match).
    pub sections_reused: usize,
    /// Pages fetched from providers.
    pub pages_fetched: u64,
    /// Pages of the other sections reused from the local snapshot.
    pub pages_reused: u64,
    /// Simulated time consumed by backoff and delayed deliveries.
    pub sim_elapsed: SimDuration,
}

/// Fetches a manifest committing to `trusted_root` from the first
/// provider that serves one, in order, and returns it with that
/// provider's slot. Silent providers are skipped. A manifest whose
/// section kinds are out of canonical order or repeated, whose page-hash
/// count disagrees with a section's length, or that folds to another
/// root is counted stale and skipped.
///
/// # Errors
/// [`SyncError::NoValidManifest`] when every provider is silent or stale.
pub fn fetch_manifest(
    providers: &mut [&mut dyn SectionProvider],
    trusted_root: H256,
) -> Result<(SyncManifest, usize), SyncError> {
    let mut stale = 0usize;
    for (slot, provider) in providers.iter_mut().enumerate() {
        let Some(manifest) = provider.manifest() else {
            continue;
        };
        let entries = &manifest.sections;
        let consistent = |e: &ManifestEntry| e.page_hashes.len() == page_count(e.len as usize);
        let well_formed = check_canonical(entries.iter().map(|e| &e.kind)).is_ok()
            && entries.iter().all(consistent);
        if well_formed && manifest.root() == trusted_root {
            return Ok((manifest, slot));
        }
        stale += 1;
    }
    Err(SyncError::NoValidManifest {
        providers_tried: providers.len(),
        stale,
    })
}

/// Assembles section `index` from `entry`'s pages. A page whose hash the
/// `local` bytes already satisfy is reused; any other is fetched —
/// attempt `k` asks provider `(first + k) mod n` after waiting
/// [`RetryPolicy::backoff_before`]`(k)` on the simulated clock — and a
/// copy that is dropped or does not match its page hash is quarantined.
/// Every page then matches a hash under the trusted root, so the section
/// needs no further hashing.
fn fetch_pages(
    entry: &ManifestEntry,
    index: usize,
    local: &[u8],
    providers: &mut [&mut dyn SectionProvider],
    first: usize,
    policy: &RetryPolicy,
    report: &mut HealReport,
) -> Result<Section, SyncError> {
    let local_hashes = page_hashes(entry.kind, local);
    let mut bytes = vec![0u8; entry.len as usize];
    let mut retried = false;
    let slots = entry.page_hashes.iter().zip(bytes.chunks_mut(PAGE_SIZE));
    for (page, (want, slot)) in slots.enumerate() {
        match local.chunks(PAGE_SIZE).nth(page) {
            Some(held) if held.len() == slot.len() && local_hashes[page] == *want => {
                slot.copy_from_slice(held);
                report.pages_reused += 1;
                continue;
            }
            _ => {}
        }
        let page = page as u32;
        let mut fetched = None;
        for attempt in 0..policy.max_attempts {
            report.sim_elapsed += policy.backoff_before(attempt);
            report.attempts += 1;
            if attempt > 0 {
                report.retries += 1;
            }
            let provider = &mut providers[(first + attempt as usize) % providers.len()];
            let (got, delay) = match provider.fetch_page(index, page) {
                PageReply::Page(b) => (Some(b), 0),
                PageReply::Delayed { millis, bytes } => (Some(bytes), millis),
                PageReply::Dropped => (None, 0),
            };
            report.sim_elapsed += SimDuration::from_millis(delay);
            let reason = match got {
                Some(b) if b.len() == slot.len() && page_hash(entry.kind, page, &b) == *want => {
                    retried |= attempt > 0;
                    fetched = Some(b);
                    break;
                }
                Some(_) => "page-hash-mismatch",
                None => "dropped",
            };
            report.quarantined.push(Quarantine {
                section: index,
                provider: provider.id(),
                attempt,
                reason,
            });
        }
        let Some(b) = fetched else {
            return Err(SyncError::HealExhausted {
                section: index,
                attempts: policy.max_attempts,
            });
        };
        slot.copy_from_slice(&b);
        report.pages_fetched += 1;
    }
    if retried {
        report.healed_sections.push(index);
    }
    Ok(Section {
        kind: entry.kind,
        bytes,
    })
}

/// Fast sync toward `trusted_root`: fetches a manifest committing to it
/// ([`fetch_manifest`]), then assembles every section page by page. A
/// joiner holding a stale snapshot passes it as `local`: a v4 section
/// whose sealed leaf equals the manifest's is reused without hashing, and
/// any other local section lends every page whose hash matches — a v3
/// snapshot's included. A cold joiner passes `None` and fetches every
/// page. The reassembled snapshot is sealed under the manifest's leaves,
/// so its root is the trusted root.
///
/// # Errors
/// [`SyncError::NoValidManifest`] when no provider serves a manifest for
/// `trusted_root` (a v2/v3 root included: only v4 manifests exist);
/// [`SyncError::HealExhausted`] when some page has no honest copy within
/// the retry budget.
pub fn delta_sync(
    local: Option<&Snapshot>,
    providers: &mut [&mut dyn SectionProvider],
    trusted_root: H256,
    policy: &RetryPolicy,
) -> Result<(Snapshot, HealReport), SyncError> {
    let (manifest, first) = fetch_manifest(providers, trusted_root)?;
    let leaves = manifest.leaves();
    let mut report = HealReport::default();
    let mut sections = Vec::with_capacity(leaves.len());
    for (index, (entry, leaf)) in manifest.sections.iter().zip(&leaves).enumerate() {
        let held = local.and_then(|snap| {
            let at = snap.sections().iter().position(|s| s.kind == entry.kind)?;
            let sealed = snap.version() == SNAPSHOT_VERSION && snap.leaves()[at] == *leaf;
            Some((&snap.sections()[at], sealed))
        });
        if let Some((section, true)) = held {
            report.sections_reused += 1;
            sections.push(section.clone());
            continue;
        }
        let bytes = held.map_or(&[][..], |(section, _)| &section.bytes);
        let section = fetch_pages(entry, index, bytes, providers, first, policy, &mut report)?;
        sections.push(section);
    }
    let snapshot = Snapshot::from_leaves(SNAPSHOT_VERSION, manifest.epoch, sections, leaves)
        .expect("fetch_manifest admits canonical manifests only");
    Ok((snapshot, report))
}

/// [`delta_sync`] followed by [`restore`]: fast sync that ends on a fully
/// verified working state.
///
/// # Errors
/// Any [`SyncError`]; notably decoder panics surface as
/// [`SyncError::SectionDecodeFailed`], never as process aborts.
pub fn heal_restore(
    local: Option<&Snapshot>,
    providers: &mut [&mut dyn SectionProvider],
    trusted_root: H256,
    policy: &RetryPolicy,
) -> Result<(RestoredState, HealReport), SyncError> {
    let (snapshot, report) = delta_sync(local, providers, trusted_root, policy)?;
    Ok((restore(&snapshot)?, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::Checkpointer;
    use ammboost_amm::pool::{Pool, SwapKind};
    use ammboost_amm::types::{PoolId, PositionId};
    use ammboost_crypto::Address;
    use ammboost_sidechain::ledger::Ledger;
    use ammboost_sidechain::summary::Deposits;
    use ammboost_sim::FaultSpec;

    /// A two-pool snapshot whose pool sections span several pages: 40
    /// positions over 20 nested ranges, so one swap dirties the header
    /// and a few tick pages and leaves the position pages alone.
    fn snapshot_at(epoch: u64, extra_swap: bool) -> Snapshot {
        let mut pool = Pool::new_standard();
        for i in 0..40u64 {
            let width = 60 * (1 + (i % 20) as i32);
            pool.mint(
                PositionId::derive(&[b"heal", &i.to_be_bytes()]),
                Address::from_index(1 + i),
                -width,
                width,
                50_000_000,
                50_000_000,
            )
            .unwrap();
        }
        if extra_swap {
            pool.swap(true, SwapKind::ExactInput(5_000_000), None)
                .unwrap();
        }
        let pool = ammboost_amm::Engine::Cl(pool);
        let ledger = Ledger::new(H256::hash(b"genesis"));
        let mut deposits = Deposits::new();
        deposits.credit(Address::from_index(1), 100, 200).unwrap();
        Checkpointer::new()
            .checkpoint(
                epoch,
                &[(PoolId(0), &pool), (PoolId(1), &pool)],
                &ledger,
                &deposits,
                vec![],
            )
            .snapshot
    }

    fn injector(specs: &[FaultSpec]) -> Arc<Mutex<FaultInjector>> {
        let mut inj = FaultInjector::new(99);
        inj.schedule_all(specs.iter().copied());
        Arc::new(Mutex::new(inj))
    }

    /// Provider 0's occurrence index of the first page of `section` in a
    /// cold sync that accepts its manifest (occurrence 0) and asks it for
    /// every page first.
    fn first_page_occurrence(snap: &Snapshot, section: usize) -> u64 {
        let before = snap.sections()[..section].iter();
        1 + before
            .map(|s| page_count(s.bytes.len()) as u64)
            .sum::<u64>()
    }

    #[test]
    fn clean_sync_needs_no_healing() {
        let snap = snapshot_at(5, true);
        let root = snap.root();
        let mut p0 = SimProvider::honest(0, snap.clone());
        let mut providers: Vec<&mut dyn SectionProvider> = vec![&mut p0];
        let (restored, report) =
            heal_restore(None, &mut providers, root, &RetryPolicy::default()).unwrap();
        assert_eq!(restored.root, root);
        assert!(report.quarantined.is_empty());
        assert!(report.healed_sections.is_empty());
        assert_eq!(report.retries, 0);
        assert_eq!(report.sim_elapsed, SimDuration::ZERO);
        let pages = snap.sections().iter().map(|s| page_count(s.bytes.len()));
        assert_eq!(report.pages_fetched, pages.sum::<usize>() as u64);
    }

    #[test]
    fn every_byte_fault_is_quarantined_and_healed() {
        let snap = snapshot_at(5, true);
        let stale = snapshot_at(4, false);
        let root = snap.root();
        // provider 0 misbehaves on the first page of each section, four
        // ways; stale-root targets a pool header page because only the
        // pool sections differ between the fresh and the stale snapshot
        let kinds = [
            FaultKind::StaleRoot,
            FaultKind::BitFlip,
            FaultKind::Truncate,
            FaultKind::Duplicate,
        ];
        let specs: Vec<FaultSpec> = (kinds.iter().enumerate())
            .map(|(section, &kind)| FaultSpec {
                point: InjectionPoint::Provider(0),
                occurrence: first_page_occurrence(&snap, section),
                kind,
            })
            .collect();
        let inj = injector(&specs);
        let mut bad = SimProvider::faulty(0, snap.clone(), inj.clone()).with_stale(stale);
        let mut good = SimProvider::honest(1, snap.clone());
        let mut providers: Vec<&mut dyn SectionProvider> = vec![&mut bad, &mut good];
        let (restored, report) =
            heal_restore(None, &mut providers, root, &RetryPolicy::default()).unwrap();
        assert_eq!(restored.root, root);
        assert_eq!(report.quarantined.len(), 4, "all four bad copies caught");
        assert!(report
            .quarantined
            .iter()
            .all(|q| q.provider == 0 && q.reason == "page-hash-mismatch"));
        assert_eq!(report.healed_sections, vec![0, 1, 2, 3]);
        assert!(report.sim_elapsed > SimDuration::ZERO, "backoff was paid");
        assert_eq!(inj.lock().unwrap().events().len(), 4);
    }

    #[test]
    fn drops_and_delays_are_retried() {
        let snap = snapshot_at(5, true);
        let root = snap.root();
        let inj = injector(&[
            FaultSpec {
                point: InjectionPoint::Provider(0),
                occurrence: 1,
                kind: FaultKind::Drop,
            },
            FaultSpec {
                point: InjectionPoint::Provider(0),
                occurrence: 2,
                kind: FaultKind::Delay { millis: 123 },
            },
        ]);
        let mut flaky = SimProvider::faulty(0, snap.clone(), inj);
        let mut good = SimProvider::honest(1, snap.clone());
        let mut providers: Vec<&mut dyn SectionProvider> = vec![&mut flaky, &mut good];
        let (restored, report) =
            heal_restore(None, &mut providers, root, &RetryPolicy::default()).unwrap();
        assert_eq!(restored.root, root);
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.quarantined[0].reason, "dropped");
        // the delayed (but honest) reply is accepted, costing sim time
        assert!(report.sim_elapsed >= SimDuration::from_millis(123));
    }

    #[test]
    fn heal_exhausts_when_every_provider_is_dishonest() {
        let snap = snapshot_at(5, true);
        let root = snap.root();
        let policy = RetryPolicy {
            max_attempts: 3,
            base_backoff: SimDuration::from_millis(10),
        };
        // page 0's three attempts land on providers 0, 1, 0 — at
        // occurrences 1, 0, 2 respectively (provider 0's occurrence 0 is
        // the manifest call) — and every one of them drops
        let inj = injector(&[
            FaultSpec {
                point: InjectionPoint::Provider(0),
                occurrence: 1,
                kind: FaultKind::Drop,
            },
            FaultSpec {
                point: InjectionPoint::Provider(1),
                occurrence: 0,
                kind: FaultKind::Drop,
            },
            FaultSpec {
                point: InjectionPoint::Provider(0),
                occurrence: 2,
                kind: FaultKind::Drop,
            },
        ]);
        let mut a = SimProvider::faulty(0, snap.clone(), inj.clone());
        let mut b = SimProvider::faulty(1, snap.clone(), inj);
        let mut providers: Vec<&mut dyn SectionProvider> = vec![&mut a, &mut b];
        let got = heal_restore(None, &mut providers, root, &policy);
        assert_eq!(
            got.err(),
            Some(SyncError::HealExhausted {
                section: 0,
                attempts: 3
            })
        );
    }

    #[test]
    fn stale_manifest_rejected_then_served_by_honest_peer() {
        let snap = snapshot_at(5, true);
        let stale = snapshot_at(4, false);
        let root = snap.root();
        let inj = injector(&[FaultSpec {
            point: InjectionPoint::Provider(0),
            occurrence: 0,
            kind: FaultKind::StaleRoot,
        }]);
        let mut lagging = SimProvider::faulty(0, snap.clone(), inj).with_stale(stale.clone());
        let mut fresh = SimProvider::honest(1, snap.clone());
        let mut providers: Vec<&mut dyn SectionProvider> = vec![&mut lagging, &mut fresh];
        let (manifest, slot) = fetch_manifest(&mut providers, root).unwrap();
        assert_eq!((manifest.root(), slot), (root, 1));

        // with only the lagging provider the sync refuses to start
        let inj = injector(&[FaultSpec {
            point: InjectionPoint::Provider(0),
            occurrence: 0,
            kind: FaultKind::StaleRoot,
        }]);
        let mut lagging = SimProvider::faulty(0, snap, inj).with_stale(stale);
        let mut only: Vec<&mut dyn SectionProvider> = vec![&mut lagging];
        assert_eq!(
            fetch_manifest(&mut only, root).err(),
            Some(SyncError::NoValidManifest {
                providers_tried: 1,
                stale: 1
            })
        );
        // and with no provider at all, likewise
        assert_eq!(
            delta_sync(None, &mut [], root, &RetryPolicy::default()).err(),
            Some(SyncError::NoValidManifest {
                providers_tried: 0,
                stale: 0
            })
        );
    }

    #[test]
    fn backoff_is_exponential_and_deterministic() {
        let p = RetryPolicy {
            max_attempts: 5,
            base_backoff: SimDuration::from_millis(50),
        };
        let waits: Vec<u64> = (0..5).map(|k| p.backoff_before(k).as_millis()).collect();
        assert_eq!(waits, vec![0, 50, 100, 200, 400]);
    }

    #[test]
    fn manifest_binds_kind_and_content() {
        let snap = snapshot_at(5, true);
        let manifest = SyncManifest::of(&snap);
        assert_eq!(manifest.root(), snap.root());
        let mut kind = manifest.clone();
        kind.sections[1].kind = SectionKind::Pool(7);
        assert_ne!(kind.root(), snap.root(), "kind bound");
        let mut content = manifest.clone();
        content.sections[0].page_hashes[1].0[0] ^= 1;
        assert_ne!(content.root(), snap.root(), "content bound");
        let mut len = manifest.clone();
        len.sections[0].len -= 1;
        assert_ne!(len.root(), snap.root(), "length bound");
        let mut epoch = manifest;
        epoch.epoch += 1;
        assert_ne!(epoch.root(), snap.root(), "epoch bound");
    }

    /// An otherwise honest provider whose manifest is edited by `lie`,
    /// counting the pages it is asked for.
    struct LyingManifestProvider {
        inner: SimProvider,
        lie: fn(&mut SyncManifest),
        pages_asked: u32,
    }

    impl SectionProvider for LyingManifestProvider {
        fn id(&self) -> u32 {
            self.inner.id()
        }
        fn manifest(&mut self) -> Option<SyncManifest> {
            let mut manifest = self.inner.manifest()?;
            (self.lie)(&mut manifest);
            Some(manifest)
        }
        fn fetch_page(&mut self, index: usize, page: u32) -> PageReply {
            self.pages_asked += 1;
            self.inner.fetch_page(index, page)
        }
    }

    #[test]
    fn inconsistent_manifest_counts_as_stale() {
        // page-hash counts that disagree with the section length, one
        // hash too many, one too few and none at all, are refused before
        // the manifest is folded or any page moves
        let snap = snapshot_at(5, true);
        let lies: [fn(&mut SyncManifest); 3] = [
            |m| m.sections[0].page_hashes.push(H256::ZERO),
            |m| {
                m.sections[0].page_hashes.pop();
            },
            |m| m.sections[2].page_hashes.clear(),
        ];
        for lie in lies {
            let mut liar = LyingManifestProvider {
                inner: SimProvider::honest(0, snap.clone()),
                lie,
                pages_asked: 0,
            };
            let mut only: Vec<&mut dyn SectionProvider> = vec![&mut liar];
            assert_eq!(
                delta_sync(None, &mut only, snap.root(), &RetryPolicy::default()).err(),
                Some(SyncError::NoValidManifest {
                    providers_tried: 1,
                    stale: 1
                })
            );
            assert_eq!(liar.pages_asked, 0);
        }
    }

    #[test]
    fn delta_sync_moves_only_changed_pages() {
        let stale = snapshot_at(4, false);
        let fresh = snapshot_at(5, true);
        let root = fresh.root();
        assert!(
            fresh.sections()[0].bytes.len() > 4 * PAGE_SIZE,
            "multi-page pools"
        );
        let mut p0 = SimProvider::honest(0, fresh.clone());
        let mut providers: Vec<&mut dyn SectionProvider> = vec![&mut p0];
        let (synced, report) =
            delta_sync(Some(&stale), &mut providers, root, &RetryPolicy::default()).unwrap();
        assert_eq!(synced.root(), root);
        assert_eq!(synced, fresh);
        // ledger + deposits are byte-identical across the two epochs
        assert_eq!(report.sections_reused, 2);
        // both pool sections were page-synced, mostly from local bytes
        assert!(report.pages_fetched > 0);
        assert!(
            report.pages_reused > report.pages_fetched,
            "a one-swap diff must reuse more pages than it ships \
             (reused {}, fetched {})",
            report.pages_reused,
            report.pages_fetched
        );
        assert!(report.quarantined.is_empty());
        assert!(report.healed_sections.is_empty(), "nothing needed a retry");
    }

    #[test]
    fn tampered_page_quarantined_and_healed_by_honest_peer() {
        let stale = snapshot_at(4, false);
        let fresh = snapshot_at(5, true);
        let root = fresh.root();
        // provider 0 flips a byte in its first page reply (occurrence 0
        // is the manifest call, 1 the first page)
        let inj = injector(&[FaultSpec {
            point: InjectionPoint::Provider(0),
            occurrence: 1,
            kind: FaultKind::BitFlip,
        }]);
        let mut bad = SimProvider::faulty(0, fresh.clone(), inj);
        let mut good = SimProvider::honest(1, fresh.clone());
        let mut providers: Vec<&mut dyn SectionProvider> = vec![&mut bad, &mut good];
        let (synced, report) =
            delta_sync(Some(&stale), &mut providers, root, &RetryPolicy::default()).unwrap();
        assert_eq!(synced.root(), root);
        let bad_pages: Vec<&Quarantine> = report
            .quarantined
            .iter()
            .filter(|q| q.reason == "page-hash-mismatch")
            .collect();
        assert_eq!(bad_pages.len(), 1, "the flipped page was caught");
        assert_eq!(bad_pages[0].provider, 0);
        assert!(report.retries > 0, "the page was re-fetched elsewhere");
        assert_eq!(report.healed_sections, vec![0]);
    }

    #[test]
    fn lying_page_manifest_is_refused_before_any_page_moves() {
        let stale = snapshot_at(4, false);
        let fresh = snapshot_at(5, true);
        let root = fresh.root();
        let mut liar = LyingManifestProvider {
            inner: SimProvider::honest(0, fresh.clone()),
            lie: |m| m.sections[0].page_hashes[0].0[0] ^= 1,
            pages_asked: 0,
        };
        let mut honest = SimProvider::honest(1, fresh.clone());
        let mut providers: Vec<&mut dyn SectionProvider> = vec![&mut liar, &mut honest];
        let (synced, report) =
            delta_sync(Some(&stale), &mut providers, root, &RetryPolicy::default()).unwrap();
        assert_eq!(synced, fresh);
        assert_eq!(liar.pages_asked, 0, "no page asked of the liar");
        assert!(report.quarantined.is_empty(), "no bad page ever arrived");
        assert!(
            report.pages_fetched > 0,
            "healed page by page off the honest peer"
        );
        assert_eq!(report.sections_reused, 2);
    }

    #[test]
    fn v3_roots_are_refused_and_v3_local_snapshots_lend_pages() {
        // a v3 leaf is a flat hash with no pages under it, so no manifest
        // binds to a v3 root; a v3 snapshot held locally still lends its
        // pages toward a v4 root
        let v3 = |snap: Snapshot| {
            let epoch = snap.epoch();
            Snapshot::seal(3, epoch, snap.into_sections()).unwrap()
        };
        let (stale, fresh) = (snapshot_at(4, false), snapshot_at(5, true));
        let policy = RetryPolicy::default();
        let mut p0 = SimProvider::honest(0, v3(fresh.clone()));
        let mut providers: Vec<&mut dyn SectionProvider> = vec![&mut p0];
        assert_eq!(
            delta_sync(None, &mut providers, v3(fresh.clone()).root(), &policy).err(),
            Some(SyncError::NoValidManifest {
                providers_tried: 1,
                stale: 1
            })
        );

        let mut p1 = SimProvider::honest(1, fresh.clone());
        let mut providers: Vec<&mut dyn SectionProvider> = vec![&mut p1];
        let local = v3(stale);
        let (synced, report) =
            delta_sync(Some(&local), &mut providers, fresh.root(), &policy).unwrap();
        assert_eq!(synced, fresh);
        assert_eq!(report.sections_reused, 0, "no v3 leaf is a v4 leaf");
        assert!(report.pages_reused > report.pages_fetched);
    }

    #[test]
    fn heal_restore_from_a_stale_snapshot_lands_on_verified_state() {
        let stale = snapshot_at(4, false);
        let fresh = snapshot_at(5, true);
        let root = fresh.root();
        let mut p0 = SimProvider::honest(0, fresh);
        let mut providers: Vec<&mut dyn SectionProvider> = vec![&mut p0];
        let (restored, report) =
            heal_restore(Some(&stale), &mut providers, root, &RetryPolicy::default()).unwrap();
        assert_eq!(restored.root, root);
        assert!(report.pages_reused > 0);
    }
}
