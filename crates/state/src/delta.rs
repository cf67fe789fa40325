//! Delta-granular snapshots: what changed between two epochs, as pages.
//!
//! A [`DeltaSnapshot`] carries everything needed to turn the snapshot at
//! `base_epoch` (identified by `base_root`) into the snapshot at `epoch`
//! (identified by `root`): per-section page diffs ([`SectionDelta`]),
//! the kinds that disappeared, and the page size the diff was cut at.
//! [`DeltaSnapshot::apply`] is the proven-inverse of
//! [`DeltaSnapshot::diff`] — it verifies the base root before touching
//! anything, splices the pages, checks every rebuilt section against its
//! declared hash and the final assembly against `root`, so a corrupt or
//! tampered delta can never silently produce wrong state.
//!
//! The wire encoding (magic `ABDS`) re-verifies every page's sub-leaf
//! hash on decode: a single flipped byte in any page is caught before
//! the delta is even considered for application.

use crate::codec::{ByteReader, ByteWriter, CodecError, Decode, Encode};
use crate::pages::{apply_pages, diff_pages, hash_pages, seal_pages, PageDiff, PageError};
use crate::snapshot::{Section, SectionKind, Snapshot};
use ammboost_crypto::H256;
use std::collections::BTreeMap;
use std::fmt;

/// Delta snapshot file magic.
pub const DELTA_MAGIC: [u8; 4] = *b"ABDS";

/// Delta wire-format version.
pub const DELTA_VERSION: u16 = 1;

/// Largest page size a decoder accepts (guards hostile headers).
const MAX_PAGE_SIZE: u32 = 1 << 24;

/// Why a delta failed to decode or apply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// The wire encoding is malformed.
    Codec(CodecError),
    /// A page's declared sub-leaf hash does not match its bytes — the
    /// page was corrupted or tampered with in flight.
    PageHashMismatch {
        /// Section the page belongs to.
        kind: SectionKind,
        /// The offending page slot.
        index: u32,
    },
    /// A page could not be spliced into its section.
    Page {
        /// Section the page belongs to.
        kind: SectionKind,
        /// What the splice rejected.
        error: PageError,
    },
    /// The snapshot the delta is applied to is not the one it was
    /// diffed against.
    BaseRootMismatch {
        /// Root the delta expects.
        expected: H256,
        /// Root of the snapshot actually supplied.
        found: H256,
    },
    /// The base snapshot's epoch does not match the delta's `base_epoch`.
    BaseEpochMismatch {
        /// Epoch the delta expects.
        expected: u64,
        /// Epoch of the snapshot actually supplied.
        found: u64,
    },
    /// A section listed as removed is absent from the base.
    RemovedMissing(SectionKind),
    /// A rebuilt section does not hash to its declared `new_hash`.
    SectionHashMismatch(SectionKind),
    /// The assembled snapshot does not hash to the declared `root`.
    RootMismatch,
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::Codec(e) => write!(f, "delta codec: {e}"),
            DeltaError::PageHashMismatch { kind, index } => {
                write!(f, "page hash mismatch at {kind:?} page {index}")
            }
            DeltaError::Page { kind, error } => write!(f, "page splice at {kind:?}: {error}"),
            DeltaError::BaseRootMismatch { expected, found } => {
                write!(f, "delta base root {expected:?} applied to {found:?}")
            }
            DeltaError::BaseEpochMismatch { expected, found } => {
                write!(f, "delta base epoch {expected} applied to {found}")
            }
            DeltaError::RemovedMissing(kind) => {
                write!(f, "removed section {kind:?} absent from base")
            }
            DeltaError::SectionHashMismatch(kind) => {
                write!(f, "rebuilt section {kind:?} hash mismatch")
            }
            DeltaError::RootMismatch => write!(f, "delta result root mismatch"),
        }
    }
}

impl std::error::Error for DeltaError {}

impl From<CodecError> for DeltaError {
    fn from(e: CodecError) -> DeltaError {
        DeltaError::Codec(e)
    }
}

/// The page-granular difference of one section between base and next:
/// the new byte length, the new section hash (the leaf the rebuilt
/// section must reproduce) and every changed page. A section new in
/// `next` is a delta against the empty byte string.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SectionDelta {
    /// Which section changed.
    pub kind: SectionKind,
    /// Byte length of the section's new encoding.
    pub new_len: u32,
    /// [`Section::hash`] of the rebuilt section — verified on apply.
    pub new_hash: H256,
    /// Changed pages, ascending by index.
    pub pages: Vec<PageDiff>,
}

impl SectionDelta {
    /// Payload bytes this delta ships for its section.
    pub fn page_bytes(&self) -> u64 {
        self.pages.iter().map(|p| p.bytes.len() as u64).sum()
    }
}

/// The difference between two committed snapshots, addressable and
/// verifiable page by page. See the module docs for the trust chain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeltaSnapshot {
    /// Snapshot format version of the *result* (the base may not be
    /// older — a delta never crosses format versions).
    pub snapshot_version: u16,
    /// Epoch of the snapshot this delta starts from.
    pub base_epoch: u64,
    /// Epoch of the snapshot this delta produces.
    pub epoch: u64,
    /// Root of the snapshot this delta starts from.
    pub base_root: H256,
    /// Root of the snapshot this delta produces.
    pub root: H256,
    /// Page size the diff was cut at.
    pub page_size: u32,
    /// Sections present in base but gone in next, canonical order.
    pub removed: Vec<SectionKind>,
    /// Per-section page diffs, canonical order.
    pub deltas: Vec<SectionDelta>,
}

impl DeltaSnapshot {
    /// Diffs `next` against `base` at `page_size`. Both snapshots'
    /// sections are walked in canonical order; byte-identical sections
    /// contribute nothing.
    ///
    /// # Panics
    /// Panics when `page_size` is zero or the snapshots' format
    /// versions differ (a delta never crosses format versions).
    pub fn diff(base: &Snapshot, next: &Snapshot, page_size: usize) -> DeltaSnapshot {
        assert!(page_size > 0, "page size must be positive");
        assert_eq!(
            base.version, next.version,
            "delta cannot cross snapshot format versions"
        );
        let empty: &[u8] = &[];
        let base_bytes: BTreeMap<SectionKind, &[u8]> = base
            .sections
            .iter()
            .map(|s| (s.kind, s.bytes.as_slice()))
            .collect();
        let mut deltas = Vec::new();
        for section in &next.sections {
            let old = base_bytes.get(&section.kind).copied().unwrap_or(empty);
            if old == section.bytes.as_slice() {
                continue;
            }
            let raw = diff_pages(old, &section.bytes, page_size);
            deltas.push(SectionDelta {
                kind: section.kind,
                new_len: section.bytes.len() as u32,
                new_hash: section.hash(),
                pages: seal_pages(section.kind, raw),
            });
        }
        let removed = base
            .sections
            .iter()
            .map(|s| s.kind)
            .filter(|kind| next.section(*kind).is_none())
            .collect();
        DeltaSnapshot {
            snapshot_version: next.version,
            base_epoch: base.epoch,
            epoch: next.epoch,
            base_root: base.root(),
            root: next.root(),
            page_size: page_size as u32,
            removed,
            deltas,
        }
    }

    /// Rebuilds the full snapshot at `epoch` from `base`, verifying the
    /// base root first, every rebuilt section's hash next, and the final
    /// root last — byte-identical to the snapshot the delta was diffed
    /// from, or an error.
    ///
    /// # Errors
    /// Any [`DeltaError`]; the base snapshot is never modified.
    pub fn apply(&self, base: &Snapshot) -> Result<Snapshot, DeltaError> {
        if base.epoch != self.base_epoch {
            return Err(DeltaError::BaseEpochMismatch {
                expected: self.base_epoch,
                found: base.epoch,
            });
        }
        let found = base.root();
        if found != self.base_root {
            return Err(DeltaError::BaseRootMismatch {
                expected: self.base_root,
                found,
            });
        }
        let mut sections: BTreeMap<SectionKind, Vec<u8>> = base
            .sections
            .iter()
            .map(|s| (s.kind, s.bytes.clone()))
            .collect();
        for kind in &self.removed {
            if sections.remove(kind).is_none() {
                return Err(DeltaError::RemovedMissing(*kind));
            }
        }
        for delta in &self.deltas {
            let old = sections.remove(&delta.kind).unwrap_or_default();
            let bytes = apply_pages(
                &old,
                delta.new_len as usize,
                &delta.pages,
                self.page_size as usize,
            )
            .map_err(|error| DeltaError::Page {
                kind: delta.kind,
                error,
            })?;
            let section = Section {
                kind: delta.kind,
                bytes,
            };
            if section.hash() != delta.new_hash {
                return Err(DeltaError::SectionHashMismatch(delta.kind));
            }
            sections.insert(delta.kind, section.bytes);
        }
        // BTreeMap iteration is exactly the canonical section order
        // (SectionKind's Ord: pools ascending, ledger, deposits, aux).
        let snapshot = Snapshot {
            version: self.snapshot_version,
            epoch: self.epoch,
            sections: sections
                .into_iter()
                .map(|(kind, bytes)| Section { kind, bytes })
                .collect(),
        };
        if snapshot.root() != self.root {
            return Err(DeltaError::RootMismatch);
        }
        Ok(snapshot)
    }

    /// Payload bytes shipped across all section deltas (the dominant
    /// part of the wire size).
    pub fn payload_bytes(&self) -> u64 {
        self.deltas.iter().map(SectionDelta::page_bytes).sum()
    }

    /// Changed pages across all sections.
    pub fn pages(&self) -> usize {
        self.deltas.iter().map(|d| d.pages.len()).sum()
    }

    /// Exact size of [`DeltaSnapshot::encode`]'s output, computed
    /// without serializing.
    pub fn encoded_len(&self) -> usize {
        let removed: usize = self.removed.iter().map(|k| k.encode_to_vec().len()).sum();
        let deltas: usize = self
            .deltas
            .iter()
            .map(|d| {
                let pages: usize = d.pages.iter().map(|p| 4 + 32 + 4 + p.bytes.len()).sum();
                d.kind.encode_to_vec().len() + 4 + 32 + 4 + pages
            })
            .sum();
        // magic + delta version + snapshot version + epochs + roots +
        // page size + removed count + delta count + payloads
        4 + 2 + 2 + 8 + 8 + 32 + 32 + 4 + 4 + removed + 4 + deltas
    }

    /// Serializes the delta: magic, versions, epochs, roots, page size,
    /// removed kinds, section deltas.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::with_capacity(self.encoded_len());
        w.put_bytes(&DELTA_MAGIC);
        w.put_u16(DELTA_VERSION);
        w.put_u16(self.snapshot_version);
        w.put_u64(self.base_epoch);
        w.put_u64(self.epoch);
        self.base_root.encode(&mut w);
        self.root.encode(&mut w);
        w.put_u32(self.page_size);
        self.removed.encode(&mut w);
        w.put_len(self.deltas.len());
        for delta in &self.deltas {
            delta.kind.encode(&mut w);
            w.put_u32(delta.new_len);
            delta.new_hash.encode(&mut w);
            w.put_len(delta.pages.len());
            for page in &delta.pages {
                w.put_u32(page.index);
                page.hash.encode(&mut w);
                w.put_len(page.bytes.len());
                w.put_bytes(&page.bytes);
            }
        }
        w.into_bytes()
    }

    /// Deserializes and *verifies* a delta: magic, versions, a sane page
    /// size, and every page's sub-leaf hash against its bytes — a single
    /// flipped byte anywhere in a page (or its hash) fails here, before
    /// the delta can be applied.
    ///
    /// # Errors
    /// [`DeltaError::Codec`] on wire damage,
    /// [`DeltaError::PageHashMismatch`] on a corrupted page.
    pub fn decode(bytes: &[u8]) -> Result<DeltaSnapshot, DeltaError> {
        let mut r = ByteReader::new(bytes);
        let mut magic = [0u8; 4];
        magic.copy_from_slice(r.take(4)?);
        if magic != DELTA_MAGIC {
            return Err(CodecError::BadMagic(magic).into());
        }
        let version = r.take_u16()?;
        if version != DELTA_VERSION {
            return Err(CodecError::UnsupportedVersion(version).into());
        }
        let snapshot_version = r.take_u16()?;
        let base_epoch = r.take_u64()?;
        let epoch = r.take_u64()?;
        let base_root: H256 = r.get()?;
        let root: H256 = r.get()?;
        let page_size = r.take_u32()?;
        if page_size == 0 || page_size > MAX_PAGE_SIZE {
            return Err(CodecError::InvalidTag {
                what: "DeltaSnapshot page size",
                tag: 0,
            }
            .into());
        }
        let removed: Vec<SectionKind> = r.get()?;
        let delta_count = r.take_len()?;
        let mut deltas = Vec::with_capacity(delta_count);
        for _ in 0..delta_count {
            let kind = SectionKind::decode(&mut r)?;
            let new_len = r.take_u32()?;
            let new_hash: H256 = r.get()?;
            let page_count = r.take_len()?;
            let mut pages = Vec::with_capacity(page_count);
            for _ in 0..page_count {
                let index = r.take_u32()?;
                let hash: H256 = r.get()?;
                let len = r.take_len()?;
                let bytes = r.take(len)?.to_vec();
                pages.push(PageDiff { index, hash, bytes });
            }
            // the section's pages are verified together, four per
            // interleaved permutation
            let views: Vec<(u32, &[u8])> = pages.iter().map(|p| (p.index, &p.bytes[..])).collect();
            let hashes = hash_pages(kind, &views);
            if let Some((bad, _)) = pages.iter().zip(&hashes).find(|(p, h)| p.hash != **h) {
                let index = bad.index;
                return Err(DeltaError::PageHashMismatch { kind, index });
            }
            deltas.push(SectionDelta {
                kind,
                new_len,
                new_hash,
                pages,
            });
        }
        r.finish()?;
        Ok(DeltaSnapshot {
            snapshot_version,
            base_epoch,
            epoch,
            base_root,
            root,
            page_size,
            removed,
            deltas,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SNAPSHOT_VERSION;

    const PS: usize = 16;

    fn snap(epoch: u64, sections: Vec<(SectionKind, Vec<u8>)>) -> Snapshot {
        Snapshot {
            version: SNAPSHOT_VERSION,
            epoch,
            sections: sections
                .into_iter()
                .map(|(kind, bytes)| Section { kind, bytes })
                .collect(),
        }
    }

    fn base_next() -> (Snapshot, Snapshot) {
        let base = snap(
            3,
            vec![
                (SectionKind::Pool(0), (0..200).map(|i| i as u8).collect()),
                (SectionKind::Pool(7), vec![9u8; 50]),
                (SectionKind::Ledger, vec![1, 2, 3]),
                (SectionKind::Aux(1), vec![5u8; 20]),
            ],
        );
        let mut pool0: Vec<u8> = (0..200).map(|i| i as u8).collect();
        pool0[100] ^= 0xAA; // one page dirtied
        let next = snap(
            4,
            vec![
                (SectionKind::Pool(0), pool0),
                (SectionKind::Pool(7), vec![9u8; 50]), // untouched
                (SectionKind::Pool(9), vec![4u8; 40]), // new pool
                (SectionKind::Ledger, vec![1, 2, 3, 4]),
                // Aux(1) removed
            ],
        );
        (base, next)
    }

    #[test]
    fn diff_apply_is_identity() {
        let (base, next) = base_next();
        let delta = DeltaSnapshot::diff(&base, &next, PS);
        assert_eq!(delta.base_root, base.root());
        assert_eq!(delta.root, next.root());
        assert_eq!(delta.removed, vec![SectionKind::Aux(1)]);
        // untouched Pool(7) ships nothing
        assert!(delta.deltas.iter().all(|d| d.kind != SectionKind::Pool(7)));
        let rebuilt = delta.apply(&base).unwrap();
        assert_eq!(rebuilt, next);
        assert_eq!(rebuilt.encode(), next.encode(), "byte-identical");
    }

    #[test]
    fn sparse_change_ships_one_page() {
        let (base, next) = base_next();
        let delta = DeltaSnapshot::diff(&base, &next, PS);
        let pool0 = delta
            .deltas
            .iter()
            .find(|d| d.kind == SectionKind::Pool(0))
            .unwrap();
        assert_eq!(pool0.pages.len(), 1, "one byte flip, one page");
        assert_eq!(pool0.pages[0].index, 100 / PS as u32);
    }

    #[test]
    fn wire_roundtrip_and_exact_len() {
        let (base, next) = base_next();
        let delta = DeltaSnapshot::diff(&base, &next, PS);
        let bytes = delta.encode();
        assert_eq!(bytes.len(), delta.encoded_len(), "size formula exact");
        assert_eq!(DeltaSnapshot::decode(&bytes).unwrap(), delta);
    }

    #[test]
    fn every_flipped_payload_byte_detected() {
        let (base, next) = base_next();
        let delta = DeltaSnapshot::diff(&base, &next, PS);
        let clean = delta.encode();
        for offset in 0..clean.len() {
            let mut bytes = clean.clone();
            bytes[offset] ^= 0x01;
            let survived = match DeltaSnapshot::decode(&bytes) {
                Err(_) => continue, // caught at decode
                Ok(d) => d,
            };
            // flips that survive decode (epochs, roots, lengths the
            // codec cannot check) must die on apply
            assert!(
                survived.apply(&base).is_err(),
                "flip at byte {offset} applied cleanly"
            );
        }
    }

    #[test]
    fn flipped_page_byte_names_its_page_in_every_batch_lane() {
        // seven changed pages with distinct content: one full quad and a
        // remainder of three, so a bad page sits in each of the four
        // lanes and in the scalar tail
        let page = |k: usize| -> Vec<u8> { (0..PS).map(|i| (16 * k + i) as u8).collect() };
        let kind = SectionKind::Pool(3);
        let base = snap(1, vec![(kind, vec![0xEE; 7 * PS])]);
        let next = snap(2, vec![(kind, (0..7).flat_map(page).collect())]);
        let delta = DeltaSnapshot::diff(&base, &next, PS);
        assert_eq!(delta.pages(), 7);
        let clean = delta.encode();
        assert_eq!(DeltaSnapshot::decode(&clean).unwrap(), delta);
        for k in 0..7 {
            let content = page(k);
            let at = clean
                .windows(PS)
                .position(|w| w == content)
                .expect("page on the wire");
            let mut bytes = clean.clone();
            bytes[at + k] ^= 0x40;
            let index = k as u32;
            assert_eq!(
                DeltaSnapshot::decode(&bytes),
                Err(DeltaError::PageHashMismatch { kind, index }),
                "flip in page {k}"
            );
        }
        // two bad pages: the first in page order is the one reported
        let mut bytes = clean.clone();
        for k in [5, 2] {
            let content = page(k);
            let at = clean.windows(PS).position(|w| w == content).unwrap();
            bytes[at] ^= 1;
        }
        assert_eq!(
            DeltaSnapshot::decode(&bytes),
            Err(DeltaError::PageHashMismatch { kind, index: 2 })
        );
    }

    #[test]
    fn apply_refuses_wrong_base() {
        let (base, next) = base_next();
        let delta = DeltaSnapshot::diff(&base, &next, PS);
        let mut wrong = base.clone();
        wrong.sections[0].bytes[0] ^= 1;
        assert!(matches!(
            delta.apply(&wrong),
            Err(DeltaError::BaseRootMismatch { .. })
        ));
    }

    #[test]
    fn delta_against_empty_base_carries_everything() {
        let (base, _) = base_next();
        let empty = snap(0, vec![]);
        let delta = DeltaSnapshot::diff(&empty, &base, PS);
        assert_eq!(delta.deltas.len(), base.sections.len());
        assert_eq!(delta.apply(&empty).unwrap(), base);
    }
}
