//! Delta-granular snapshots: what changed between two epochs, as pages.
//!
//! A [`DeltaSnapshot`] carries everything needed to turn the snapshot at
//! `base_epoch` (identified by `base_root`) into the snapshot at `epoch`
//! (identified by `root`): per-section page diffs ([`SectionDelta`]),
//! and the kinds that disappeared, cut at the format's [`PAGE_SIZE`].
//! [`DeltaSnapshot::apply`] is the proven-inverse of
//! [`DeltaSnapshot::diff`] — it verifies the base root before touching
//! anything, splices the pages, checks every rebuilt section against its
//! declared leaf and the final assembly against `root`, so a corrupt or
//! tampered delta can never silently produce wrong state.
//!
//! The wire encoding (magic `ABDS`) ends with the Keccak-256 digest of
//! everything before it and re-verifies every page's sub-leaf hash on
//! decode: a single flipped byte anywhere — in a page, a hash, an epoch
//! or a length — is caught before the delta is even considered for
//! application.
//!
//! [`PAGE_SIZE`]: crate::pages::PAGE_SIZE

use crate::codec::{ByteReader, ByteWriter, CodecError, Decode, Encode};
use crate::pages::{
    apply_pages, diff_pages, hash_pages, seal_pages, PageDiff, PageError, PAGE_SIZE,
};
use crate::snapshot::{section_leaves, Section, SectionKind, Snapshot, SNAPSHOT_VERSION};
use ammboost_crypto::H256;
use std::collections::BTreeMap;
use std::fmt;

/// Delta snapshot file magic.
pub const DELTA_MAGIC: [u8; 4] = *b"ABDS";

/// Delta wire-format version. Version 2 ends the wire form with the
/// Keccak-256 digest of every byte before it, so decode refuses a
/// corrupted header field or section leaf as well as a corrupted page.
pub const DELTA_VERSION: u16 = 2;

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
    /// A rebuilt section's leaf is not its declared `new_hash`.
    SectionHashMismatch(SectionKind),
    /// The assembled snapshot does not hash to the declared `root`.
    RootMismatch,
    /// The wire form's trailing digest is not the Keccak-256 of the bytes
    /// before it — the delta was corrupted in flight.
    DigestMismatch,
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
            DeltaError::DigestMismatch => write!(f, "delta wire digest mismatch"),
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
/// the new byte length, the new section leaf (the one the rebuilt
/// section must reproduce) and every changed page. A section new in
/// `next` is a delta against the empty byte string.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SectionDelta {
    /// Which section changed.
    pub kind: SectionKind,
    /// Byte length of the section's new encoding.
    pub new_len: u32,
    /// The rebuilt section's leaf (its page root) — verified on apply.
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
    /// Epoch of the snapshot this delta starts from.
    pub base_epoch: u64,
    /// Epoch of the snapshot this delta produces.
    pub epoch: u64,
    /// Root of the snapshot this delta starts from.
    pub base_root: H256,
    /// Root of the snapshot this delta produces.
    pub root: H256,
    /// Sections present in base but gone in next, canonical order.
    pub removed: Vec<SectionKind>,
    /// Per-section page diffs, canonical order.
    pub deltas: Vec<SectionDelta>,
}

impl DeltaSnapshot {
    /// Diffs `next` against `base`. Both snapshots' sections are walked
    /// in canonical order; byte-identical sections contribute nothing.
    /// Roots and section leaves come from the sealed snapshots; only the
    /// changed pages are hashed.
    pub fn diff(base: &Snapshot, next: &Snapshot) -> DeltaSnapshot {
        let base_bytes: BTreeMap<SectionKind, &[u8]> = base
            .sections()
            .iter()
            .map(|s| (s.kind, s.bytes.as_slice()))
            .collect();
        let mut deltas = Vec::new();
        for (section, leaf) in next.sections().iter().zip(next.leaves()) {
            let old = base_bytes.get(&section.kind).copied();
            if old == Some(section.bytes.as_slice()) {
                continue;
            }
            let changed = diff_pages(old.unwrap_or_default(), &section.bytes);
            deltas.push(SectionDelta {
                kind: section.kind,
                new_len: section.bytes.len() as u32,
                new_hash: *leaf,
                pages: seal_pages(section.kind, &section.bytes, &changed),
            });
        }
        let removed = base
            .sections()
            .iter()
            .map(|s| s.kind)
            .filter(|kind| next.section(*kind).is_none())
            .collect();
        DeltaSnapshot {
            base_epoch: base.epoch(),
            epoch: next.epoch(),
            base_root: base.root(),
            root: next.root(),
            removed,
            deltas,
        }
    }

    /// Rebuilds the full snapshot at `epoch` from `base`, verifying the
    /// base (epoch, root) first, every rebuilt section's leaf
    /// next, and the final root last — byte-identical to the snapshot the
    /// delta was diffed from, or an error. Sections the delta does not
    /// touch keep the leaves `base` was sealed with; only the rebuilt
    /// sections are hashed, all of their pages in one four-lane run.
    ///
    /// # Errors
    /// Any [`DeltaError`]; the base snapshot is never modified.
    pub fn apply(&self, base: &Snapshot) -> Result<Snapshot, DeltaError> {
        if base.epoch() != self.base_epoch {
            return Err(DeltaError::BaseEpochMismatch {
                expected: self.base_epoch,
                found: base.epoch(),
            });
        }
        if base.root() != self.base_root {
            return Err(DeltaError::BaseRootMismatch {
                expected: self.base_root,
                found: base.root(),
            });
        }
        let mut sections: BTreeMap<SectionKind, (Vec<u8>, H256)> = base
            .sections()
            .iter()
            .zip(base.leaves())
            .map(|(s, leaf)| (s.kind, (s.bytes.clone(), *leaf)))
            .collect();
        for kind in &self.removed {
            if sections.remove(kind).is_none() {
                return Err(DeltaError::RemovedMissing(*kind));
            }
        }
        let mut rebuilt = Vec::with_capacity(self.deltas.len());
        for delta in &self.deltas {
            let old = sections
                .remove(&delta.kind)
                .map(|(b, _)| b)
                .unwrap_or_default();
            let bytes =
                apply_pages(&old, delta.new_len as usize, &delta.pages).map_err(|error| {
                    DeltaError::Page {
                        kind: delta.kind,
                        error,
                    }
                })?;
            rebuilt.push(Section {
                kind: delta.kind,
                bytes,
            });
        }
        let leaves = section_leaves(&rebuilt);
        for ((section, leaf), delta) in rebuilt.into_iter().zip(leaves).zip(&self.deltas) {
            if leaf != delta.new_hash {
                return Err(DeltaError::SectionHashMismatch(delta.kind));
            }
            sections.insert(section.kind, (section.bytes, leaf));
        }
        // BTreeMap iteration is exactly the canonical section order
        // (SectionKind's Ord: pools ascending, ledger, deposits, aux).
        let (sections, leaves): (Vec<Section>, Vec<H256>) = sections
            .into_iter()
            .map(|(kind, (bytes, leaf))| (Section { kind, bytes }, leaf))
            .unzip();
        let snapshot = Snapshot::from_leaves(self.epoch, sections, leaves)?;
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
        // page size + removed count + delta count + payloads + digest
        4 + 2 + 2 + 8 + 8 + 32 + 32 + 4 + 4 + removed + 4 + deltas + 32
    }

    /// Serializes the delta: magic, versions, epochs, roots, page size,
    /// removed kinds, section deltas, then the digest of all of those.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::with_capacity(self.encoded_len());
        w.put_bytes(&DELTA_MAGIC);
        w.put_u16(DELTA_VERSION);
        w.put_u16(SNAPSHOT_VERSION);
        w.put_u64(self.base_epoch);
        w.put_u64(self.epoch);
        self.base_root.encode(&mut w);
        self.root.encode(&mut w);
        w.put_u32(PAGE_SIZE as u32);
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
        let mut bytes = w.into_bytes();
        let digest = H256::hash(&bytes);
        bytes.extend_from_slice(digest.as_bytes());
        bytes
    }

    /// Deserializes and *verifies* a delta: magic, versions, the format's
    /// page size, every page's sub-leaf hash against its bytes, and the
    /// trailing digest against everything before it — a single flipped
    /// byte anywhere fails here, before the delta can be applied.
    ///
    /// # Errors
    /// [`DeltaError::Codec`] on wire damage,
    /// [`DeltaError::PageHashMismatch`] on a corrupted page,
    /// [`DeltaError::DigestMismatch`] on any other corrupted byte.
    pub fn decode(bytes: &[u8]) -> Result<DeltaSnapshot, DeltaError> {
        let (body, digest) = bytes.split_at(bytes.len().saturating_sub(32));
        let mut r = ByteReader::new(body);
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
        if snapshot_version != SNAPSHOT_VERSION {
            return Err(CodecError::UnsupportedVersion(snapshot_version).into());
        }
        let base_epoch = r.take_u64()?;
        let epoch = r.take_u64()?;
        let base_root: H256 = r.get()?;
        let root: H256 = r.get()?;
        if r.take_u32()? != PAGE_SIZE as u32 {
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
        if H256::hash(body).as_bytes()[..] != *digest {
            return Err(DeltaError::DigestMismatch);
        }
        Ok(DeltaSnapshot {
            base_epoch,
            epoch,
            base_root,
            root,
            removed,
            deltas,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PS: usize = PAGE_SIZE;

    fn snap(epoch: u64, sections: Vec<(SectionKind, Vec<u8>)>) -> Snapshot {
        let sections = sections
            .into_iter()
            .map(|(kind, bytes)| Section { kind, bytes })
            .collect();
        Snapshot::seal(epoch, sections).unwrap()
    }

    fn base_next() -> (Snapshot, Snapshot) {
        let base = snap(
            3,
            vec![
                (
                    SectionKind::Pool(0),
                    (0..3 * PS + 200).map(|i| i as u8).collect(),
                ),
                (SectionKind::Pool(7), vec![9u8; 50]),
                (SectionKind::Ledger, vec![1, 2, 3]),
                (SectionKind::Aux(1), vec![5u8; 20]),
            ],
        );
        let mut pool0: Vec<u8> = (0..3 * PS + 200).map(|i| i as u8).collect();
        pool0[PS + 100] ^= 0xAA; // one page dirtied
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
        let delta = DeltaSnapshot::diff(&base, &next);
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
        let delta = DeltaSnapshot::diff(&base, &next);
        let pool0 = delta
            .deltas
            .iter()
            .find(|d| d.kind == SectionKind::Pool(0))
            .unwrap();
        assert_eq!(pool0.pages.len(), 1, "one byte flip, one page");
        assert_eq!(pool0.pages[0].index, 1);
    }

    #[test]
    fn wire_roundtrip_and_exact_len() {
        let (base, next) = base_next();
        let delta = DeltaSnapshot::diff(&base, &next);
        let bytes = delta.encode();
        assert_eq!(bytes.len(), delta.encoded_len(), "size formula exact");
        assert_eq!(DeltaSnapshot::decode(&bytes).unwrap(), delta);
        // the snapshot version after magic and delta version: a delta
        // producing a retired snapshot format does not decode
        let mut retired = bytes.clone();
        retired[6..8].copy_from_slice(&3u16.to_be_bytes());
        assert_eq!(
            DeltaSnapshot::decode(&retired),
            Err(DeltaError::Codec(CodecError::UnsupportedVersion(3)))
        );
    }

    #[test]
    fn decode_refuses_pages_of_any_other_size() {
        // the u32 after magic, versions, epochs and roots is the page size
        let (base, next) = base_next();
        let clean = DeltaSnapshot::diff(&base, &next).encode();
        let at = 4 + 2 + 2 + 8 + 8 + 32 + 32;
        assert_eq!(clean[at..at + 4], (PS as u32).to_be_bytes());
        for size in [0u32, 16, 2048, u32::MAX] {
            let mut bytes = clean.clone();
            bytes[at..at + 4].copy_from_slice(&size.to_be_bytes());
            assert!(
                matches!(
                    DeltaSnapshot::decode(&bytes),
                    Err(DeltaError::Codec(CodecError::InvalidTag { .. }))
                ),
                "page size {size} accepted"
            );
        }
    }

    #[test]
    fn every_flipped_payload_byte_detected() {
        let (base, next) = base_next();
        let delta = DeltaSnapshot::diff(&base, &next);
        let clean = delta.encode();
        for offset in 0..clean.len() {
            let mut bytes = clean.clone();
            bytes[offset] ^= 0x01;
            let survived = match DeltaSnapshot::decode(&bytes) {
                Err(_) => continue, // caught at decode
                Ok(d) => d,
            };
            // a flip decode let through (none since the digest) would
            // still have to die on apply
            assert!(
                survived.apply(&base).is_err(),
                "flip at byte {offset} applied cleanly"
            );
        }
    }

    #[test]
    fn every_flipped_bit_fails_decode() {
        // header fields and section leaves are not checkable without the
        // base: the digest is what makes the wire form refuse them
        let (base, next) = base_next();
        let clean = DeltaSnapshot::diff(&base, &next).encode();
        for bit in 0..clean.len() * 8 {
            let mut bytes = clean.clone();
            bytes[bit / 8] ^= 1 << (bit % 8);
            assert!(
                DeltaSnapshot::decode(&bytes).is_err(),
                "flip of bit {bit} decoded"
            );
        }
        let header = 4 + 2 + 2 + 8;
        let mut bytes = clean.clone();
        bytes[header] ^= 1; // the target epoch
        assert_eq!(
            DeltaSnapshot::decode(&bytes),
            Err(DeltaError::DigestMismatch)
        );
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
        let delta = DeltaSnapshot::diff(&base, &next);
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
        let delta = DeltaSnapshot::diff(&base, &next);
        let mut sections = base.clone().into_sections();
        sections[0].bytes[0] ^= 1;
        let wrong = Snapshot::seal(base.epoch(), sections).unwrap();
        assert!(matches!(
            delta.apply(&wrong),
            Err(DeltaError::BaseRootMismatch { .. })
        ));
    }

    #[test]
    fn delta_against_empty_base_carries_everything() {
        let (base, _) = base_next();
        let empty = snap(0, vec![]);
        let delta = DeltaSnapshot::diff(&empty, &base);
        assert_eq!(delta.deltas.len(), base.sections().len());
        assert_eq!(delta.apply(&empty).unwrap(), base);
    }

    #[test]
    fn new_empty_section_is_carried() {
        let (base, _) = base_next();
        let mut sections = base.clone().into_sections();
        sections.push(Section {
            kind: SectionKind::Aux(9),
            bytes: vec![],
        });
        let next = Snapshot::seal(4, sections).unwrap();
        let delta = DeltaSnapshot::diff(&base, &next);
        assert_eq!(delta.deltas.len(), 1, "an empty section is still new");
        assert_eq!(delta.apply(&base).unwrap(), next);
    }

    #[test]
    fn apply_reuses_untouched_leaves_and_checks_rebuilt_ones() {
        // seal base and next with a deliberately wrong leaf for the
        // untouched Pool(7): apply can only reproduce next's root if it
        // carries that leaf over instead of re-hashing the section
        let (base, next) = base_next();
        let bogus = |snap: &Snapshot| {
            let mut leaves = snap.leaves().to_vec();
            let at = snap
                .sections()
                .iter()
                .position(|s| s.kind == SectionKind::Pool(7));
            leaves[at.unwrap()] = H256::hash(b"not this section's leaf");
            let sections = snap.clone().into_sections();
            Snapshot::from_leaves(snap.epoch(), sections, leaves).unwrap()
        };
        let (base, next) = (bogus(&base), bogus(&next));
        let delta = DeltaSnapshot::diff(&base, &next);
        let rebuilt = delta.apply(&base).unwrap();
        assert_eq!(rebuilt.leaves(), next.leaves());
        assert_eq!(rebuilt.root(), next.root());

        // a rebuilt section is hashed and held to its declared leaf
        let mut wrong_leaf = delta.clone();
        wrong_leaf.deltas[0].new_hash = H256::hash(b"wrong");
        assert_eq!(
            wrong_leaf.apply(&base),
            Err(DeltaError::SectionHashMismatch(wrong_leaf.deltas[0].kind))
        );
        // and the assembly to the declared root
        let mut wrong_root = delta.clone();
        wrong_root.root = H256::hash(b"wrong");
        assert_eq!(wrong_root.apply(&base), Err(DeltaError::RootMismatch));
    }
}
