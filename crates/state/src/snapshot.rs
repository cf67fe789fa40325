//! Merkle-committed state snapshots.
//!
//! A [`Snapshot`] is a versioned container of independently encoded
//! [`Section`]s (one per pool, one for the ledger, one for the deposit
//! map, plus caller-defined auxiliary sections). Its [`Snapshot::root`] is
//! the Keccak Merkle root over a header leaf and one leaf per section — a
//! single 32-byte commitment to the entire system state. The wire
//! encoding embeds the root, and [`Snapshot::decode`] recomputes and
//! checks it, so a corrupt or tampered snapshot fails loud instead of
//! restoring wrong state.
//!
//! Which leaf a section gets is fixed by the snapshot's own version
//! byte: format v4 uses the section's page root
//! ([`page_root`]: a length leaf, then the hash of every [`PAGE_SIZE`]
//! page — the sub-leaves deltas and sync manifests carry) and a header
//! leaf that also commits the section count; v2 and v3 keep the flat
//! domain hash of the whole section and the count-free header they were
//! sealed with.
//!
//! A snapshot is **sealed**: its leaves and root are computed once, when
//! it is built ([`Snapshot::seal`], [`Snapshot::decode`], or a checkpoint
//! or delta apply that already holds the leaves), and never again —
//! [`Snapshot::root`], [`Snapshot::encode`] and restore only read them.
//! Its fields are private, so a snapshot cannot outlive its root: changing
//! sections means [`Snapshot::into_sections`], then [`Snapshot::seal`].
//!
//! [`page_root`]: crate::pages::page_root
//! [`PAGE_SIZE`]: crate::pages::PAGE_SIZE

use crate::codec::{ByteReader, ByteWriter, CodecError, Decode, Encode};
use crate::pages::{page_root_from_hashes, section_page_hashes};
use ammboost_crypto::merkle::merkle_root;
use ammboost_crypto::H256;

/// Domain prefix of a legacy (v2/v3) section leaf.
const SECTION_DOMAIN: &[u8] = b"ammboost-snapshot-section";

/// Domain prefix of the header leaf.
const HEADER_DOMAIN: &[u8] = b"ammboost-snapshot-header";

/// Snapshot file magic.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"ABSS";

/// Current snapshot format version — the only one the node writes.
/// Decoders reject anything newer.
///
/// Version 4: a section's leaf is its page root at [`PAGE_SIZE`], and the
/// header leaf commits the section count. Version 3 introduced
/// engine-tagged pool sections ([`EngineState`] with a leading
/// engine-kind byte); v4 sections are encoded exactly like v3 ones.
/// Versions 3 and 2 (pool sections are bare CL [`PoolState`] bytes) are
/// still decoded — see [`LEGACY_SNAPSHOT_VERSION`].
///
/// [`EngineState`]: ammboost_amm::engines::EngineState
/// [`PoolState`]: ammboost_amm::pool::PoolState
/// [`PAGE_SIZE`]: crate::pages::PAGE_SIZE
pub const SNAPSHOT_VERSION: u16 = 4;

/// Oldest snapshot format version decoders still accept. Version 2 pool
/// sections carry untagged CL pool state; restore interprets them as
/// concentrated-liquidity engines, so pre-fleet snapshots keep restoring
/// to bit-identical roots.
pub const LEGACY_SNAPSHOT_VERSION: u16 = 2;

/// What a section holds. The ordering (pools ascending, then ledger,
/// deposits, aux by tag) is the canonical section order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SectionKind {
    /// One pool's persistent state, keyed by pool id.
    Pool(u32),
    /// The sidechain ledger.
    Ledger,
    /// The deposit map.
    Deposits,
    /// A caller-defined section (e.g. processor bookkeeping), keyed by a
    /// small tag.
    Aux(u8),
}

impl Encode for SectionKind {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            SectionKind::Pool(id) => {
                w.put_u8(0);
                w.put_u32(*id);
            }
            SectionKind::Ledger => w.put_u8(1),
            SectionKind::Deposits => w.put_u8(2),
            SectionKind::Aux(tag) => {
                w.put_u8(3);
                w.put_u8(*tag);
            }
        }
    }
}

impl Decode for SectionKind {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        match r.take_u8()? {
            0 => Ok(SectionKind::Pool(r.take_u32()?)),
            1 => Ok(SectionKind::Ledger),
            2 => Ok(SectionKind::Deposits),
            3 => Ok(SectionKind::Aux(r.take_u8()?)),
            tag => Err(CodecError::InvalidTag {
                what: "SectionKind",
                tag,
            }),
        }
    }
}

/// One independently encoded, independently hashed unit of state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Section {
    /// What the bytes hold.
    pub kind: SectionKind,
    /// The section's canonical encoding.
    pub bytes: Vec<u8>,
}

/// Whether `version` seals sections under the flat legacy leaf (v2, v3).
fn flat_leaves(version: u16) -> bool {
    matches!(version, 2 | 3)
}

impl Section {
    /// The legacy (v2/v3) leaf: one domain-separated hash over kind and
    /// the whole encoding.
    fn flat_leaf(&self) -> H256 {
        H256::hash_concat(&[SECTION_DOMAIN, &self.kind.encode_to_vec(), &self.bytes])
    }
}

/// Every section's leaf under `version`: the page root for v4, the flat
/// domain hash of kind and bytes for v2 and v3. For v4 the pages of all
/// sections are hashed in one run, four per interleaved permutation (so
/// small sections share quads with large ones), then each section's page
/// hashes are folded under its length leaf.
pub(crate) fn section_leaves(version: u16, sections: &[Section]) -> Vec<H256> {
    if flat_leaves(version) {
        return sections.iter().map(Section::flat_leaf).collect();
    }
    (sections.iter().zip(section_page_hashes(sections)))
        .map(|(s, hashes)| page_root_from_hashes(s.kind, s.bytes.len(), &hashes))
        .collect()
}

impl Encode for Section {
    fn encode(&self, w: &mut ByteWriter) {
        self.kind.encode(w);
        w.put_len(self.bytes.len());
        w.put_bytes(&self.bytes);
    }
}

impl Decode for Section {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let kind = SectionKind::decode(r)?;
        let len = r.take_len()?;
        let bytes = r.take(len)?.to_vec();
        Ok(Section { kind, bytes })
    }
}

/// The snapshot state root for an epoch, computed from its section leaves
/// (canonical order) without the sections themselves. This is what lets a
/// fast-sync manifest — epoch + per-section page hashes, folded to leaves
/// — be verified against a trusted root before any page arrives.
/// [`Snapshot::root`] is exactly this over [`Snapshot::leaves`]. The
/// format `version` is part of the header leaf, so a legacy snapshot keeps
/// the root it was sealed with; from v4 on the header also commits the
/// number of sections, so a leaf list padded the way the Merkle tree pads
/// an odd level is a different root.
pub fn root_from_leaves(version: u16, epoch: u64, leaves: &[H256]) -> H256 {
    let (version_bytes, epoch_bytes) = (version.to_be_bytes(), epoch.to_be_bytes());
    let count = (leaves.len() as u32).to_be_bytes();
    let header: &[&[u8]] = if flat_leaves(version) {
        &[HEADER_DOMAIN, &version_bytes, &epoch_bytes]
    } else {
        &[HEADER_DOMAIN, &version_bytes, &epoch_bytes, &count]
    };
    let mut all = Vec::with_capacity(leaves.len() + 1);
    all.push(H256::hash_concat(header));
    all.extend_from_slice(leaves);
    merkle_root(all)
}

/// Rejects a version no decoder accepts.
fn check_version(version: u16) -> Result<(), CodecError> {
    if (LEGACY_SNAPSHOT_VERSION..=SNAPSHOT_VERSION).contains(&version) {
        Ok(())
    } else {
        Err(CodecError::UnsupportedVersion(version))
    }
}

/// Rejects section kinds that are not strictly ascending: out of order,
/// or the same kind twice. Every honest snapshot of every version is in
/// canonical order, so this only ever refuses a crafted one.
pub(crate) fn check_canonical<'a>(
    kinds: impl IntoIterator<Item = &'a SectionKind>,
) -> Result<(), CodecError> {
    let mut prev: Option<&SectionKind> = None;
    for kind in kinds {
        if prev.is_some_and(|p| p >= kind) {
            return Err(CodecError::UnsortedSections);
        }
        prev = Some(kind);
    }
    Ok(())
}

/// A full-state checkpoint at an epoch boundary, sealed under its root.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    version: u16,
    epoch: u64,
    sections: Vec<Section>,
    /// One leaf per section, under `version`'s leaf rule.
    leaves: Vec<H256>,
    root: H256,
}

impl Snapshot {
    /// Seals `sections` (canonical order) as the `version` snapshot of
    /// `epoch`: every section's leaf and the root are computed here, once.
    ///
    /// # Errors
    /// [`CodecError::UnsupportedVersion`] for a version decoders reject,
    /// [`CodecError::UnsortedSections`] when the section kinds are not
    /// strictly ascending.
    pub fn seal(version: u16, epoch: u64, sections: Vec<Section>) -> Result<Snapshot, CodecError> {
        check_version(version)?;
        let leaves = section_leaves(version, &sections);
        Snapshot::from_leaves(version, epoch, sections, leaves)
    }

    /// Seals `sections` under leaves the caller already holds and has
    /// verified — a checkpoint's refolded page roots, a delta's rebuilt
    /// and reused leaves, a healed sync's manifest leaves. Only the root
    /// fold (one hash per leaf) runs here.
    ///
    /// # Errors
    /// As [`Snapshot::seal`].
    pub(crate) fn from_leaves(
        version: u16,
        epoch: u64,
        sections: Vec<Section>,
        leaves: Vec<H256>,
    ) -> Result<Snapshot, CodecError> {
        check_version(version)?;
        check_canonical(sections.iter().map(|s| &s.kind))?;
        debug_assert_eq!(sections.len(), leaves.len(), "one leaf per section");
        let root = root_from_leaves(version, epoch, &leaves);
        Ok(Snapshot {
            version,
            epoch,
            sections,
            leaves,
            root,
        })
    }

    /// The format version the snapshot was sealed under. Determines the
    /// pool-section encoding (v2: bare CL state; v3, v4: engine-tagged)
    /// and the leaf rule, and is committed in the root's header leaf.
    pub fn version(&self) -> u16 {
        self.version
    }

    /// The epoch the snapshot was taken at (state *after* this epoch's
    /// summary was sealed).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The state sections, in canonical order.
    pub fn sections(&self) -> &[Section] {
        &self.sections
    }

    /// Each section's leaf, in section order.
    pub fn leaves(&self) -> &[H256] {
        &self.leaves
    }

    /// Gives up the seal: the sections, to change and [`Snapshot::seal`]
    /// again.
    pub fn into_sections(self) -> Vec<Section> {
        self.sections
    }

    /// The 32-byte state commitment: the Merkle root over a header leaf
    /// and every section leaf, computed when the snapshot was sealed.
    pub fn root(&self) -> H256 {
        self.root
    }

    /// Finds a section by kind.
    pub fn section(&self, kind: SectionKind) -> Option<&Section> {
        self.sections.iter().find(|s| s.kind == kind)
    }

    /// All pool sections, `(pool id, bytes)`, in canonical order.
    pub fn pool_sections(&self) -> impl Iterator<Item = (u32, &Section)> {
        self.sections.iter().filter_map(|s| match s.kind {
            SectionKind::Pool(id) => Some((id, s)),
            _ => None,
        })
    }

    /// Total payload bytes across sections (the dominant part of the
    /// on-disk size).
    pub fn payload_bytes(&self) -> u64 {
        self.sections.iter().map(|s| s.bytes.len() as u64).sum()
    }

    /// Exact size of [`Snapshot::encode`]'s output, computed without
    /// serializing.
    pub fn encoded_len(&self) -> usize {
        let sections: usize = self
            .sections
            .iter()
            .map(|s| s.kind.encode_to_vec().len() + 4 + s.bytes.len())
            .sum();
        // magic + version + epoch + root + section count + sections
        4 + 2 + 8 + 32 + 4 + sections
    }

    /// Serializes the snapshot: magic, version, epoch, root, sections.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::with_capacity(self.payload_bytes() as usize + 64);
        w.put_bytes(&SNAPSHOT_MAGIC);
        w.put_u16(self.version);
        w.put_u64(self.epoch);
        self.root.encode(&mut w);
        self.sections.encode(&mut w);
        w.into_bytes()
    }

    /// Deserializes and *verifies* a snapshot: magic, version, canonical
    /// section order, and the embedded state root against the root the
    /// decoded sections seal to.
    ///
    /// # Errors
    /// Any [`CodecError`]; notably [`CodecError::RootMismatch`] when the
    /// content does not hash to the declared root.
    pub fn decode(bytes: &[u8]) -> Result<Snapshot, CodecError> {
        let mut r = ByteReader::new(bytes);
        let mut magic = [0u8; 4];
        magic.copy_from_slice(r.take(4)?);
        if magic != SNAPSHOT_MAGIC {
            return Err(CodecError::BadMagic(magic));
        }
        let version = r.take_u16()?;
        check_version(version)?;
        let epoch = r.take_u64()?;
        let declared_root: H256 = r.get()?;
        let sections: Vec<Section> = r.get()?;
        r.finish()?;
        let snapshot = Snapshot::seal(version, epoch, sections)?;
        if snapshot.root != declared_root {
            return Err(CodecError::RootMismatch);
        }
        Ok(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pages::{page_root, PAGE_SIZE};

    fn sections() -> Vec<Section> {
        vec![
            Section {
                kind: SectionKind::Pool(0),
                bytes: vec![1, 2, 3],
            },
            Section {
                kind: SectionKind::Ledger,
                bytes: vec![4, 5],
            },
            Section {
                kind: SectionKind::Aux(9),
                bytes: vec![],
            },
        ]
    }

    fn sample() -> Snapshot {
        Snapshot::seal(SNAPSHOT_VERSION, 7, sections()).unwrap()
    }

    #[test]
    fn encode_decode_roundtrip() {
        let snap = sample();
        let bytes = snap.encode();
        assert_eq!(Snapshot::decode(&bytes).unwrap(), snap);
        assert_eq!(snap.encoded_len(), bytes.len(), "size formula exact");
    }

    #[test]
    fn root_commits_to_every_field() {
        let base = sample();
        let reseal = |version: u16, epoch: u64, edit: &dyn Fn(&mut Vec<Section>)| {
            let mut sections = base.clone().into_sections();
            edit(&mut sections);
            Snapshot::seal(version, epoch, sections).unwrap().root()
        };
        assert_eq!(reseal(SNAPSHOT_VERSION, 7, &|_| {}), base.root());
        assert_ne!(reseal(SNAPSHOT_VERSION, 8, &|_| {}), base.root());
        for version in [2, 3] {
            assert_ne!(reseal(version, 7, &|_| {}), base.root(), "v{version}");
        }
        assert_ne!(
            reseal(SNAPSHOT_VERSION, 7, &|s| s[0].bytes[0] ^= 1),
            base.root()
        );
        assert_ne!(
            reseal(SNAPSHOT_VERSION, 7, &|s| s[0].kind = SectionKind::Pool(1)),
            base.root()
        );
    }

    #[test]
    fn tampering_detected_on_decode() {
        let mut bytes = sample().encode();
        // flip a payload byte deep in the section area
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF;
        assert!(matches!(
            Snapshot::decode(&bytes),
            Err(CodecError::RootMismatch) | Err(CodecError::LengthOverflow { .. })
        ));
    }

    #[test]
    fn bad_magic_and_version_rejected() {
        let mut bytes = sample().encode();
        bytes[0] = b'X';
        assert!(matches!(
            Snapshot::decode(&bytes),
            Err(CodecError::BadMagic(_))
        ));
        let mut bytes = sample().encode();
        bytes[5] = 99;
        assert!(matches!(
            Snapshot::decode(&bytes),
            Err(CodecError::UnsupportedVersion(_))
        ));
        assert_eq!(
            Snapshot::seal(1, 0, vec![]),
            Err(CodecError::UnsupportedVersion(1))
        );
    }

    #[test]
    fn v4_leaves_are_page_roots_and_legacy_leaves_are_flat() {
        // section counts crossing the quad boundary, sizes crossing page
        // boundaries: the one batched run over every section's pages
        // must fold to each section's own page root
        for n in 0..10usize {
            let sections: Vec<Section> = (0..n)
                .map(|i| Section {
                    kind: SectionKind::Pool(i as u32),
                    bytes: vec![i as u8; (PAGE_SIZE / 2) * i + i],
                })
                .collect();
            let v4 = Snapshot::seal(SNAPSHOT_VERSION, 1, sections.clone()).unwrap();
            for (section, leaf) in sections.iter().zip(v4.leaves()) {
                assert_eq!(*leaf, page_root(section.kind, &section.bytes), "n={n}");
            }
            for version in [2, 3] {
                let legacy = Snapshot::seal(version, 1, sections.clone()).unwrap();
                for (section, leaf) in sections.iter().zip(legacy.leaves()) {
                    assert_eq!(*leaf, section.flat_leaf(), "n={n} v{version}");
                }
            }
        }
    }

    #[test]
    fn root_from_hashes_matches_full_root() {
        let snap = sample();
        let leaves: Vec<H256> = snap
            .sections()
            .iter()
            .map(|s| page_root(s.kind, &s.bytes))
            .collect();
        assert_eq!(leaves, snap.leaves());
        assert_eq!(
            root_from_leaves(snap.version(), snap.epoch(), &leaves),
            snap.root()
        );
        assert_ne!(
            root_from_leaves(snap.version(), snap.epoch() + 1, &leaves),
            snap.root(),
            "epoch is committed via the header leaf"
        );
    }

    #[test]
    fn v4_header_commits_the_section_count() {
        // [header, a, b] has an odd level the Merkle tree pads with its
        // last node, so [a, b, b] folds to the same root — unless the
        // header counts the leaves, as v4's does
        let (a, b) = (H256::hash(b"a"), H256::hash(b"b"));
        for version in [2, 3] {
            assert_eq!(
                root_from_leaves(version, 1, &[a, b]),
                root_from_leaves(version, 1, &[a, b, b]),
                "the legacy header leaves the padding ambiguous"
            );
        }
        assert_ne!(
            root_from_leaves(SNAPSHOT_VERSION, 1, &[a, b]),
            root_from_leaves(SNAPSHOT_VERSION, 1, &[a, b, b])
        );
    }

    #[test]
    fn appending_a_copy_of_the_last_section_is_rejected() {
        // an even number of sections: with the header that is an odd
        // leaf level, whose last leaf the tree duplicates — a wire form
        // carrying that section twice must not decode, in any version
        for version in [2, 3, SNAPSHOT_VERSION] {
            let mut two = sections();
            two.truncate(2);
            let snap = Snapshot::seal(version, 3, two).unwrap();
            let mut bytes = snap.encode();
            // the section count sits after magic, version, epoch and root
            let at = 4 + 2 + 8 + 32;
            bytes[at..at + 4].copy_from_slice(&3u32.to_be_bytes());
            bytes.extend_from_slice(&snap.sections()[1].encode_to_vec());
            assert_eq!(
                Snapshot::decode(&bytes),
                Err(CodecError::UnsortedSections),
                "v{version}"
            );
        }
    }

    #[test]
    fn unsorted_or_repeated_kinds_cannot_be_sealed() {
        let mut swapped = sections();
        swapped.swap(0, 1);
        assert_eq!(
            Snapshot::seal(SNAPSHOT_VERSION, 1, swapped),
            Err(CodecError::UnsortedSections)
        );
        let mut repeated = sections();
        repeated[2].kind = SectionKind::Ledger;
        assert_eq!(
            Snapshot::seal(3, 1, repeated),
            Err(CodecError::UnsortedSections)
        );
    }

    #[test]
    fn legacy_version_still_decodes() {
        let snap = Snapshot::seal(LEGACY_SNAPSHOT_VERSION, 7, sections()).unwrap();
        let bytes = snap.encode();
        let decoded = Snapshot::decode(&bytes).unwrap();
        assert_eq!(decoded, snap);
        assert_eq!(decoded.version(), LEGACY_SNAPSHOT_VERSION);
    }

    #[test]
    fn section_lookup() {
        let snap = sample();
        assert!(snap.section(SectionKind::Ledger).is_some());
        assert!(snap.section(SectionKind::Deposits).is_none());
        assert_eq!(snap.pool_sections().count(), 1);
        assert_eq!(snap.payload_bytes(), 5);
    }
}
