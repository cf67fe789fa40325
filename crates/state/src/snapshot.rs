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
//! A section's leaf is its page root ([`page_root`]: a length leaf, then
//! the hash of every [`PAGE_SIZE`] page — the sub-leaves deltas and sync
//! manifests carry), and the header leaf commits the format version, the
//! epoch and the section count.
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

/// Domain prefix of the header leaf.
const HEADER_DOMAIN: &[u8] = b"ammboost-snapshot-header";

/// Snapshot file magic.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"ABSS";

/// The snapshot format version: the only one the node writes and the
/// only one decoders accept.
///
/// Version 6: pool sections are engine-tagged ([`EngineState`] with a
/// leading engine-kind byte), a section's leaf is its page root at
/// [`PAGE_SIZE`], the header leaf commits the section count, the ledger
/// section holds the ledger as retention leaves it — summaries, then the
/// open epoch's meta-blocks only ([`Ledger::retained_meta`]), then the
/// tip and the byte counters, with no peak size — and a pool section
/// carries no tick-price table.
///
/// Version 7 keeps all of that and changes the node's processor-meta aux
/// section only: the node holds one deposit book, so the section no
/// longer records which pool each depositor belongs to. It holds the
/// epoch's accept/reject counters and first-touch record once, then each
/// pool's position bookkeeping.
///
/// [`EngineState`]: ammboost_amm::engines::EngineState
/// [`PAGE_SIZE`]: crate::pages::PAGE_SIZE
/// [`Ledger::retained_meta`]: ammboost_sidechain::ledger::Ledger::retained_meta
pub const SNAPSHOT_VERSION: u16 = 7;

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

/// Every section's leaf: its page root. The pages of all sections are
/// hashed in one run, four per interleaved permutation (so small sections
/// share quads with large ones), then each section's page hashes are
/// folded under its length leaf.
pub(crate) fn section_leaves(sections: &[Section]) -> Vec<H256> {
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
/// header commits the number of sections, so a leaf list padded the way
/// the Merkle tree pads an odd level is a different root.
pub fn root_from_leaves(epoch: u64, leaves: &[H256]) -> H256 {
    let header = H256::hash_concat(&[
        HEADER_DOMAIN,
        &SNAPSHOT_VERSION.to_be_bytes(),
        &epoch.to_be_bytes(),
        &(leaves.len() as u32).to_be_bytes(),
    ]);
    let mut all = Vec::with_capacity(leaves.len() + 1);
    all.push(header);
    all.extend_from_slice(leaves);
    merkle_root(all)
}

/// Rejects section kinds that are not strictly ascending: out of order,
/// or the same kind twice. Every honest snapshot is in canonical order,
/// so this only ever refuses a crafted one.
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
    epoch: u64,
    sections: Vec<Section>,
    /// One leaf per section: its page root.
    leaves: Vec<H256>,
    root: H256,
}

impl Snapshot {
    /// Seals `sections` (canonical order) as the snapshot of `epoch`:
    /// every section's leaf and the root are computed here, once.
    ///
    /// # Errors
    /// [`CodecError::UnsortedSections`] when the section kinds are not
    /// strictly ascending.
    pub fn seal(epoch: u64, sections: Vec<Section>) -> Result<Snapshot, CodecError> {
        let leaves = section_leaves(&sections);
        Snapshot::from_leaves(epoch, sections, leaves)
    }

    /// Seals `sections` under leaves the caller already holds and has
    /// verified — a checkpoint's refolded page roots, a delta's rebuilt
    /// and reused leaves, a healed sync's manifest leaves. Only the root
    /// fold (one hash per leaf) runs here.
    ///
    /// # Errors
    /// As [`Snapshot::seal`].
    pub(crate) fn from_leaves(
        epoch: u64,
        sections: Vec<Section>,
        leaves: Vec<H256>,
    ) -> Result<Snapshot, CodecError> {
        check_canonical(sections.iter().map(|s| &s.kind))?;
        debug_assert_eq!(sections.len(), leaves.len(), "one leaf per section");
        let root = root_from_leaves(epoch, &leaves);
        Ok(Snapshot {
            epoch,
            sections,
            leaves,
            root,
        })
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
        w.put_u16(SNAPSHOT_VERSION);
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
    /// Any [`CodecError`]; notably [`CodecError::UnsupportedVersion`] for
    /// any version but [`SNAPSHOT_VERSION`] and [`CodecError::RootMismatch`]
    /// when the content does not hash to the declared root.
    pub fn decode(bytes: &[u8]) -> Result<Snapshot, CodecError> {
        let mut r = ByteReader::new(bytes);
        let mut magic = [0u8; 4];
        magic.copy_from_slice(r.take(4)?);
        if magic != SNAPSHOT_MAGIC {
            return Err(CodecError::BadMagic(magic));
        }
        let version = r.take_u16()?;
        if version != SNAPSHOT_VERSION {
            return Err(CodecError::UnsupportedVersion(version));
        }
        let epoch = r.take_u64()?;
        let declared_root: H256 = r.get()?;
        let sections: Vec<Section> = r.get()?;
        r.finish()?;
        let snapshot = Snapshot::seal(epoch, sections)?;
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
        Snapshot::seal(7, sections()).unwrap()
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
        let reseal = |epoch: u64, edit: &dyn Fn(&mut Vec<Section>)| {
            let mut sections = base.clone().into_sections();
            edit(&mut sections);
            Snapshot::seal(epoch, sections).unwrap().root()
        };
        assert_eq!(reseal(7, &|_| {}), base.root());
        assert_ne!(reseal(8, &|_| {}), base.root());
        assert_ne!(reseal(7, &|s| s[0].bytes[0] ^= 1), base.root());
        assert_ne!(
            reseal(7, &|s| s[0].kind = SectionKind::Pool(1)),
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
        // the version sits big-endian after the magic: 99 is from the
        // future, 2 to 6 are the retired formats
        for version in [99, 2, 3, 4, 5, 6] {
            let mut bytes = sample().encode();
            bytes[4..6].copy_from_slice(&u16::to_be_bytes(version));
            assert_eq!(
                Snapshot::decode(&bytes),
                Err(CodecError::UnsupportedVersion(version))
            );
        }
    }

    #[test]
    fn v4_leaves_are_page_roots() {
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
            let snap = Snapshot::seal(1, sections.clone()).unwrap();
            for (section, leaf) in sections.iter().zip(snap.leaves()) {
                assert_eq!(*leaf, page_root(section.kind, &section.bytes), "n={n}");
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
        assert_eq!(root_from_leaves(snap.epoch(), &leaves), snap.root());
        assert_ne!(
            root_from_leaves(snap.epoch() + 1, &leaves),
            snap.root(),
            "epoch is committed via the header leaf"
        );
    }

    #[test]
    fn v4_header_commits_the_section_count() {
        // [header, a, b] has an odd level the Merkle tree pads with its
        // last node, so [a, b, b] would fold to the same root — unless the
        // header counts the leaves, as it does
        let (a, b) = (H256::hash(b"a"), H256::hash(b"b"));
        assert_ne!(
            root_from_leaves(1, &[a, b]),
            root_from_leaves(1, &[a, b, b])
        );
    }

    #[test]
    fn appending_a_copy_of_the_last_section_is_rejected() {
        // an even number of sections: with the header that is an odd
        // leaf level, whose last leaf the tree duplicates — a wire form
        // carrying that section twice must not decode
        let mut two = sections();
        two.truncate(2);
        let snap = Snapshot::seal(3, two).unwrap();
        let mut bytes = snap.encode();
        // the section count sits after magic, version, epoch and root
        let at = 4 + 2 + 8 + 32;
        bytes[at..at + 4].copy_from_slice(&3u32.to_be_bytes());
        bytes.extend_from_slice(&snap.sections()[1].encode_to_vec());
        assert_eq!(Snapshot::decode(&bytes), Err(CodecError::UnsortedSections));
    }

    #[test]
    fn unsorted_or_repeated_kinds_cannot_be_sealed() {
        let mut swapped = sections();
        swapped.swap(0, 1);
        assert_eq!(
            Snapshot::seal(1, swapped),
            Err(CodecError::UnsortedSections)
        );
        let mut repeated = sections();
        repeated[2].kind = SectionKind::Ledger;
        assert_eq!(
            Snapshot::seal(1, repeated),
            Err(CodecError::UnsortedSections)
        );
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
