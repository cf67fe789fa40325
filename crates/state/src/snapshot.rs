//! Merkle-committed state snapshots.
//!
//! A [`Snapshot`] is a versioned container of independently encoded
//! [`Section`]s (one per pool, one for the ledger, one for the deposit
//! map, plus caller-defined auxiliary sections). Each section is
//! domain-hashed and the snapshot's [`Snapshot::root`] is the Keccak
//! Merkle root over a header leaf and the section hashes — a single
//! 32-byte commitment to the entire system state. The wire encoding
//! embeds the root, and [`Snapshot::decode`] recomputes and checks it, so
//! a corrupt or tampered snapshot fails loud instead of restoring wrong
//! state.

use crate::codec::{ByteReader, ByteWriter, CodecError, Decode, Encode};
use ammboost_crypto::keccak::keccak256_x4_concat;
use ammboost_crypto::merkle::merkle_root;
use ammboost_crypto::H256;

/// Domain prefix of every section hash.
const SECTION_DOMAIN: &[u8] = b"ammboost-snapshot-section";

/// Snapshot file magic.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"ABSS";

/// Current snapshot format version. Decoders reject anything newer.
/// Version 3: pool sections are engine-tagged ([`EngineState`] with a
/// leading engine-kind byte), supporting heterogeneous fleets.
/// Version 2 (pool sections are bare CL [`PoolState`] bytes) is still
/// decoded — see [`LEGACY_SNAPSHOT_VERSION`].
///
/// [`EngineState`]: ammboost_amm::engines::EngineState
/// [`PoolState`]: ammboost_amm::pool::PoolState
pub const SNAPSHOT_VERSION: u16 = 3;

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

impl Section {
    /// Domain-separated hash committing to both kind and content.
    pub fn hash(&self) -> H256 {
        H256::hash_concat(&[SECTION_DOMAIN, &self.kind.encode_to_vec(), &self.bytes])
    }
}

/// [`Section::hash`] over a slice of sections, four at a time through the
/// interleaved Keccak permutation (the remainder goes scalar). This is
/// the hashing inner loop of every checkpoint: section payloads in one
/// snapshot are similarly sized, so the four streams finish together and
/// the batched permutations run near full occupancy. Digests are
/// bit-identical to per-section [`Section::hash`] calls.
pub fn section_hashes(sections: &[Section]) -> Vec<H256> {
    let mut hashes = Vec::with_capacity(sections.len());
    let mut quads = sections.chunks_exact(4);
    for q in &mut quads {
        let kinds: [Vec<u8>; 4] = [
            q[0].kind.encode_to_vec(),
            q[1].kind.encode_to_vec(),
            q[2].kind.encode_to_vec(),
            q[3].kind.encode_to_vec(),
        ];
        let digests = keccak256_x4_concat([
            &[SECTION_DOMAIN, &kinds[0], &q[0].bytes],
            &[SECTION_DOMAIN, &kinds[1], &q[1].bytes],
            &[SECTION_DOMAIN, &kinds[2], &q[2].bytes],
            &[SECTION_DOMAIN, &kinds[3], &q[3].bytes],
        ]);
        hashes.extend(digests.map(H256));
    }
    hashes.extend(quads.remainder().iter().map(Section::hash));
    hashes
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

/// The snapshot state root for an epoch, computed from precomputed
/// section hashes (canonical order) without the sections themselves.
/// This is what lets a fast-sync manifest — epoch + per-section hashes —
/// be verified against a trusted root before any section bytes arrive,
/// and each arriving section be checked independently against its leaf.
/// [`Snapshot::root`] is exactly this over [`Section::hash`] values.
/// The format `version` is part of the header leaf, so a legacy snapshot
/// keeps the root it was sealed with.
pub fn root_from_section_hashes(version: u16, epoch: u64, section_hashes: &[H256]) -> H256 {
    let mut leaves = Vec::with_capacity(section_hashes.len() + 1);
    leaves.push(H256::hash_concat(&[
        b"ammboost-snapshot-header",
        &version.to_be_bytes(),
        &epoch.to_be_bytes(),
    ]));
    leaves.extend_from_slice(section_hashes);
    merkle_root(leaves)
}

/// A full-state checkpoint at an epoch boundary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    /// The format version the snapshot was sealed under. Determines the
    /// pool-section encoding (v2: bare CL state; v3: engine-tagged) and
    /// is committed in the root's header leaf.
    pub version: u16,
    /// The epoch the snapshot was taken at (state *after* this epoch's
    /// summary was sealed).
    pub epoch: u64,
    /// The state sections, in canonical order.
    pub sections: Vec<Section>,
}

impl Snapshot {
    /// The 32-byte state commitment: the Merkle root over a header leaf
    /// (version + epoch) and every section hash.
    pub fn root(&self) -> H256 {
        root_from_section_hashes(self.version, self.epoch, &section_hashes(&self.sections))
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
    /// serializing (and without the Merkle build `encode` performs for
    /// the embedded root).
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
        self.root().encode(&mut w);
        self.sections.encode(&mut w);
        w.into_bytes()
    }

    /// Deserializes and *verifies* a snapshot: magic, version, and the
    /// embedded state root against a recomputation over the decoded
    /// sections.
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
        if !(LEGACY_SNAPSHOT_VERSION..=SNAPSHOT_VERSION).contains(&version) {
            return Err(CodecError::UnsupportedVersion(version));
        }
        let epoch = r.take_u64()?;
        let declared_root: H256 = r.get()?;
        let sections: Vec<Section> = r.get()?;
        r.finish()?;
        let snapshot = Snapshot {
            version,
            epoch,
            sections,
        };
        if snapshot.root() != declared_root {
            return Err(CodecError::RootMismatch);
        }
        Ok(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        Snapshot {
            version: SNAPSHOT_VERSION,
            epoch: 7,
            sections: vec![
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
            ],
        }
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
        let mut diff_epoch = base.clone();
        diff_epoch.epoch += 1;
        assert_ne!(base.root(), diff_epoch.root());
        let mut diff_version = base.clone();
        diff_version.version = LEGACY_SNAPSHOT_VERSION;
        assert_ne!(base.root(), diff_version.root());
        let mut diff_bytes = base.clone();
        diff_bytes.sections[0].bytes[0] ^= 1;
        assert_ne!(base.root(), diff_bytes.root());
        let mut diff_kind = base.clone();
        diff_kind.sections[0].kind = SectionKind::Pool(1);
        assert_ne!(base.root(), diff_kind.root());
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
    }

    #[test]
    fn batched_section_hashes_match_scalar() {
        // section counts crossing the quad boundary, with unequal sizes
        for n in 0..10usize {
            let sections: Vec<Section> = (0..n)
                .map(|i| Section {
                    kind: if i % 3 == 0 {
                        SectionKind::Pool(i as u32)
                    } else {
                        SectionKind::Aux(i as u8)
                    },
                    bytes: vec![i as u8; 40 * i],
                })
                .collect();
            let batched = section_hashes(&sections);
            let scalar: Vec<H256> = sections.iter().map(Section::hash).collect();
            assert_eq!(batched, scalar, "n={n}");
        }
    }

    #[test]
    fn root_from_hashes_matches_full_root() {
        let snap = sample();
        let hashes: Vec<H256> = snap.sections.iter().map(Section::hash).collect();
        assert_eq!(
            root_from_section_hashes(snap.version, snap.epoch, &hashes),
            snap.root()
        );
        assert_ne!(
            root_from_section_hashes(snap.version, snap.epoch + 1, &hashes),
            snap.root(),
            "epoch is committed via the header leaf"
        );
    }

    #[test]
    fn legacy_version_still_decodes() {
        let mut snap = sample();
        snap.version = LEGACY_SNAPSHOT_VERSION;
        let bytes = snap.encode();
        let decoded = Snapshot::decode(&bytes).unwrap();
        assert_eq!(decoded, snap);
        assert_eq!(decoded.version, LEGACY_SNAPSHOT_VERSION);
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
