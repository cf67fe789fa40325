//! Fixed-size page decomposition of section encodings.
//!
//! Every section's canonical byte encoding is split into fixed-size
//! **pages** ([`PAGE_SIZE`] bytes; the final page may be short). Each
//! page gets a domain-separated hash binding the owning section's kind,
//! the page index and the page bytes, and [`page_root`] commits to the
//! whole page vector (plus the byte length) with a Merkle tree. Since
//! snapshot format v4 that page root *is* the section's leaf in the
//! snapshot root, so the sub-leaves a delta or a sync manifest carries
//! are bound to the state root directly, and the page size is part of
//! the format.
//!
//! Because pool sections encode positions as sorted fixed-stride records
//! and ticks as sorted fixed-width entries, byte pages line up with the
//! logical layout: page 0 covers the pool header, the middle pages the
//! tick table, the tail pages the position table — an in-place field
//! update dirties exactly one page.

use crate::codec::Encode;
use crate::snapshot::{Section, SectionKind};
use ammboost_crypto::keccak::keccak256_x4_concat;
use ammboost_crypto::merkle::merkle_root;
use ammboost_crypto::H256;

/// Domain prefix of every page hash.
const PAGE_DOMAIN: &[u8] = b"ammboost-snapshot-page";

/// Domain prefix of the page-root length leaf.
const PAGE_ROOT_DOMAIN: &[u8] = b"ammboost-page-root";

/// The page size of snapshot format v4: section leaves, checkpoint deltas
/// and sync manifests all split sections at this many bytes.
///
/// Chosen so a sparse-dirty epoch stays sparse in *pages*: at 10⁵
/// positions (172-byte records) a 1% random touch dirties ~1000 distinct
/// records; 1 KiB pages keep the dirtied byte volume near 1 MiB where a
/// full section re-encode is ~17 MiB. Larger pages amortize hashing
/// better but smear single-record updates across more bytes.
pub const PAGE_SIZE: usize = 1024;

/// Number of pages `len` bytes split into (an empty section has none).
pub fn page_count(len: usize) -> usize {
    len.div_ceil(PAGE_SIZE)
}

/// Domain-separated hash of one page, binding the owning section kind,
/// the page index and the page bytes — a page cannot be replayed into
/// another section or another slot.
pub fn page_hash(kind: SectionKind, index: u32, bytes: &[u8]) -> H256 {
    H256::hash_concat(&[
        PAGE_DOMAIN,
        &kind.encode_to_vec(),
        &index.to_be_bytes(),
        bytes,
    ])
}

/// One page to hash: its section's encoded kind, its slot and its bytes.
pub(crate) type PageRef<'a> = (&'a [u8], u32, &'a [u8]);

/// [`page_hash`] of a run of pages, in the order given, four pages per
/// interleaved Keccak permutation. The pages may belong to different
/// sections, so one batch covers every dirty page of a checkpoint; pages
/// are equally long but for each section's last, so the four streams
/// almost always finish together. The < 4 remainder goes scalar.
/// Bit-identical to hashing each page alone.
pub(crate) fn hash_page_refs(pages: &[PageRef<'_>]) -> Vec<H256> {
    let mut hashes = Vec::with_capacity(pages.len());
    let mut quads = pages.chunks_exact(4);
    for q in &mut quads {
        let index = [q[0].1, q[1].1, q[2].1, q[3].1].map(u32::to_be_bytes);
        let digests = keccak256_x4_concat([
            &[PAGE_DOMAIN, q[0].0, &index[0], q[0].2],
            &[PAGE_DOMAIN, q[1].0, &index[1], q[1].2],
            &[PAGE_DOMAIN, q[2].0, &index[2], q[2].2],
            &[PAGE_DOMAIN, q[3].0, &index[3], q[3].2],
        ]);
        hashes.extend(digests.map(H256));
    }
    hashes.extend(quads.remainder().iter().map(|&(kind, index, bytes)| {
        H256::hash_concat(&[PAGE_DOMAIN, kind, &index.to_be_bytes(), bytes])
    }));
    hashes
}

/// [`hash_page_refs`] over `(index, bytes)` pages of one section.
pub(crate) fn hash_pages(kind: SectionKind, pages: &[(u32, &[u8])]) -> Vec<H256> {
    let kind_bytes = kind.encode_to_vec();
    let refs: Vec<PageRef<'_>> = pages
        .iter()
        .map(|&(index, bytes)| (kind_bytes.as_slice(), index, bytes))
        .collect();
    hash_page_refs(&refs)
}

/// [`page_hash`] over every page of a section encoding, in index order.
pub fn page_hashes(kind: SectionKind, bytes: &[u8]) -> Vec<H256> {
    let pages = bytes.chunks(PAGE_SIZE).enumerate();
    hash_pages(kind, &pages.map(|(i, c)| (i as u32, c)).collect::<Vec<_>>())
}

/// [`page_hashes`] of every section, all pages in one four-lane run (so
/// small sections share quads with large ones), split back per section.
pub(crate) fn section_page_hashes(sections: &[Section]) -> Vec<Vec<H256>> {
    let kinds: Vec<Vec<u8>> = sections.iter().map(|s| s.kind.encode_to_vec()).collect();
    let refs: Vec<PageRef<'_>> = sections
        .iter()
        .zip(&kinds)
        .flat_map(|(s, kind)| {
            let pages = s.bytes.chunks(PAGE_SIZE).enumerate();
            pages.map(move |(i, page)| (kind.as_slice(), i as u32, page))
        })
        .collect();
    let mut hashes = hash_page_refs(&refs).into_iter();
    (sections.iter())
        .map(|s| hashes.by_ref().take(page_count(s.bytes.len())).collect())
        .collect()
}

/// The Merkle root over a section's [`PAGE_SIZE`] pages: a length leaf
/// (domain, kind, byte length) followed by every page hash. This is the
/// section's leaf in a v4 snapshot root.
pub fn page_root(kind: SectionKind, bytes: &[u8]) -> H256 {
    page_root_from_hashes(kind, bytes.len(), &page_hashes(kind, bytes))
}

/// [`page_root`] of a `len`-byte section whose page hashes are already
/// known — the refold a checkpoint does after re-hashing only its dirty
/// pages, and the check that binds a sync manifest to a trusted root.
pub(crate) fn page_root_from_hashes(kind: SectionKind, len: usize, page_hashes: &[H256]) -> H256 {
    let mut leaves = Vec::with_capacity(page_hashes.len() + 1);
    leaves.push(H256::hash_concat(&[
        PAGE_ROOT_DOMAIN,
        &kind.encode_to_vec(),
        &(len as u64).to_be_bytes(),
    ]));
    leaves.extend_from_slice(page_hashes);
    merkle_root(leaves)
}

/// One replaced page in a section delta: the slot, its sub-leaf hash and
/// the new bytes. Decoders verify `hash == page_hash(kind, index, bytes)`
/// so a flipped byte in either field fails loud before any splice.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PageDiff {
    /// Page slot in the *new* section encoding.
    pub index: u32,
    /// `page_hash(kind, index, bytes)` — the page's sub-leaf.
    pub hash: H256,
    /// The full new page content (short only for the final page).
    pub bytes: Vec<u8>,
}

/// The bytes of page `index` of `bytes`.
pub(crate) fn page_of(bytes: &[u8], index: u32) -> &[u8] {
    let start = index as usize * PAGE_SIZE;
    &bytes[start..(start + PAGE_SIZE).min(bytes.len())]
}

/// Page indexes at which `new` differs from `old`, including every page
/// past the end of `old`. Pure memcmp — no hashing — so the stage half of
/// a checkpoint stays encode-only and all hashing is the commit half's.
/// A page not listed has the same bytes at the same slot, hence the same
/// [`page_hash`].
pub fn diff_pages(old: &[u8], new: &[u8]) -> Vec<u32> {
    new.chunks(PAGE_SIZE)
        .enumerate()
        .filter(|(i, chunk)| {
            let start = i * PAGE_SIZE;
            old.get(start..start + chunk.len()) != Some(*chunk)
                || (chunk.len() < PAGE_SIZE && old.len() > start + chunk.len())
        })
        .map(|(i, _)| i as u32)
        .collect()
}

/// The pages of `bytes` at `indexes`, each with its sub-leaf hash (the
/// hashing half of [`diff_pages`]).
pub fn seal_pages(kind: SectionKind, bytes: &[u8], indexes: &[u32]) -> Vec<PageDiff> {
    let pages: Vec<(u32, &[u8])> = indexes.iter().map(|&i| (i, page_of(bytes, i))).collect();
    let hashes = hash_pages(kind, &pages);
    pages
        .into_iter()
        .zip(hashes)
        .map(|((index, bytes), hash)| PageDiff {
            index,
            hash,
            bytes: bytes.to_vec(),
        })
        .collect()
}

/// Why a page splice was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageError {
    /// A page index is outside the new encoding.
    OutOfBounds {
        /// The offending page slot.
        index: u32,
        /// Pages the new encoding actually has.
        pages: usize,
    },
    /// A page's byte length does not match its slot (every page is
    /// [`PAGE_SIZE`] long except the final one).
    BadLength {
        /// The offending page slot.
        index: u32,
        /// Bytes the slot requires.
        expected: usize,
        /// Bytes the diff carried.
        found: usize,
    },
}

impl std::fmt::Display for PageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PageError::OutOfBounds { index, pages } => {
                write!(f, "page {index} out of bounds ({pages} pages)")
            }
            PageError::BadLength {
                index,
                expected,
                found,
            } => write!(f, "page {index} length {found}, slot needs {expected}"),
        }
    }
}

impl std::error::Error for PageError {}

/// Splices `pages` over `base` to rebuild a `new_len`-byte encoding: the
/// shared prefix is copied from `base`, every diffed page overwrites its
/// slot, and bytes past `base` must all be covered by diffed pages (a
/// gap there survives as zeroes and fails the section-leaf check the
/// caller performs). The inverse of [`diff_pages`]:
/// `apply_pages(old, new.len(), &seal_pages(k, new, &diff_pages(old, new))) == new`.
///
/// # Errors
/// [`PageError`] on a page outside the new encoding or with the wrong
/// length for its slot.
pub fn apply_pages(base: &[u8], new_len: usize, pages: &[PageDiff]) -> Result<Vec<u8>, PageError> {
    let total = page_count(new_len);
    let mut out = vec![0u8; new_len];
    let shared = base.len().min(new_len);
    out[..shared].copy_from_slice(&base[..shared]);
    for page in pages {
        let index = page.index as usize;
        if index >= total {
            return Err(PageError::OutOfBounds {
                index: page.index,
                pages: total,
            });
        }
        let start = index * PAGE_SIZE;
        let expected = PAGE_SIZE.min(new_len - start);
        if page.bytes.len() != expected {
            return Err(PageError::BadLength {
                index: page.index,
                expected,
                found: page.bytes.len(),
            });
        }
        out[start..start + expected].copy_from_slice(&page.bytes);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const PS: usize = PAGE_SIZE;

    /// `len` bytes of a pattern that differs from page to page.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 % 251) as u8).collect()
    }

    fn apply_raw(old: &[u8], new: &[u8]) -> Vec<u8> {
        let pages = seal_pages(SectionKind::Ledger, new, &diff_pages(old, new));
        apply_pages(old, new.len(), &pages).unwrap()
    }

    #[test]
    fn diff_apply_roundtrips_every_shape() {
        let old = pattern(4 * PS + 5);
        // same length, one byte changed mid-page
        let mut new = old.clone();
        new[2 * PS + 3] ^= 0xFF;
        assert_eq!(apply_raw(&old, &new), new);
        // growth (tail pages appended), shrink (truncation), from empty
        let grown = pattern(7 * PS + 5);
        assert_eq!(apply_raw(&old, &grown), grown);
        let shrunk = pattern(PS + 5);
        assert_eq!(apply_raw(&old, &shrunk), shrunk);
        assert_eq!(apply_raw(&[], &old), old);
        assert_eq!(apply_raw(&old, &[]), Vec::<u8>::new());
        // identical inputs diff to nothing
        assert!(diff_pages(&old, &old).is_empty());
    }

    #[test]
    fn single_byte_change_dirties_one_page() {
        let old = vec![7u8; 8 * PS];
        let mut new = old.clone();
        new[3 * PS + 1] = 8;
        assert_eq!(diff_pages(&old, &new), vec![3]);
    }

    #[test]
    fn shrink_within_last_page_redirties_it() {
        // old ends mid-page; new truncates further into the same page —
        // the shared prefix is byte-equal, so only the length-aware
        // clause of diff_pages catches it
        let old = vec![3u8; PS + 4];
        let new = vec![3u8; PS + 2];
        assert_eq!(diff_pages(&old, &new), vec![1]);
        assert_eq!(apply_raw(&old, &new), new);
    }

    #[test]
    fn page_hash_binds_kind_index_and_bytes() {
        let h = page_hash(SectionKind::Pool(0), 0, b"abc");
        assert_ne!(h, page_hash(SectionKind::Pool(1), 0, b"abc"));
        assert_ne!(h, page_hash(SectionKind::Pool(0), 1, b"abc"));
        assert_ne!(h, page_hash(SectionKind::Pool(0), 0, b"abd"));
    }

    #[test]
    fn batched_page_hashes_match_page_hash_around_every_page_boundary() {
        // 0..=5 pages with lengths one short of, at and one past every
        // multiple of the page size: every remainder of the four-page
        // batching, the short last page and the empty section
        let bytes = pattern(5 * PS + 1);
        let lens = (0..=5 * PS)
            .step_by(PS)
            .flat_map(|l| [l.saturating_sub(1), l, l + 1]);
        for kind in [SectionKind::Pool(7), SectionKind::Deposits] {
            for len in lens.clone() {
                let section = &bytes[..len];
                let want: Vec<H256> = section
                    .chunks(PS)
                    .enumerate()
                    .map(|(i, chunk)| page_hash(kind, i as u32, chunk))
                    .collect();
                assert_eq!(want.len(), page_count(len));
                assert_eq!(page_hashes(kind, section), want, "{kind:?} len {len}");
                // sealing a diff against nothing hashes the same pages
                let sealed = seal_pages(kind, section, &diff_pages(&[], section));
                let hashes: Vec<H256> = sealed.iter().map(|p| p.hash).collect();
                assert_eq!(hashes, want, "{kind:?} len {len} sealed");
            }
        }
        // and hashing several sections in one run splits back per section
        let sections: Vec<Section> = [0, PS - 1, 3 * PS + 1, 1, 2 * PS]
            .iter()
            .enumerate()
            .map(|(tag, &len)| Section {
                kind: SectionKind::Aux(tag as u8),
                bytes: bytes[..len].to_vec(),
            })
            .collect();
        let each: Vec<Vec<H256>> = (sections.iter())
            .map(|s| page_hashes(s.kind, &s.bytes))
            .collect();
        assert_eq!(section_page_hashes(&sections), each);
    }

    #[test]
    fn batched_page_hashes_bind_the_given_index() {
        // a sparse diff: slots that are not 0, 1, 2, … in the batch
        let bytes: Vec<u8> = (0..78 * PS).map(|i| (i / PS) as u8).collect();
        let indexes = [3u32, 9, 10, 40, 41, 77];
        for page in seal_pages(SectionKind::Ledger, &bytes, &indexes) {
            let want = page_hash(SectionKind::Ledger, page.index, &page.bytes);
            assert_eq!(page.hash, want, "page {}", page.index);
            assert_eq!(page.bytes, vec![page.index as u8; PS]);
        }
    }

    #[test]
    fn pages_of_several_sections_hash_in_one_batch() {
        // the checkpoint's batch: dirty pages of three sections, mixed
        let kinds = [
            SectionKind::Pool(2),
            SectionKind::Ledger,
            SectionKind::Aux(4),
        ];
        let encoded: Vec<Vec<u8>> = kinds.iter().map(|k| k.encode_to_vec()).collect();
        let pages: Vec<(usize, u32, Vec<u8>)> = (0..11u32)
            .map(|i| (i as usize % 3, i * 5, vec![i as u8; 1 + i as usize]))
            .collect();
        let refs: Vec<PageRef<'_>> = pages
            .iter()
            .map(|(k, index, bytes)| (encoded[*k].as_slice(), *index, bytes.as_slice()))
            .collect();
        let want: Vec<H256> = pages
            .iter()
            .map(|(k, index, bytes)| page_hash(kinds[*k], *index, bytes))
            .collect();
        assert_eq!(hash_page_refs(&refs), want);
    }

    #[test]
    fn page_root_commits_to_length_and_content() {
        let kind = SectionKind::Deposits;
        let a = page_root(kind, &[1u8; 16]);
        assert_ne!(a, page_root(kind, &[1u8; 17]), "length committed");
        let mut bytes = [1u8; 16];
        bytes[9] = 2;
        assert_ne!(a, page_root(kind, &bytes), "content committed");
        // empty sections still have a well-defined root
        assert_ne!(page_root(kind, &[]), page_root(SectionKind::Ledger, &[]));
        // the root over known hashes is the same fold
        let long = pattern(3 * PS + 5);
        assert_eq!(
            page_root(kind, &long),
            page_root_from_hashes(kind, long.len(), &page_hashes(kind, &long))
        );
    }

    #[test]
    fn splice_validation_fails_closed() {
        let pages = vec![PageDiff {
            index: 9,
            hash: page_hash(SectionKind::Ledger, 9, &[0; PS]),
            bytes: vec![0; PS],
        }];
        assert_eq!(
            apply_pages(&[], 2 * PS, &pages),
            Err(PageError::OutOfBounds { index: 9, pages: 2 })
        );
        let pages = vec![PageDiff {
            index: 1,
            hash: H256([0u8; 32]),
            bytes: vec![0; 3],
        }];
        assert_eq!(
            apply_pages(&[], 2 * PS, &pages),
            Err(PageError::BadLength {
                index: 1,
                expected: PS,
                found: 3
            })
        );
    }
}
