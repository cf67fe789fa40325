//! Fixed-size page decomposition of section encodings.
//!
//! Every section's canonical byte encoding is split into fixed-size
//! **pages** ([`DEFAULT_PAGE_SIZE`] bytes; the final page may be short).
//! Each page gets a domain-separated hash binding the owning section's
//! kind, the page index and the page bytes, and [`page_root`] commits to
//! the whole page vector (plus the byte length) with a Merkle tree — the
//! sub-leaf structure *under* the existing section leaf. Section hashes
//! and snapshot roots are computed exactly as before, so paging changes
//! no commitment; it only makes sub-section diffing and transfer
//! addressable.
//!
//! Because pool sections encode positions as sorted fixed-stride records
//! and ticks as sorted fixed-width entries, byte pages line up with the
//! logical layout: page 0 covers the pool header, the middle pages the
//! tick table, the tail pages the position table — an in-place field
//! update dirties exactly one page.

use crate::codec::Encode;
use crate::snapshot::SectionKind;
use ammboost_crypto::keccak::keccak256_x4_concat;
use ammboost_crypto::merkle::merkle_root;
use ammboost_crypto::H256;

/// Domain prefix of every page hash.
const PAGE_DOMAIN: &[u8] = b"ammboost-snapshot-page";

/// Domain prefix of the page-root length leaf.
const PAGE_ROOT_DOMAIN: &[u8] = b"ammboost-page-root";

/// Page size used by the checkpointer and the sync path.
///
/// Chosen so a sparse-dirty epoch stays sparse in *pages*: at 10⁵
/// positions (172-byte records) a 1% random touch dirties ~1000 distinct
/// records; 1 KiB pages keep the dirtied byte volume near 1 MiB where a
/// full section re-encode is ~17 MiB. Larger pages amortize hashing
/// better but smear single-record updates across more bytes.
pub const DEFAULT_PAGE_SIZE: usize = 1024;

/// Number of pages `len` bytes split into (an empty section has none).
pub fn page_count(len: usize, page_size: usize) -> usize {
    len.div_ceil(page_size)
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

/// [`page_hash`] of a run of `(index, bytes)` pages of one section, in
/// the order given, four pages per interleaved Keccak permutation (a
/// section's pages are equally long but for its last, so the four
/// streams finish together); the < 4 remainder goes through
/// [`page_hash`]. Bit-identical to hashing each page alone.
pub(crate) fn hash_pages(kind: SectionKind, pages: &[(u32, &[u8])]) -> Vec<H256> {
    let kind_bytes = kind.encode_to_vec();
    let mut hashes = Vec::with_capacity(pages.len());
    let mut quads = pages.chunks_exact(4);
    for q in &mut quads {
        let index = [q[0].0, q[1].0, q[2].0, q[3].0].map(u32::to_be_bytes);
        let digests = keccak256_x4_concat([
            &[PAGE_DOMAIN, &kind_bytes, &index[0], q[0].1],
            &[PAGE_DOMAIN, &kind_bytes, &index[1], q[1].1],
            &[PAGE_DOMAIN, &kind_bytes, &index[2], q[2].1],
            &[PAGE_DOMAIN, &kind_bytes, &index[3], q[3].1],
        ]);
        hashes.extend(digests.map(H256));
    }
    let tail = quads.remainder().iter();
    hashes.extend(tail.map(|&(index, bytes)| page_hash(kind, index, bytes)));
    hashes
}

/// [`page_hash`] over every page of a section encoding, in index order.
///
/// # Panics
/// Panics when `page_size` is zero.
pub fn page_hashes(kind: SectionKind, bytes: &[u8], page_size: usize) -> Vec<H256> {
    let pages = bytes.chunks(page_size).enumerate();
    hash_pages(kind, &pages.map(|(i, c)| (i as u32, c)).collect::<Vec<_>>())
}

/// The Merkle sub-root over a section's pages: a length leaf (domain,
/// kind, byte length) followed by every page hash. This is the per-
/// section commitment a page manifest advertises; the section leaf in
/// the snapshot root stays [`Section::hash`](crate::snapshot::Section::hash)
/// over the full bytes, so existing roots are untouched.
pub fn page_root(kind: SectionKind, bytes: &[u8], page_size: usize) -> H256 {
    let mut leaves = Vec::with_capacity(page_count(bytes.len(), page_size) + 1);
    leaves.push(H256::hash_concat(&[
        PAGE_ROOT_DOMAIN,
        &kind.encode_to_vec(),
        &(bytes.len() as u64).to_be_bytes(),
    ]));
    leaves.extend(page_hashes(kind, bytes, page_size));
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

/// Page indexes (with their new bytes) at which `new` differs from
/// `old`, including every page past the end of `old`. Pure memcmp — no
/// hashing — so the stage half of a checkpoint stays encode-only and all
/// hashing is the commit half's.
pub fn diff_pages(old: &[u8], new: &[u8], page_size: usize) -> Vec<(u32, Vec<u8>)> {
    new.chunks(page_size)
        .enumerate()
        .filter(|(i, chunk)| {
            let start = i * page_size;
            old.get(start..start + chunk.len()) != Some(*chunk)
                || (chunk.len() < page_size && old.len() > start + chunk.len())
        })
        .map(|(i, chunk)| (i as u32, chunk.to_vec()))
        .collect()
}

/// Attaches sub-leaf hashes to raw page diffs (the deferred hashing half
/// of [`diff_pages`]).
pub fn seal_pages(kind: SectionKind, raw: Vec<(u32, Vec<u8>)>) -> Vec<PageDiff> {
    let views: Vec<(u32, &[u8])> = raw.iter().map(|(i, b)| (*i, b.as_slice())).collect();
    let hashes = hash_pages(kind, &views);
    let sealed = raw.into_iter().zip(hashes);
    sealed
        .map(|((index, bytes), hash)| PageDiff { index, hash, bytes })
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
    /// `page_size` long except the final one).
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
/// gap there survives as zeroes and fails the section-hash check the
/// caller performs). The inverse of [`diff_pages`]:
/// `apply_pages(old, new.len(), diff_pages(old, new), ps) == new`.
///
/// # Errors
/// [`PageError`] on a page outside the new encoding or with the wrong
/// length for its slot.
pub fn apply_pages(
    base: &[u8],
    new_len: usize,
    pages: &[PageDiff],
    page_size: usize,
) -> Result<Vec<u8>, PageError> {
    let total = page_count(new_len, page_size);
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
        let start = index * page_size;
        let expected = page_size.min(new_len - start);
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

    const PS: usize = 8;

    fn apply_raw(old: &[u8], new: &[u8]) -> Vec<u8> {
        let pages = seal_pages(SectionKind::Ledger, diff_pages(old, new, PS));
        apply_pages(old, new.len(), &pages, PS).unwrap()
    }

    #[test]
    fn diff_apply_roundtrips_every_shape() {
        let old: Vec<u8> = (0..37).collect();
        // same length, one byte changed mid-page
        let mut new = old.clone();
        new[19] ^= 0xFF;
        assert_eq!(apply_raw(&old, &new), new);
        // growth (tail pages appended), shrink (truncation), from empty
        let grown: Vec<u8> = (0..61).collect();
        assert_eq!(apply_raw(&old, &grown), grown);
        let shrunk: Vec<u8> = (0..13).collect();
        assert_eq!(apply_raw(&old, &shrunk), shrunk);
        assert_eq!(apply_raw(&[], &old), old);
        assert_eq!(apply_raw(&old, &[]), Vec::<u8>::new());
        // identical inputs diff to nothing
        assert!(diff_pages(&old, &old, PS).is_empty());
    }

    #[test]
    fn single_byte_change_dirties_one_page() {
        let old = vec![7u8; 64];
        let mut new = old.clone();
        new[25] = 8;
        let diff = diff_pages(&old, &new, PS);
        assert_eq!(diff.len(), 1);
        assert_eq!(diff[0].0, 3, "byte 25 lives in page 3 at size 8");
    }

    #[test]
    fn shrink_within_last_page_redirties_it() {
        // old ends mid-page; new truncates further into the same page —
        // the shared prefix is byte-equal, so only the length-aware
        // clause of diff_pages catches it
        let old = vec![3u8; 12];
        let new = vec![3u8; 10];
        let diff = diff_pages(&old, &new, PS);
        assert_eq!(diff.len(), 1);
        assert_eq!(diff[0].0, 1);
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
        let bytes: Vec<u8> = (0..5 * PS + 1).map(|i| (i * 31 % 251) as u8).collect();
        for kind in [SectionKind::Pool(7), SectionKind::Deposits] {
            for len in 0..=bytes.len() {
                let section = &bytes[..len];
                let want: Vec<H256> = section
                    .chunks(PS)
                    .enumerate()
                    .map(|(i, chunk)| page_hash(kind, i as u32, chunk))
                    .collect();
                assert_eq!(want.len(), page_count(len, PS));
                assert_eq!(page_hashes(kind, section, PS), want, "{kind:?} len {len}");
                // sealing a diff against nothing hashes the same pages
                let sealed = seal_pages(kind, diff_pages(&[], section, PS));
                let hashes: Vec<H256> = sealed.iter().map(|p| p.hash).collect();
                assert_eq!(hashes, want, "{kind:?} len {len} sealed");
            }
        }
    }

    #[test]
    fn batched_page_hashes_bind_the_given_index() {
        // a sparse diff: slots that are not 0, 1, 2, … in the batch
        let pages: Vec<(u32, Vec<u8>)> = [3u32, 9, 10, 40, 41, 77]
            .iter()
            .map(|&i| (i, vec![i as u8; PS]))
            .collect();
        for page in seal_pages(SectionKind::Ledger, pages) {
            let want = page_hash(SectionKind::Ledger, page.index, &page.bytes);
            assert_eq!(page.hash, want, "page {}", page.index);
        }
    }

    #[test]
    fn page_root_commits_to_length_and_content() {
        let kind = SectionKind::Deposits;
        let a = page_root(kind, &[1u8; 16], PS);
        assert_ne!(a, page_root(kind, &[1u8; 17], PS), "length committed");
        let mut bytes = [1u8; 16];
        bytes[9] = 2;
        assert_ne!(a, page_root(kind, &bytes, PS), "content committed");
        // empty sections still have a well-defined root
        assert_ne!(
            page_root(kind, &[], PS),
            page_root(SectionKind::Ledger, &[], PS)
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
            apply_pages(&[], 16, &pages, PS),
            Err(PageError::OutOfBounds { index: 9, pages: 2 })
        );
        let pages = vec![PageDiff {
            index: 1,
            hash: H256([0u8; 32]),
            bytes: vec![0; 3],
        }];
        assert_eq!(
            apply_pages(&[], 16, &pages, PS),
            Err(PageError::BadLength {
                index: 1,
                expected: 8,
                found: 3
            })
        );
    }
}
