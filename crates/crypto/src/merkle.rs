//! Keccak-256 binary Merkle trees for block transaction roots and
//! inclusion proofs (used to audit pruned meta-blocks against their
//! summary-block commitments).

use crate::keccak::{keccak256_x4_concat, keccak_f1600, keccak_f1600_x4, KECCAK256_RATE};
use crate::types::H256;
use serde::{Deserialize, Serialize};

/// Domain tags prevent leaf/node second-preimage confusion.
const LEAF_TAG: &[u8] = &[0x00];
const NODE_TAG: &[u8] = &[0x01];

/// Byte length of a node preimage: tag ‖ left ‖ right.
const NODE_PREIMAGE_BYTES: usize = 1 + 32 + 32;

/// Hashes a leaf payload.
pub fn leaf_hash(data: &[u8]) -> H256 {
    H256::hash_concat(&[LEAF_TAG, data])
}

/// Hashes four leaf payloads through the interleaved Keccak permutation.
/// Bit-identical to four [`leaf_hash`] calls.
pub fn leaf_hash_x4(items: [&[u8]; 4]) -> [H256; 4] {
    keccak256_x4_concat([
        &[LEAF_TAG, items[0]],
        &[LEAF_TAG, items[1]],
        &[LEAF_TAG, items[2]],
        &[LEAF_TAG, items[3]],
    ])
    .map(H256)
}

/// Reusable sponge block for node hashes. A node preimage (65 bytes) fits
/// a single Keccak rate block, so the domain tag and the Keccak padding
/// bytes are written once at construction and only the two child digests
/// change between calls — a level's worth of `node_hash` invocations
/// shares one preconfigured block instead of re-running the streaming
/// hasher's buffer bookkeeping per node.
struct NodeSponge {
    block: [u8; KECCAK256_RATE],
}

impl NodeSponge {
    fn new() -> NodeSponge {
        let mut block = [0u8; KECCAK256_RATE];
        block[0] = NODE_TAG[0];
        // Keccak padding for a 65-byte message: 0x01 right after the
        // payload, 0x80 in the last rate byte.
        block[NODE_PREIMAGE_BYTES] = 0x01;
        block[KECCAK256_RATE - 1] = 0x80;
        NodeSponge { block }
    }

    fn hash(&mut self, l: &H256, r: &H256) -> H256 {
        self.block[1..33].copy_from_slice(&l.0);
        self.block[33..65].copy_from_slice(&r.0);
        // Absorbing into the all-zero state is a plain load; one
        // permutation finishes the (single-block) message.
        let mut state = [0u64; 25];
        for (i, lane) in state.iter_mut().take(KECCAK256_RATE / 8).enumerate() {
            let mut bytes = [0u8; 8];
            bytes.copy_from_slice(&self.block[8 * i..8 * (i + 1)]);
            *lane = u64::from_le_bytes(bytes);
        }
        keccak_f1600(&mut state);
        let mut out = [0u8; 32];
        for i in 0..4 {
            out[8 * i..8 * (i + 1)].copy_from_slice(&state[i].to_le_bytes());
        }
        H256(out)
    }
}

fn node_hash(l: &H256, r: &H256) -> H256 {
    NodeSponge::new().hash(l, r)
}

/// Four [`NodeSponge`]s in lockstep: four 65-byte node preimages are
/// single rate blocks, so one [`keccak_f1600_x4`] permutation over the
/// interleaved load finishes all four node hashes. This is the Merkle
/// inner loop — a level of `n` nodes costs `⌈n/4⌉` four-way permutations
/// instead of `n` scalar ones.
struct NodeSponge4 {
    blocks: [[u8; KECCAK256_RATE]; 4],
}

impl NodeSponge4 {
    fn new() -> NodeSponge4 {
        let mut block = [0u8; KECCAK256_RATE];
        block[0] = NODE_TAG[0];
        block[NODE_PREIMAGE_BYTES] = 0x01;
        block[KECCAK256_RATE - 1] = 0x80;
        NodeSponge4 { blocks: [block; 4] }
    }

    fn hash(&mut self, pairs: [(&H256, &H256); 4]) -> [H256; 4] {
        for (block, (l, r)) in self.blocks.iter_mut().zip(pairs) {
            block[1..33].copy_from_slice(&l.0);
            block[33..65].copy_from_slice(&r.0);
        }
        let mut states = [[0u64; 4]; 25];
        for (i, lanes) in states.iter_mut().take(KECCAK256_RATE / 8).enumerate() {
            for s in 0..4 {
                let mut bytes = [0u8; 8];
                bytes.copy_from_slice(&self.blocks[s][8 * i..8 * (i + 1)]);
                lanes[s] = u64::from_le_bytes(bytes);
            }
        }
        keccak_f1600_x4(&mut states);
        let mut out = [H256::ZERO; 4];
        for s in 0..4 {
            for i in 0..4 {
                out[s].0[8 * i..8 * (i + 1)].copy_from_slice(&states[i][s].to_le_bytes());
            }
        }
        out
    }
}

/// Replaces `level` by its parent level in place: parent `p` reads nodes
/// `2p` and `2p + 1`, which lie at or past the slot it is written to.
/// Four sibling pairs go through one interleaved permutation; the tail
/// (< 4 pairs, or the odd duplicated node) goes through the scalar
/// sponge — same digests either way.
fn fold_level(level: &mut Vec<H256>, sponge: &mut NodeSponge, sponge4: &mut NodeSponge4) {
    let parents = level.len().div_ceil(2);
    let mut p = 0;
    while 2 * (p + 4) <= level.len() {
        let o: [H256; 8] = level[2 * p..2 * p + 8].try_into().expect("eight nodes");
        let quad = sponge4.hash([
            (&o[0], &o[1]),
            (&o[2], &o[3]),
            (&o[4], &o[5]),
            (&o[6], &o[7]),
        ]);
        level[p..p + 4].copy_from_slice(&quad);
        p += 4;
    }
    while p < parents {
        let l = level[2 * p];
        let r = level.get(2 * p + 1).copied().unwrap_or(l);
        level[p] = sponge.hash(&l, &r);
        p += 1;
    }
    level.truncate(parents);
}

/// The root [`MerkleTree::from_leaves`] would report, without keeping the
/// levels: the leaf vector is folded in place, level by level. This is
/// the form for callers that only commit (every block's transaction root,
/// snapshot and page roots); build the tree when proofs are needed.
pub fn merkle_root(mut leaves: Vec<H256>) -> H256 {
    let mut sponge = NodeSponge::new();
    let mut sponge4 = NodeSponge4::new();
    while leaves.len() > 1 {
        fold_level(&mut leaves, &mut sponge, &mut sponge4);
    }
    leaves.first().copied().unwrap_or(H256::ZERO)
}

/// A Merkle tree with all levels retained for proof generation.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MerkleTree {
    /// `levels[0]` holds the leaves (none for the empty tree), the last
    /// level the root.
    levels: Vec<Vec<H256>>,
}

/// A sibling-path inclusion proof.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MerkleProof {
    /// Index of the proven leaf.
    pub index: usize,
    /// Sibling hashes from leaf level to just below the root.
    pub siblings: Vec<H256>,
}

impl MerkleTree {
    /// Builds a tree from pre-hashed leaves. An empty leaf set yields the
    /// all-zero root. Odd levels duplicate their last node.
    pub fn from_leaves(leaves: Vec<H256>) -> MerkleTree {
        // depth = ceil(log2(n)); the tree has depth + 1 levels, so the
        // outer vector never reallocates while levels are pushed
        let depth = if leaves.len() <= 1 {
            0
        } else {
            (usize::BITS - (leaves.len() - 1).leading_zeros()) as usize
        };
        let mut levels = Vec::with_capacity(depth + 1);
        let mut level = leaves;
        let mut sponge = NodeSponge::new();
        let mut sponge4 = NodeSponge4::new();
        while level.len() > 1 {
            levels.push(level.clone());
            fold_level(&mut level, &mut sponge, &mut sponge4);
        }
        levels.push(level);
        debug_assert_eq!(levels.len(), depth + 1, "depth formula exact");
        MerkleTree { levels }
    }

    /// [`MerkleTree::from_leaves`] through the scalar sponge only — the
    /// differential oracle for the four-way batched build (and its bench
    /// baseline). Roots, levels and proofs are bit-identical.
    pub fn from_leaves_scalar(leaves: Vec<H256>) -> MerkleTree {
        let mut levels = vec![leaves];
        let mut sponge = NodeSponge::new();
        while levels.last().expect("non-empty").len() > 1 {
            let prev = levels.last().expect("non-empty");
            let mut next = Vec::with_capacity(prev.len().div_ceil(2));
            for pair in prev.chunks(2) {
                let l = &pair[0];
                let r = pair.get(1).unwrap_or(l);
                next.push(sponge.hash(l, r));
            }
            levels.push(next);
        }
        MerkleTree { levels }
    }

    /// Builds a tree by hashing raw items as leaves, four leaf hashes per
    /// interleaved permutation.
    pub fn from_items<T: AsRef<[u8]>>(items: &[T]) -> MerkleTree {
        let mut leaves = Vec::with_capacity(items.len());
        let mut quads = items.chunks_exact(4);
        for q in &mut quads {
            leaves.extend_from_slice(&leaf_hash_x4([
                q[0].as_ref(),
                q[1].as_ref(),
                q[2].as_ref(),
                q[3].as_ref(),
            ]));
        }
        for item in quads.remainder() {
            leaves.push(leaf_hash(item.as_ref()));
        }
        MerkleTree::from_leaves(leaves)
    }

    /// [`MerkleTree::from_items`] through scalar hashing only — the
    /// differential oracle for the batched leaf path.
    pub fn from_items_scalar<T: AsRef<[u8]>>(items: &[T]) -> MerkleTree {
        MerkleTree::from_leaves_scalar(items.iter().map(|i| leaf_hash(i.as_ref())).collect())
    }

    /// The Merkle root (all-zero for the empty tree).
    pub fn root(&self) -> H256 {
        let top = self.levels.last().expect("at least one level");
        top.first().copied().unwrap_or(H256::ZERO)
    }

    /// Number of leaves.
    pub fn len(&self) -> usize {
        self.levels[0].len()
    }

    /// `true` when the tree was built from zero leaves.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Produces an inclusion proof for leaf `index`.
    ///
    /// Returns `None` when the index is out of bounds.
    pub fn prove(&self, index: usize) -> Option<MerkleProof> {
        if index >= self.len() {
            return None;
        }
        let mut siblings = Vec::new();
        let mut idx = index;
        for level in &self.levels[..self.levels.len() - 1] {
            let sib = if idx.is_multiple_of(2) {
                level.get(idx + 1).unwrap_or(&level[idx])
            } else {
                &level[idx - 1]
            };
            siblings.push(*sib);
            idx /= 2;
        }
        Some(MerkleProof { index, siblings })
    }
}

/// Verifies an inclusion proof for `leaf` against `root`.
pub fn verify_proof(root: &H256, leaf: &H256, proof: &MerkleProof) -> bool {
    let mut acc = *leaf;
    let mut idx = proof.index;
    for sib in &proof.siblings {
        acc = if idx.is_multiple_of(2) {
            node_hash(&acc, sib)
        } else {
            node_hash(sib, &acc)
        };
        idx /= 2;
    }
    acc == *root
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("tx-{i}").into_bytes()).collect()
    }

    #[test]
    fn empty_tree_root_is_zero() {
        let t = MerkleTree::from_leaves(vec![]);
        assert_eq!(t.root(), H256::ZERO);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert!(t.prove(0).is_none());
    }

    #[test]
    fn tree_of_one_zero_leaf_is_not_the_empty_tree() {
        // same root as the empty tree, but it has a leaf and proves it
        let t = MerkleTree::from_leaves(vec![H256::ZERO]);
        assert_eq!((t.len(), t.is_empty()), (1, false));
        let p = t.prove(0).expect("the one leaf");
        assert!(verify_proof(&t.root(), &H256::ZERO, &p));
        assert!(t.prove(1).is_none());
    }

    #[test]
    fn single_leaf_root_is_leaf() {
        let leaf = leaf_hash(b"only");
        let t = MerkleTree::from_leaves(vec![leaf]);
        assert_eq!(t.root(), leaf);
        let p = t.prove(0).unwrap();
        assert!(p.siblings.is_empty());
        assert!(verify_proof(&t.root(), &leaf, &p));
    }

    #[test]
    fn proofs_verify_for_all_sizes() {
        for n in 1..=17 {
            let data = items(n);
            let t = MerkleTree::from_items(&data);
            for (i, item) in data.iter().enumerate() {
                let p = t.prove(i).unwrap();
                assert!(verify_proof(&t.root(), &leaf_hash(item), &p), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn wrong_leaf_rejected() {
        let data = items(8);
        let t = MerkleTree::from_items(&data);
        let p = t.prove(3).unwrap();
        assert!(!verify_proof(&t.root(), &leaf_hash(b"tx-4"), &p));
    }

    #[test]
    fn wrong_index_rejected() {
        let data = items(8);
        let t = MerkleTree::from_items(&data);
        let mut p = t.prove(3).unwrap();
        p.index = 4;
        assert!(!verify_proof(&t.root(), &leaf_hash(b"tx-3"), &p));
    }

    #[test]
    fn out_of_bounds_proof_is_none() {
        let t = MerkleTree::from_items(&items(4));
        assert!(t.prove(4).is_none());
    }

    #[test]
    fn root_changes_with_any_leaf() {
        let a = MerkleTree::from_items(&items(6)).root();
        let mut data = items(6);
        data[5] = b"tx-5-mutated".to_vec();
        let b = MerkleTree::from_items(&data).root();
        assert_ne!(a, b);
    }

    #[test]
    fn node_sponge_matches_streaming_hasher() {
        // The preconfigured single-block sponge must produce exactly the
        // digest the generic streaming hasher yields for tag ‖ l ‖ r.
        let mut sponge = NodeSponge::new();
        for i in 0..10u8 {
            let l = H256::hash(&[i]);
            let r = H256::hash(&[i, i]);
            let expect = H256::hash_concat(&[NODE_TAG, &l.0, &r.0]);
            assert_eq!(sponge.hash(&l, &r), expect, "node {i}");
        }
    }

    #[test]
    fn node_sponge4_matches_scalar_sponge() {
        let mut sponge = NodeSponge::new();
        let mut sponge4 = NodeSponge4::new();
        let digests: Vec<H256> = (0..8u8).map(|i| H256::hash(&[i])).collect();
        let pairs = [
            (&digests[0], &digests[1]),
            (&digests[2], &digests[3]),
            (&digests[4], &digests[5]),
            (&digests[6], &digests[7]),
        ];
        let got = sponge4.hash(pairs);
        for (s, (l, r)) in pairs.into_iter().enumerate() {
            assert_eq!(got[s], sponge.hash(l, r), "pair {s}");
        }
    }

    #[test]
    fn batched_build_bit_identical_to_scalar_for_all_small_sizes() {
        // every size 0..=257: crosses the 8-leaf octet boundary, odd
        // duplication, and the <4-pair tail in every combination
        for n in 0..=257usize {
            let data = items(n);
            let batched = MerkleTree::from_items(&data);
            let scalar = MerkleTree::from_items_scalar(&data);
            assert_eq!(batched.root(), scalar.root(), "n={n}");
            assert_eq!(batched.levels, scalar.levels, "n={n} levels diverge");
            let leaves = scalar.levels[0].clone();
            assert_eq!(merkle_root(leaves), scalar.root(), "n={n} in-place fold");
            if n > 0 {
                for i in [0, n / 2, n - 1] {
                    assert_eq!(batched.prove(i), scalar.prove(i), "n={n} proof {i}");
                }
            }
        }
    }

    #[test]
    fn leaf_hash_x4_matches_scalar() {
        let items: [&[u8]; 4] = [b"", b"a", b"ammboost", b"a-longer-leaf-payload"];
        let got = leaf_hash_x4(items);
        for s in 0..4 {
            assert_eq!(got[s], leaf_hash(items[s]), "slot {s}");
        }
    }

    #[test]
    fn leaf_node_domain_separation() {
        // A node hash of two leaves must differ from a leaf hash of their
        // concatenation.
        let l = leaf_hash(b"a");
        let r = leaf_hash(b"b");
        let node = MerkleTree::from_leaves(vec![l, r]).root();
        let mut concat = Vec::new();
        concat.extend_from_slice(&l.0);
        concat.extend_from_slice(&r.0);
        assert_ne!(node, leaf_hash(&concat));
    }
}
