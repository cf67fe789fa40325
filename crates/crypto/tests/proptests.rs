//! Property-based tests for the cryptographic substrate.

use ammboost_crypto::field::{Fr, MODULUS};
use ammboost_crypto::keccak::{keccak256, keccak256_x4, keccak_f1600, keccak_f1600_x4, Keccak256};
use ammboost_crypto::merkle::{leaf_hash, verify_proof, MerkleTree};
use ammboost_crypto::shamir::{reconstruct_secret, Polynomial, Share};
use ammboost_crypto::u256::{U256, U512};
use proptest::prelude::*;

fn arb_u256() -> impl Strategy<Value = U256> {
    any::<[u64; 4]>().prop_map(U256::from_limbs)
}

fn arb_fr() -> impl Strategy<Value = Fr> {
    arb_u256().prop_map(Fr::from_u256_reduced)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // ---- U256 ring axioms -------------------------------------------------

    #[test]
    fn u256_add_commutes(a in arb_u256(), b in arb_u256()) {
        prop_assert_eq!(a.wrapping_add(b), b.wrapping_add(a));
    }

    #[test]
    fn u256_add_associates(a in arb_u256(), b in arb_u256(), c in arb_u256()) {
        prop_assert_eq!(
            a.wrapping_add(b).wrapping_add(c),
            a.wrapping_add(b.wrapping_add(c))
        );
    }

    #[test]
    fn u256_mul_commutes(a in arb_u256(), b in arb_u256()) {
        prop_assert_eq!(a.full_mul(b), b.full_mul(a));
    }

    #[test]
    fn u256_add_sub_inverse(a in arb_u256(), b in arb_u256()) {
        prop_assert_eq!(a.wrapping_add(b).wrapping_sub(b), a);
    }

    #[test]
    fn u256_div_rem_identity(a in arb_u256(), b in arb_u256()) {
        prop_assume!(!b.is_zero());
        let (q, r) = a.div_rem(b);
        prop_assert!(r < b);
        let back = q.full_mul(b).to_u256().unwrap().checked_add(r).unwrap();
        prop_assert_eq!(back, a);
    }

    #[test]
    fn u512_div_rem_identity(a in arb_u256(), b in arb_u256(), d in arb_u256()) {
        prop_assume!(!d.is_zero());
        let prod = a.full_mul(b);
        let (q, r) = prod.div_rem_u256(d);
        prop_assert!(r < d);
        // q*d + r == prod, computed in 512 bits
        let qd = {
            // multiply q (U512, but fits since q <= prod) by d limb-wise via
            // splitting q into two U256 halves: q = hi*2^256 + lo
            let limbs = {
                let q256 = q.to_u256();
                match q256 {
                    Some(lo) => (U256::ZERO, lo),
                    None => {
                        // reconstruct halves from shifting
                        let lo = (q >> 0).to_u256().unwrap_or(U256::MAX); // placeholder, unreachable for prod = a*b with d>=1: q <= prod < 2^512
                        (U256::ZERO, lo)
                    }
                }
            };
            let (_hi, lo) = limbs;
            lo.full_mul(d)
        };
        // only check when q fits in 256 bits (always true when d > a or d > b;
        // restrict to that case)
        if q.to_u256().is_some() {
            let sum = qd.checked_add(U512::from_u256(r)).unwrap();
            prop_assert_eq!(sum, prod);
        }
    }

    #[test]
    fn u256_shift_roundtrip(a in arb_u256(), s in 0u32..256) {
        let masked = (a >> s) << s;
        // the low s bits are cleared, everything else preserved
        prop_assert_eq!(masked >> s, a >> s);
    }

    #[test]
    fn u256_mul_div_floor_bound(a in arb_u256(), b in arb_u256(), d in arb_u256()) {
        prop_assume!(!d.is_zero());
        if let Some(q) = a.checked_mul_div(b, d) {
            // q*d <= a*b < (q+1)*d
            let qd = q.full_mul(d);
            let ab = a.full_mul(b);
            prop_assert!(qd <= ab);
        }
    }

    #[test]
    fn u256_isqrt_is_floor_sqrt(a in arb_u256()) {
        let r = a.isqrt();
        prop_assert!(r.full_mul(r).to_u256().map(|v| v <= a).unwrap_or(false) || a.is_zero());
        let r1 = r.wrapping_add(U256::ONE);
        let sq = r1.full_mul(r1);
        // (r+1)^2 > a
        prop_assert!(sq > U512::from_u256(a));
    }

    #[test]
    fn u256_dec_roundtrip(a in arb_u256()) {
        let s = a.to_string();
        prop_assert_eq!(U256::from_dec_str(&s).unwrap(), a);
    }

    #[test]
    fn u256_be_bytes_roundtrip(a in arb_u256()) {
        prop_assert_eq!(U256::from_be_bytes(a.to_be_bytes()), a);
    }

    // ---- Field axioms ------------------------------------------------------

    #[test]
    fn fr_add_group(a in arb_fr(), b in arb_fr(), c in arb_fr()) {
        prop_assert_eq!(a + b, b + a);
        prop_assert_eq!((a + b) + c, a + (b + c));
        prop_assert_eq!(a + Fr::ZERO, a);
        prop_assert_eq!(a + (-a), Fr::ZERO);
    }

    #[test]
    fn fr_mul_distributes(a in arb_fr(), b in arb_fr(), c in arb_fr()) {
        prop_assert_eq!(a * (b + c), a * b + a * c);
    }

    #[test]
    fn fr_inverse_law(a in arb_fr()) {
        prop_assume!(!a.is_zero());
        prop_assert_eq!(a * a.inverse().unwrap(), Fr::ONE);
    }

    #[test]
    fn fr_canonical_range(a in arb_fr()) {
        prop_assert!(a.to_u256() < MODULUS);
    }

    // ---- Keccak ------------------------------------------------------------

    #[test]
    fn keccak_incremental_equals_oneshot(data in proptest::collection::vec(any::<u8>(), 0..600), split in 0usize..600) {
        let split = split.min(data.len());
        let mut h = Keccak256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), keccak256(&data));
    }

    #[test]
    fn keccak_x4_permutation_equals_four_scalar(lanes in proptest::collection::vec(any::<u64>(), 100..101)) {
        let mut scalar = [[0u64; 25]; 4];
        let mut interleaved = [[0u64; 4]; 25];
        for s in 0..4 {
            for i in 0..25 {
                scalar[s][i] = lanes[25 * s + i];
                interleaved[i][s] = lanes[25 * s + i];
            }
        }
        for state in scalar.iter_mut() {
            keccak_f1600(state);
        }
        keccak_f1600_x4(&mut interleaved);
        for s in 0..4 {
            for i in 0..25 {
                prop_assert_eq!(interleaved[i][s], scalar[s][i], "stream {} lane {}", s, i);
            }
        }
    }

    #[test]
    fn keccak_x4_hash_equals_four_scalar(
        a in proptest::collection::vec(any::<u8>(), 0..400),
        b in proptest::collection::vec(any::<u8>(), 0..400),
        c in proptest::collection::vec(any::<u8>(), 0..400),
        d in proptest::collection::vec(any::<u8>(), 0..400),
    ) {
        let msgs: [&[u8]; 4] = [&a, &b, &c, &d];
        let got = keccak256_x4(msgs);
        for s in 0..4 {
            prop_assert_eq!(got[s], keccak256(msgs[s]), "stream {}", s);
        }
    }

    // ---- Shamir ------------------------------------------------------------

    #[test]
    fn shamir_reconstructs_from_any_threshold_subset(
        secret in arb_fr(),
        t in 1usize..6,
        extra in 0usize..4,
        seed in any::<u64>(),
    ) {
        let n = t + extra;
        let mut ctr = seed;
        let poly = Polynomial::random_with_secret(secret, t, move || {
            ctr = ctr.wrapping_add(0x9E3779B97F4A7C15);
            keccak256(&ctr.to_be_bytes())
        });
        let shares = poly.deal(n);
        // take the *last* t shares (an arbitrary subset)
        let subset: Vec<Share> = shares[n - t..].to_vec();
        prop_assert_eq!(reconstruct_secret(&subset).unwrap(), secret);
    }

    // ---- Merkle ------------------------------------------------------------

    #[test]
    fn merkle_all_proofs_verify(n in 1usize..40, seed in any::<u64>()) {
        let items: Vec<Vec<u8>> = (0..n)
            .map(|i| keccak256(&(seed ^ i as u64).to_be_bytes()).to_vec())
            .collect();
        let tree = MerkleTree::from_items(&items);
        for (i, item) in items.iter().enumerate() {
            let proof = tree.prove(i).unwrap();
            prop_assert!(verify_proof(&tree.root(), &leaf_hash(item), &proof));
        }
    }

    #[test]
    fn merkle_proof_rejects_other_leaf(n in 2usize..40, seed in any::<u64>()) {
        let items: Vec<Vec<u8>> = (0..n)
            .map(|i| keccak256(&(seed ^ i as u64).to_be_bytes()).to_vec())
            .collect();
        let tree = MerkleTree::from_items(&items);
        let proof = tree.prove(0).unwrap();
        prop_assert!(!verify_proof(&tree.root(), &leaf_hash(&items[1]), &proof));
    }
}
