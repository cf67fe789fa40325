//! Protocol-level integration tests for the crypto substrate: the
//! committee-handover chain ammBoost relies on (DKG → vk registration →
//! TSQC under the new key), threshold boundaries, and cross-component
//! interactions.

use ammboost_crypto::bls::{keypair_from_seed, SecretKey, Signature};
use ammboost_crypto::dkg::{aggregate_dealings, run_ceremony, Dealing, DkgConfig};
use ammboost_crypto::tsqc::{
    combine, partial_sign, partial_sign_digest, quorum_threshold, verify_partial, PartialSignature,
    QuorumCertificate,
};
use ammboost_crypto::vrf::VrfSecretKey;
use ammboost_crypto::H256;
use proptest::prelude::*;

/// The full epoch-handover chain of §IV-C: committee e+1 runs DKG during
/// epoch e; committee e records vk_{e+1}; epoch e+1's sync verifies under
/// the new key and *only* the new key.
#[test]
fn committee_handover_chain() {
    let config = DkgConfig::for_faults(2); // n = 8, t = 6
    let mut current = run_ceremony(config, 100);
    let mut registered_vk = current.group_public_key;

    for epoch in 1..=5u64 {
        // next committee's ceremony runs during this epoch
        let next = run_ceremony(config, 100 + epoch);
        // this epoch's sync carries the next vk, signed under the current
        let payload = format!("Sync(epoch={epoch}, next_vk=..)");
        let partials: Vec<_> = current.key_shares[..config.threshold]
            .iter()
            .map(|ks| partial_sign(ks, payload.as_bytes()))
            .collect();
        let qc =
            QuorumCertificate::assemble(epoch, payload.as_bytes(), &partials, config.threshold)
                .unwrap();
        assert!(qc.verify(&registered_vk, payload.as_bytes()));
        // an old committee cannot fake the next epoch's sync
        if epoch > 1 {
            let stale = run_ceremony(config, 100 + epoch - 2);
            let forged: Vec<_> = stale.key_shares[..config.threshold]
                .iter()
                .map(|ks| partial_sign(ks, payload.as_bytes()))
                .collect();
            let forged_qc =
                QuorumCertificate::assemble(epoch, payload.as_bytes(), &forged, config.threshold)
                    .unwrap();
            // (stale seed differs from the registered committee)
            assert!(!forged_qc.verify(&registered_vk, payload.as_bytes()));
        }
        // handover
        registered_vk = next.group_public_key;
        current = next;
    }
}

#[test]
fn threshold_boundary_is_exact() {
    let config = DkgConfig::for_faults(3); // n = 11, t = 8
    let out = run_ceremony(config, 7);
    let msg = b"boundary";
    let partials: Vec<_> = out
        .key_shares
        .iter()
        .map(|ks| partial_sign(ks, msg))
        .collect();
    assert_eq!(quorum_threshold(11), 8);
    // t-1 fails
    assert!(combine(&partials[..7], 8).is_err());
    // exactly t succeeds and verifies
    let sig = combine(&partials[..8], 8).unwrap();
    assert!(out.group_public_key.verify_raw_tsqc(msg, &sig));
    // more than t gives the same signature
    let sig_all = combine(&partials, 8).unwrap();
    assert_eq!(sig, sig_all);
}

#[test]
fn mixed_good_and_bad_partials() {
    let config = DkgConfig::for_faults(2); // n = 8, t = 6
    let out = run_ceremony(config, 8);
    let msg = b"mixed";
    let mut partials: Vec<_> = out
        .key_shares
        .iter()
        .map(|ks| partial_sign(ks, msg))
        .collect();
    // two byzantine members sign a different message
    partials[0] = partial_sign(&out.key_shares[0], b"evil-0");
    partials[3] = partial_sign(&out.key_shares[3], b"evil-3");

    // the verifier can filter bad partials individually...
    let good: Vec<_> = partials
        .iter()
        .filter(|p| {
            let vk = out.key_shares[(p.index - 1) as usize].verification_key;
            verify_partial(&vk, msg, p)
        })
        .cloned()
        .collect();
    assert_eq!(good.len(), 6);
    // ...and the filtered set combines into a valid signature
    let sig = combine(&good, 6).unwrap();
    assert!(out.group_public_key.verify_raw_tsqc(msg, &sig));
    // combining blindly with the bad ones fails verification
    let blind = combine(&partials[..6], 6).unwrap();
    assert!(!out.group_public_key.verify_raw_tsqc(msg, &blind));
}

#[test]
fn dkg_with_exactly_threshold_qualified() {
    // n = 5, t = 3: two corrupt dealers leave exactly 3 qualified
    let config = DkgConfig::new(5, 3);
    let mut dealings: Vec<Dealing> = (1..=5u32)
        .map(|i| {
            let mut ctr = 0u64;
            Dealing::deal(i, config, move || {
                ctr += 1;
                ammboost_crypto::keccak::keccak256_concat(&[
                    b"exact",
                    &(i as u64).to_be_bytes(),
                    &ctr.to_be_bytes(),
                ])
            })
        })
        .collect();
    dealings[0].corrupt_share_for(2);
    dealings[4].corrupt_share_for(1);
    let out = aggregate_dealings(config, &dealings).unwrap();
    assert_eq!(out.qualified, vec![2, 3, 4]);
    // the reduced group still signs
    let msg = b"still alive";
    let partials: Vec<_> = out.key_shares[..3]
        .iter()
        .map(|ks| partial_sign(ks, msg))
        .collect();
    let sig = combine(&partials, 3).unwrap();
    assert!(out.group_public_key.verify_raw_tsqc(msg, &sig));
}

#[test]
fn vrf_outputs_are_statistically_spread() {
    // sortition fairness sanity: over 200 miners, outputs cover the unit
    // interval roughly uniformly
    let mut buckets = [0usize; 10];
    for i in 0..200u64 {
        let sk = VrfSecretKey::from_entropy(ammboost_crypto::keccak::keccak256(&i.to_be_bytes()));
        let (out, _) = sk.eval(b"spread-test");
        let f = ammboost_crypto::vrf::output_to_unit_fraction(&out);
        buckets[(f * 10.0) as usize % 10] += 1;
    }
    for (i, b) in buckets.iter().enumerate() {
        assert!(
            (5..=40).contains(b),
            "bucket {i} has {b} of 200 — far from uniform"
        );
    }
}

#[test]
fn aggregate_signature_is_order_independent() {
    let sks: Vec<_> = (0..6).map(|i| keypair_from_seed(55, i).0).collect();
    let sigs: Vec<Signature> = sks.iter().map(|s| s.sign(b"order")).collect();
    let forward = Signature::aggregate(&sigs);
    let mut rev = sigs.clone();
    rev.reverse();
    let backward = Signature::aggregate(&rev);
    assert_eq!(forward, backward);
}

#[test]
fn qc_binds_epoch_and_payload() {
    let out = run_ceremony(DkgConfig::for_faults(1), 77);
    let payload = b"epoch-9 sync";
    let partials: Vec<_> = out.key_shares[..4]
        .iter()
        .map(|ks| partial_sign(ks, payload))
        .collect();
    let qc = QuorumCertificate::assemble(9, payload, &partials, 4).unwrap();
    assert_eq!(qc.epoch, 9);
    assert_eq!(qc.payload_hash, H256::hash(payload));
    // tampering with the recorded hash breaks verification
    let mut bad = qc.clone();
    bad.payload_hash = H256::hash(b"other");
    assert!(!bad.verify(&out.group_public_key, payload));
}

/// Hash-then-sign keeps the TSQC domain: a share's TSQC signature over the
/// digest `d` is not its plain BLS signature over `d`'s bytes, nor the
/// reverse.
#[test]
fn tsqc_and_plain_bls_domains_are_separate() {
    let out = run_ceremony(DkgConfig::for_faults(1), 78);
    let ks = &out.key_shares[0];
    let sk = SecretKey::from_scalar(ks.secret);
    assert_eq!(sk.public_key(), ks.verification_key);
    let msg = b"sync payload";
    let d = H256::hash(msg);

    let tsqc = partial_sign_digest(ks, &d);
    assert!(verify_partial(&ks.verification_key, msg, &tsqc));
    assert!(!ks.verification_key.verify(d.as_bytes(), &tsqc.signature));

    let bls = sk.sign(d.as_bytes());
    assert!(ks.verification_key.verify(d.as_bytes(), &bls));
    let as_partial = PartialSignature {
        index: ks.index,
        signature: bls,
    };
    assert!(!verify_partial(&ks.verification_key, msg, &as_partial));
    assert!(!ks.verification_key.verify_raw_tsqc(msg, &bls));
    let as_qc = QuorumCertificate {
        epoch: 1,
        payload_hash: d,
        signature: bls,
        signers: vec![ks.index],
    };
    assert!(!as_qc.verify_digest(&ks.verification_key, &d));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The byte-slice API is `H256::hash` + the digest API: same partials,
    /// same certificate, same verdicts, whichever threshold subset signs.
    #[test]
    fn byte_and_digest_apis_are_one_function(
        msg in proptest::collection::vec(any::<u8>(), 0..400),
        other in proptest::collection::vec(any::<u8>(), 0..40),
        seed in any::<u64>(),
        first in 0usize..3,
    ) {
        let config = DkgConfig::for_faults(2); // n = 8, t = 6
        let t = config.threshold;
        let out = run_ceremony(config, seed);
        let digest = H256::hash(&msg);
        let by_bytes: Vec<_> = out.key_shares.iter().map(|ks| partial_sign(ks, &msg)).collect();
        let by_digest: Vec<_> = out
            .key_shares
            .iter()
            .map(|ks| partial_sign_digest(ks, &digest))
            .collect();
        prop_assert_eq!(&by_bytes, &by_digest);

        let subset = &by_digest[first..first + t];
        let qc = QuorumCertificate::assemble(3, &msg, subset, t).unwrap();
        prop_assert_eq!(&qc, &QuorumCertificate::assemble_digest(3, digest, subset, t).unwrap());
        prop_assert_eq!(qc.signature, combine(&by_bytes[..t], t).unwrap());

        let vk = out.group_public_key;
        prop_assert!(qc.verify(&vk, &msg) && qc.verify_digest(&vk, &digest));
        prop_assume!(other != msg);
        prop_assert!(!qc.verify(&vk, &other) && !qc.verify_digest(&vk, &H256::hash(&other)));
    }
}
