//! Criterion micro-benchmarks for the crypto substrate: Keccak, field
//! arithmetic, TSQC partial signing/combination, VRF evaluation, Merkle
//! trees — the building blocks of block production and sync
//! authentication.

use ammboost_amm::types::PoolId;
use ammboost_crypto::dkg::{run_ceremony, DkgConfig};
use ammboost_crypto::field::Fr;
use ammboost_crypto::keccak::{keccak256, keccak_f1600_x4};
use ammboost_crypto::merkle::MerkleTree;
use ammboost_crypto::tsqc::{combine, partial_sign, partial_sign_digest, QuorumCertificate};
use ammboost_crypto::vrf::VrfSecretKey;
use ammboost_crypto::{Address, H256};
use ammboost_mainchain::contracts::token_bank::SyncInput;
use ammboost_sidechain::summary::{PayoutEntry, PoolUpdate};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_keccak(c: &mut Criterion) {
    let data_1k = vec![0xAAu8; 1024];
    let data_64k = vec![0x55u8; 65_536];
    c.bench_function("keccak256/1KiB", |b| {
        b.iter(|| black_box(keccak256(black_box(&data_1k))))
    });
    c.bench_function("keccak256/64KiB", |b| {
        b.iter(|| black_box(keccak256(black_box(&data_64k))))
    });
    // four permutations per call, on whichever kernel this CPU selects
    let mut states = [[0x0123_4567_89AB_CDEFu64; 4]; 25];
    c.bench_function("keccak/f1600_x4", |b| {
        b.iter(|| keccak_f1600_x4(black_box(&mut states)))
    });
}

fn bench_field(c: &mut Criterion) {
    let x = Fr::from_u128(0xDEADBEEF_CAFEBABE_u128);
    let y = Fr::from_u128(0x12345678_9ABCDEF0_u128);
    c.bench_function("fr/mul", |b| {
        b.iter(|| black_box(black_box(x) * black_box(y)))
    });
    c.bench_function("fr/inverse", |b| b.iter(|| black_box(x.inverse().unwrap())));
}

fn bench_tsqc(c: &mut Criterion) {
    let out = run_ceremony(DkgConfig::for_faults(4), 7); // n=14, t=10
    let msg = b"sync payload for benchmarks";
    c.bench_function("tsqc/partial_sign", |b| {
        b.iter(|| black_box(partial_sign(&out.key_shares[0], msg)))
    });
    let partials: Vec<_> = out.key_shares[..10]
        .iter()
        .map(|k| partial_sign(k, msg))
        .collect();
    c.bench_function("tsqc/combine_10_of_14", |b| {
        b.iter(|| black_box(combine(black_box(&partials), 10).unwrap()))
    });
    let sig = combine(&partials, 10).unwrap();
    c.bench_function("tsqc/verify", |b| {
        b.iter(|| black_box(out.group_public_key.verify_raw_tsqc(msg, &sig)))
    });
}

/// The same primitives at sync-payload size: a `SyncInput` of 2 978
/// payouts ABI-encodes to 1 MiB + 128 B, so these rungs read as cost per
/// MiB of payload (a 50 000-user sync is ≈ 20 of them).
fn bench_tsqc_at_payload_size(c: &mut Criterion) {
    let out = run_ceremony(DkgConfig::for_faults(4), 7); // n=14, t=10
    let input = SyncInput {
        epoch: 1,
        payouts: (0..2_978u64)
            .map(|i| PayoutEntry {
                user: Address::from_index(i),
                amount0: i as u128,
                amount1: u128::MAX - i as u128,
            })
            .collect(),
        positions: vec![],
        pools: vec![PoolUpdate {
            pool: PoolId(0),
            reserve0: 1,
            reserve1: 1,
        }],
        next_vk: out.group_public_key,
    };
    let payload = input.abi_payload();
    let (digest, len) = input.abi_digest();
    assert_eq!((digest, len), (H256::hash(&payload), (1 << 20) + 128));

    c.bench_function("sync_input/hash_of_abi_payload/1MiB", |b| {
        b.iter(|| black_box(H256::hash(&black_box(&input).abi_payload())))
    });
    c.bench_function("sync_input/abi_digest/1MiB", |b| {
        b.iter(|| black_box(black_box(&input).abi_digest()))
    });
    c.bench_function("tsqc/partial_sign/1MiB", |b| {
        b.iter(|| black_box(partial_sign(&out.key_shares[0], black_box(&payload))))
    });
    c.bench_function("tsqc/partial_sign_digest", |b| {
        b.iter(|| black_box(partial_sign_digest(&out.key_shares[0], black_box(&digest))))
    });
    let partials: Vec<_> = out.key_shares[..10]
        .iter()
        .map(|k| partial_sign_digest(k, &digest))
        .collect();
    let qc = QuorumCertificate::assemble_digest(1, digest, &partials, 10).unwrap();
    c.bench_function("tsqc/qc_verify/1MiB", |b| {
        b.iter(|| black_box(qc.verify(&out.group_public_key, black_box(&payload))))
    });
}

fn bench_dkg(c: &mut Criterion) {
    c.bench_function("dkg/ceremony_n14_t10", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(run_ceremony(DkgConfig::for_faults(4), seed))
        })
    });
}

fn bench_vrf(c: &mut Criterion) {
    let sk = VrfSecretKey::from_entropy(keccak256(b"vrf-bench"));
    let pk = sk.public_key();
    c.bench_function("vrf/eval", |b| b.iter(|| black_box(sk.eval(b"epoch-9"))));
    let (_, proof) = sk.eval(b"epoch-9");
    c.bench_function("vrf/verify", |b| {
        b.iter(|| black_box(pk.verify(b"epoch-9", &proof).unwrap()))
    });
}

fn bench_merkle(c: &mut Criterion) {
    let leaves: Vec<H256> = (0..1000u64).map(|i| H256::hash(&i.to_be_bytes())).collect();
    c.bench_function("merkle/root_1000_leaves", |b| {
        b.iter(|| black_box(MerkleTree::from_leaves(black_box(leaves.clone())).root()))
    });
}

criterion_group!(
    benches,
    bench_keccak,
    bench_field,
    bench_tsqc,
    bench_tsqc_at_payload_size,
    bench_dkg,
    bench_vrf,
    bench_merkle
);
criterion_main!(benches);
