//! Property-based tests for the mainchain: accounting invariants under
//! random submission/advance/reorg schedules, and ABI encoder alignment.

use ammboost_mainchain::abi::AbiEncoder;
use ammboost_mainchain::chain::{ChainConfig, Mainchain, TxSpec};
use ammboost_sim::time::SimTime;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Submit { gas: u64, size: usize },
    Advance { secs: u64 },
    Reorg { depth: usize },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1_000u64..500_000, 50usize..2_000).prop_map(|(gas, size)| Op::Submit { gas, size }),
        (1u64..60).prop_map(|secs| Op::Advance { secs }),
        (1usize..3).prop_map(|depth| Op::Reorg { depth }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn accounting_closes_under_random_schedules(
        ops in proptest::collection::vec(arb_op(), 1..60),
    ) {
        let mut chain = Mainchain::new(ChainConfig::default());
        let mut now = SimTime::ZERO;
        let mut ids = Vec::new();
        for op in ops {
            match op {
                Op::Submit { gas, size } => {
                    ids.push(chain.submit(now, TxSpec {
                        label: "op".into(),
                        gas,
                        size_bytes: size,
                        depends_on: None,
                    }));
                }
                Op::Advance { secs } => {
                    now += ammboost_sim::time::SimDuration::from_secs(secs);
                    chain.advance_to(now);
                }
                Op::Reorg { depth } => {
                    chain.reorg(depth);
                }
            }
        }
        // invariant: chain totals equal the sums over confirmed txs
        let confirmed: Vec<_> = ids
            .iter()
            .filter_map(|&id| chain.tx(id))
            .filter(|r| r.confirmed_at.is_some())
            .collect();
        let gas_sum: u64 = confirmed.iter().map(|r| r.spec.gas).sum();
        let byte_sum: u64 = confirmed.iter().map(|r| r.spec.size_bytes as u64).sum();
        prop_assert_eq!(chain.total_gas(), gas_sum);
        prop_assert_eq!(chain.growth_bytes(), byte_sum);
        // blocks never exceed the gas limit
        for b in chain.blocks() {
            prop_assert!(b.gas_used <= chain.config.gas_limit);
        }
        // confirmed + pending == submitted
        prop_assert_eq!(
            confirmed.len() + chain.mempool_len(),
            ids.len()
        );
    }

    #[test]
    fn fifo_holds_for_equal_submission_times(
        count in 2usize..30,
        gas in 1_000u64..100_000,
    ) {
        let mut chain = Mainchain::new(ChainConfig::default());
        let ids: Vec<_> = (0..count)
            .map(|_| chain.submit(SimTime::from_secs(1), TxSpec {
                label: "op".into(),
                gas,
                size_bytes: 100,
                depends_on: None,
            }))
            .collect();
        chain.advance_to(SimTime::from_secs(1200));
        let mut last = SimTime::ZERO;
        for id in ids {
            let at = chain.confirmed_at(id).expect("all confirm eventually");
            prop_assert!(at >= last);
            last = at;
        }
    }

    #[test]
    fn reorg_then_replay_reaches_same_totals(
        txs in proptest::collection::vec((1_000u64..200_000, 50usize..500), 1..20),
        depth in 1usize..4,
    ) {
        let mut chain = Mainchain::new(ChainConfig::default());
        for (gas, size) in &txs {
            chain.submit(SimTime::from_secs(1), TxSpec {
                label: "op".into(),
                gas: *gas,
                size_bytes: *size,
                depends_on: None,
            });
        }
        chain.advance_to(SimTime::from_secs(600));
        let gas_before = chain.total_gas();
        let growth_before = chain.growth_bytes();

        chain.reorg(depth);
        chain.advance_to(SimTime::from_secs(1800));
        // everything re-mines: totals are restored exactly
        prop_assert_eq!(chain.total_gas(), gas_before);
        prop_assert_eq!(chain.growth_bytes(), growth_before);
    }

    #[test]
    fn reorg_and_censorship_match_a_replay_at_scale(
        censored in proptest::collection::btree_set(0usize..10_000, 1..40),
        depth in 1usize..4,
        seed in any::<u64>(),
    ) {
        // 10⁴ dependency-chained submissions (approve ← approve ← deposit
        // shape), a deep reorg, then censorship of still-pending ones: the
        // totals must equal a chain that never saw the censored
        // transactions and never reorged
        let cfg = ChainConfig { gas_limit: 3_000_000, ..ChainConfig::default() };
        let spec_of = |i: usize, depends_on| TxSpec {
            label: "op".into(),
            gas: 20_000 + (seed.wrapping_mul(i as u64 + 1) % 90_000),
            size_bytes: 68 + i % 64,
            depends_on,
        };
        let mut chain = Mainchain::new(cfg);
        let mut ids = Vec::with_capacity(10_000);
        for i in 0..10_000 {
            let dep = (i % 3 != 0).then(|| ids[i - 1]);
            ids.push(chain.submit(SimTime::from_secs(1), spec_of(i, dep)));
        }
        chain.advance_to(SimTime::from_secs(12 * 40));
        chain.reorg(depth);
        // censor only what is pending now, together with everything that
        // (transitively) depends on it — a dependent of a censored
        // transaction can never be mined on either chain
        let mut gone = vec![false; ids.len()];
        for &i in &censored {
            if chain.confirmed_at(ids[i]).is_none() {
                gone[i] = true;
            }
        }
        for i in 0..ids.len() {
            if i % 3 != 0 && gone[i - 1] {
                gone[i] = true;
            }
        }
        for (i, id) in ids.iter().enumerate() {
            if gone[i] {
                prop_assert!(chain.censor_pending(*id));
            }
        }
        chain.advance_to(SimTime::from_secs(12 * 4_000));
        prop_assert_eq!(chain.mempool_len(), 0);

        let mut replay = Mainchain::new(cfg);
        let mut replay_ids: Vec<Option<_>> = Vec::with_capacity(ids.len());
        for i in 0..ids.len() {
            let id = (!gone[i]).then(|| {
                let dep = (i % 3 != 0).then(|| replay_ids[i - 1].expect("dependency kept"));
                replay.submit(SimTime::from_secs(1), spec_of(i, dep))
            });
            replay_ids.push(id);
        }
        replay.advance_to(SimTime::from_secs(12 * 4_000));
        prop_assert_eq!(replay.mempool_len(), 0);
        prop_assert_eq!(chain.total_gas(), replay.total_gas());
        prop_assert_eq!(chain.growth_bytes(), replay.growth_bytes());
        for (i, id) in ids.iter().enumerate() {
            prop_assert_eq!(chain.confirmed_at(*id).is_some(), !gone[i]);
        }
    }

    #[test]
    fn abi_encoding_is_always_word_aligned(
        words in proptest::collection::vec(any::<u64>(), 0..20),
        blob in proptest::collection::vec(any::<u8>(), 0..100),
    ) {
        let mut enc = AbiEncoder::new();
        for w in &words {
            enc.word_u64(*w);
        }
        enc.bytes_padded(&blob);
        prop_assert_eq!(enc.len() % 32, 0, "unaligned ABI stream");
        let expected_words = words.len() + blob.len().div_ceil(32);
        prop_assert_eq!(enc.words(), expected_words);
    }

    #[test]
    fn abi_i32_roundtrips_sign(v in any::<i32>()) {
        let mut enc = AbiEncoder::new();
        enc.word_i32(v);
        let bytes: [u8; 32] = enc.as_bytes().try_into().unwrap();
        let u = ammboost_crypto::U256::from_be_bytes(bytes);
        if v >= 0 {
            prop_assert_eq!(u, ammboost_crypto::U256::from_u64(v as u64));
        } else {
            // two's complement: MAX - |v| + 1
            let mag = ammboost_crypto::U256::from_u64((-(v as i64)) as u64);
            prop_assert_eq!(u, ammboost_crypto::U256::MAX - mag + ammboost_crypto::U256::ONE);
        }
    }
}
