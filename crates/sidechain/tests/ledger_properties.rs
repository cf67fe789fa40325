//! Property-based tests for the sidechain ledger: arbitrary valid
//! epoch/round histories chain correctly, pruning is safe and exact, and
//! the size accounting closes.

use ammboost_amm::tx::{AmmTx, SwapIntent, SwapTx};
use ammboost_amm::types::PoolId;
use ammboost_crypto::{Address, H256};
use ammboost_sidechain::block::{ExecutedTx, MetaBlock, SummaryBlock, TxEffect};
use ammboost_sidechain::ledger::Ledger;
use ammboost_sidechain::summary::{PayoutEntry, PoolUpdate};
use proptest::prelude::*;

fn tx(i: u64, size: usize) -> ExecutedTx {
    ExecutedTx {
        tx: AmmTx::Swap(SwapTx {
            user: Address::from_index(i),
            pool: PoolId(0),
            zero_for_one: i.is_multiple_of(2),
            intent: SwapIntent::ExactInput {
                amount_in: 100 + i as u128,
                min_amount_out: 0,
            },
            sqrt_price_limit: None,
            deadline_round: u64::MAX,
        }),
        wire_size: size,
        effect: TxEffect::Swap {
            amount_in: 100 + i as u128,
            amount_out: 99,
            zero_for_one: i.is_multiple_of(2),
        },
    }
}

fn build_history(epochs: &[(usize, usize)]) -> (Ledger, Vec<u64>) {
    // epochs: (rounds, txs_per_round)
    let mut ledger = Ledger::new(H256::hash(b"genesis"));
    let mut epoch_ids = Vec::new();
    for (e, &(rounds, per_round)) in epochs.iter().enumerate() {
        let epoch = e as u64 + 1;
        epoch_ids.push(epoch);
        for round in 0..rounds as u64 {
            let txs: Vec<ExecutedTx> = (0..per_round as u64)
                .map(|i| tx(epoch * 1000 + round * 10 + i, 500))
                .collect();
            let block = MetaBlock::new(epoch, round, ledger.tip(), txs);
            ledger.append_meta(block).expect("valid meta");
        }
        let summary = SummaryBlock {
            epoch,
            parent: ledger.tip(),
            meta_refs: ledger.meta_blocks(epoch).iter().map(|m| m.id()).collect(),
            payouts: vec![PayoutEntry {
                user: Address::from_index(epoch),
                amount0: epoch as u128,
                amount1: 0,
            }],
            positions: vec![],
            pools: vec![PoolUpdate {
                pool: PoolId(0),
                reserve0: 0,
                reserve1: 0,
            }],
        };
        ledger.append_summary(summary).expect("valid summary");
    }
    (ledger, epoch_ids)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn history_builds_and_sizes_close(
        shape in proptest::collection::vec((1usize..6, 0usize..8), 1..5),
    ) {
        let (ledger, _) = build_history(&shape);
        let meta_count: usize = shape.iter().map(|&(r, _)| r).sum();
        prop_assert_eq!(ledger.meta_block_count(), meta_count);
        prop_assert_eq!(ledger.summaries().len(), shape.len());
        prop_assert!(ledger.size_bytes() > 0);
        prop_assert_eq!(ledger.peak_bytes(), ledger.size_bytes(), "no pruning yet");
    }

    #[test]
    fn pruning_any_subset_is_safe_and_exact(
        shape in proptest::collection::vec((1usize..5, 1usize..6), 2..5),
        prune_mask in proptest::collection::vec(any::<bool>(), 2..5),
    ) {
        let (mut ledger, epochs) = build_history(&shape);
        let before = ledger.size_bytes();
        let mut freed_total = 0;
        for (i, &epoch) in epochs.iter().enumerate() {
            if *prune_mask.get(i).unwrap_or(&false) {
                let freed = ledger.prune_epoch(epoch).expect("summary exists");
                // freed equals the byte sum of the epoch's meta-blocks
                freed_total += freed;
            }
        }
        prop_assert_eq!(ledger.size_bytes(), before - freed_total);
        prop_assert_eq!(ledger.pruned_bytes(), freed_total);
        // summaries always survive
        prop_assert_eq!(ledger.summaries().len(), shape.len());
        // double-pruning frees nothing
        for &epoch in &epochs {
            let again = ledger.prune_epoch(epoch).unwrap_or(0);
            if prune_mask.get((epoch - 1) as usize) == Some(&true) {
                prop_assert_eq!(again, 0);
            }
        }
    }

    #[test]
    fn tip_chain_is_tamper_evident(
        shape in proptest::collection::vec((1usize..4, 1usize..4), 1..4),
    ) {
        let (mut ledger, _) = build_history(&shape);
        let next_epoch = shape.len() as u64 + 1;
        // a block with the wrong parent is rejected wherever we are
        let orphan = MetaBlock::new(next_epoch, 0, H256::hash(b"wrong"), vec![tx(1, 100)]);
        prop_assert!(ledger.append_meta(orphan).is_err());
        // the correctly-chained one is accepted
        let good = MetaBlock::new(next_epoch, 0, ledger.tip(), vec![tx(1, 100)]);
        prop_assert!(ledger.append_meta(good).is_ok());
    }

    #[test]
    fn summary_must_reference_exact_meta_set(
        rounds in 1usize..6,
        drop in any::<bool>(),
    ) {
        let mut ledger = Ledger::new(H256::hash(b"genesis"));
        for round in 0..rounds as u64 {
            let block = MetaBlock::new(1, round, ledger.tip(), vec![tx(round, 300)]);
            ledger.append_meta(block).unwrap();
        }
        let mut refs: Vec<H256> = ledger.meta_blocks(1).iter().map(|m| m.id()).collect();
        if drop && !refs.is_empty() {
            refs.pop();
        }
        let summary = SummaryBlock {
            epoch: 1,
            parent: ledger.tip(),
            meta_refs: refs.clone(),
            payouts: vec![],
            positions: vec![],
            pools: vec![PoolUpdate { pool: PoolId(0), reserve0: 0, reserve1: 0 }],
        };
        let result = ledger.append_summary(summary);
        if drop && rounds > 0 {
            prop_assert!(result.is_err(), "incomplete refs accepted");
        } else {
            prop_assert!(result.is_ok());
        }
    }

    #[test]
    fn meta_block_sizes_count_wire_bytes(
        sizes in proptest::collection::vec(50usize..2000, 1..20),
    ) {
        let txs: Vec<ExecutedTx> = sizes
            .iter()
            .enumerate()
            .map(|(i, &s)| tx(i as u64, s))
            .collect();
        let block = MetaBlock::new(1, 0, H256::ZERO, txs);
        let expected: usize = sizes.iter().sum::<usize>() + ammboost_sidechain::codec::META_HEADER_BYTES;
        prop_assert_eq!(block.size_bytes(), expected);
    }
}
