//! Property tests for the snapshot codec: every record type round-trips
//! `Encode` → `Decode` bit-exactly under random values including
//! extremes, and the snapshot container detects corruption.

use ammboost_amm::engines::EngineKind;
use ammboost_amm::pool::{Pool, PoolState, Position, TickInfo};
use ammboost_amm::tick_math::{MAX_TICK, MIN_TICK};
use ammboost_amm::tx::{
    AmmTx, BurnTx, CollectTx, MintTx, RouteHop, RouteTx, SwapIntent, SwapTx, MAX_ROUTE_HOPS,
};
use ammboost_amm::types::{PoolId, PositionId};
use ammboost_amm::Engine;
use ammboost_crypto::{Address, H256, U256};
use ammboost_sidechain::block::{ExecutedTx, MetaBlock, RouteLeg, SummaryBlock, TxEffect};
use ammboost_sidechain::ledger::{Ledger, LedgerState};
use ammboost_sidechain::summary::{Deposits, PayoutEntry, PoolUpdate, PositionEntry};
use ammboost_state::codec::{Decode, Encode};
use ammboost_state::delta::{DeltaError, DeltaSnapshot};
use ammboost_state::heal::{
    delta_sync, PageReply, RetryPolicy, SectionProvider, SimProvider, SyncManifest,
};
use ammboost_state::snapshot::{Section, SectionKind, Snapshot};
use ammboost_state::store::CheckpointStore;
use ammboost_state::sync::restore;
use ammboost_state::{prune_to_snapshot, Checkpointer, RetentionPolicy, PAGE_SIZE};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::BTreeMap;

fn roundtrip<T: Encode + Decode + PartialEq + std::fmt::Debug>(
    value: &T,
) -> Result<(), TestCaseError> {
    let bytes = value.encode_to_vec();
    let back = T::decode_all(&bytes)
        .map_err(|e| TestCaseError::fail(format!("decode failed: {e} on {value:?}")))?;
    prop_assert_eq!(&back, value);
    // canonical: re-encoding reproduces the same bytes
    prop_assert_eq!(back.encode_to_vec(), bytes);
    Ok(())
}

/// `u128` biased towards the extremes the codec must survive.
fn arb_amount() -> impl Strategy<Value = u128> {
    prop_oneof![
        any::<u128>(),
        Just(0u128),
        Just(1u128),
        Just(u128::MAX),
        Just(u128::MAX - 1),
    ]
}

fn arb_i128() -> impl Strategy<Value = i128> {
    prop_oneof![any::<i128>(), Just(i128::MIN), Just(i128::MAX), Just(0)]
}

fn arb_u256() -> impl Strategy<Value = U256> {
    prop_oneof![
        any::<[u64; 4]>().prop_map(U256::from_limbs),
        Just(U256::ZERO),
        Just(U256::MAX),
    ]
}

fn arb_h256() -> impl Strategy<Value = H256> {
    arb_u256().prop_map(|v| H256(v.to_be_bytes()))
}

fn arb_address() -> impl Strategy<Value = Address> {
    any::<u64>().prop_map(Address::from_index)
}

fn arb_tick() -> impl Strategy<Value = i32> {
    prop_oneof![
        MIN_TICK..MAX_TICK + 1,
        Just(MIN_TICK),
        Just(MAX_TICK),
        Just(0),
    ]
}

fn arb_tick_info() -> impl Strategy<Value = TickInfo> {
    (arb_amount(), arb_i128(), arb_u256(), arb_u256()).prop_map(
        |(liquidity_gross, liquidity_net, g0, g1)| TickInfo {
            liquidity_gross,
            liquidity_net,
            fee_growth_outside0: g0,
            fee_growth_outside1: g1,
        },
    )
}

fn arb_position() -> impl Strategy<Value = Position> {
    (
        arb_address(),
        arb_tick(),
        arb_tick(),
        arb_amount(),
        (arb_u256(), arb_u256()),
        (arb_amount(), arb_amount()),
    )
        .prop_map(|(owner, lo, hi, liquidity, (g0, g1), (o0, o1))| Position {
            owner,
            tick_lower: lo,
            tick_upper: hi,
            liquidity,
            fee_growth_inside0_last: g0,
            fee_growth_inside1_last: g1,
            tokens_owed0: o0,
            tokens_owed1: o1,
        })
}

fn arb_swap_intent() -> impl Strategy<Value = SwapIntent> {
    prop_oneof![
        (arb_amount(), arb_amount()).prop_map(|(a, b)| SwapIntent::ExactInput {
            amount_in: a,
            min_amount_out: b,
        }),
        (arb_amount(), arb_amount()).prop_map(|(a, b)| SwapIntent::ExactOutput {
            amount_out: a,
            max_amount_in: b,
        }),
    ]
}

fn arb_amm_tx() -> impl Strategy<Value = AmmTx> {
    let swap = (
        arb_address(),
        any::<u32>(),
        any::<bool>(),
        arb_swap_intent(),
        prop_oneof![Just(None), arb_u256().prop_map(Some)],
        any::<u64>(),
    )
        .prop_map(|(user, pool, dir, intent, limit, deadline)| {
            AmmTx::Swap(SwapTx {
                user,
                pool: PoolId(pool),
                zero_for_one: dir,
                intent,
                sqrt_price_limit: limit,
                deadline_round: deadline,
            })
        });
    let mint = (
        arb_address(),
        prop_oneof![Just(None), arb_h256().prop_map(|h| Some(PositionId(h)))],
        (arb_tick(), arb_tick()),
        (arb_amount(), arb_amount()),
        any::<u64>(),
    )
        .prop_map(|(user, position, (lo, hi), (a0, a1), nonce)| {
            AmmTx::Mint(MintTx {
                user,
                pool: PoolId(0),
                position,
                tick_lower: lo,
                tick_upper: hi,
                amount0_desired: a0,
                amount1_desired: a1,
                nonce,
            })
        });
    let burn = (
        arb_address(),
        arb_h256(),
        prop_oneof![Just(None), arb_amount().prop_map(Some)],
    )
        .prop_map(|(user, pos, liquidity)| {
            AmmTx::Burn(BurnTx {
                user,
                pool: PoolId(0),
                position: PositionId(pos),
                liquidity,
            })
        });
    let collect =
        (arb_address(), arb_h256(), arb_amount(), arb_amount()).prop_map(|(user, pos, a0, a1)| {
            AmmTx::Collect(CollectTx {
                user,
                pool: PoolId(0),
                position: PositionId(pos),
                amount0: a0,
                amount1: a1,
            })
        });
    let routed = (
        arb_address(),
        vec((any::<u32>(), any::<bool>()), 0..MAX_ROUTE_HOPS + 1),
        arb_amount(),
        arb_amount(),
        any::<u64>(),
    )
        .prop_map(|(user, hops, a_in, min_out, deadline)| {
            // the codec round-trips any hop list within the wire bound —
            // shape validity (distinct pools, alternating directions) is
            // the execution layer's concern, not the codec's
            AmmTx::Route(RouteTx {
                user,
                hops: hops
                    .into_iter()
                    .map(|(pool, dir)| RouteHop {
                        pool: PoolId(pool),
                        zero_for_one: dir,
                    })
                    .collect(),
                amount_in: a_in,
                min_amount_out: min_out,
                deadline_round: deadline,
            })
        });
    prop_oneof![swap, mint, burn, collect, routed]
}

fn arb_tx_effect() -> impl Strategy<Value = TxEffect> {
    prop_oneof![
        (arb_amount(), arb_amount(), any::<bool>()).prop_map(|(a, b, d)| TxEffect::Swap {
            amount_in: a,
            amount_out: b,
            zero_for_one: d,
        }),
        (
            arb_h256(),
            arb_amount(),
            arb_amount(),
            arb_amount(),
            any::<bool>()
        )
            .prop_map(|(p, l, a0, a1, c)| TxEffect::Mint {
                position: PositionId(p),
                liquidity: l,
                amount0: a0,
                amount1: a1,
                created: c,
            }),
        (
            arb_h256(),
            arb_amount(),
            arb_amount(),
            arb_amount(),
            any::<bool>()
        )
            .prop_map(|(p, l, a0, a1, d)| TxEffect::Burn {
                position: PositionId(p),
                liquidity: l,
                amount0: a0,
                amount1: a1,
                deleted: d,
            }),
        (arb_h256(), arb_amount(), arb_amount()).prop_map(|(p, a0, a1)| TxEffect::Collect {
            position: PositionId(p),
            amount0: a0,
            amount1: a1,
        }),
        any::<u64>().prop_map(|n| TxEffect::Rejected {
            reason: format!("reason-{n} ✗"),
        }),
        (
            vec(arb_route_leg(), 0..MAX_ROUTE_HOPS + 1),
            arb_amount(),
            arb_amount(),
            any::<bool>()
        )
            .prop_map(|(legs, a_in, a_out, completed)| TxEffect::Route {
                legs,
                amount_in: a_in,
                amount_out: a_out,
                completed,
            }),
    ]
}

fn arb_route_leg() -> impl Strategy<Value = RouteLeg> {
    (any::<u32>(), any::<bool>(), arb_amount(), arb_amount()).prop_map(
        |(pool, dir, a_in, a_out)| RouteLeg {
            pool: PoolId(pool),
            zero_for_one: dir,
            amount_in: a_in,
            amount_out: a_out,
        },
    )
}

fn arb_executed_tx() -> impl Strategy<Value = ExecutedTx> {
    (arb_amm_tx(), any::<u16>(), arb_tx_effect()).prop_map(|(tx, size, effect)| ExecutedTx {
        tx,
        wire_size: size as usize,
        effect,
    })
}

fn arb_payout() -> impl Strategy<Value = PayoutEntry> {
    (arb_address(), arb_amount(), arb_amount()).prop_map(|(user, a0, a1)| PayoutEntry {
        user,
        amount0: a0,
        amount1: a1,
    })
}

fn arb_position_entry() -> impl Strategy<Value = PositionEntry> {
    (
        (arb_h256(), arb_address()),
        (arb_amount(), arb_amount(), arb_amount()),
        (arb_amount(), arb_amount()),
        (arb_amount(), arb_amount()),
        (arb_tick(), arb_tick(), any::<bool>()),
    )
        .prop_map(
            |((id, owner), (l, a0, a1), (f0, f1), (g0, g1), (lo, hi, deleted))| PositionEntry {
                id: PositionId(id),
                owner,
                liquidity: l,
                amount0: a0,
                amount1: a1,
                fees0: f0,
                fees1: f1,
                fee_growth_inside0: g0,
                fee_growth_inside1: g1,
                tick_lower: lo,
                tick_upper: hi,
                deleted,
            },
        )
}

fn arb_pool_update() -> impl Strategy<Value = PoolUpdate> {
    (any::<u32>(), arb_amount(), arb_amount()).prop_map(|(id, r0, r1)| PoolUpdate {
        pool: PoolId(id),
        reserve0: r0,
        reserve1: r1,
    })
}

/// Appends one meta-block per transaction list as rounds 0, 1, … of
/// `epoch`.
fn append_blocks(ledger: &mut Ledger, epoch: u64, blocks: Vec<Vec<ExecutedTx>>) {
    for (round, txs) in blocks.into_iter().enumerate() {
        let block = MetaBlock::new(epoch, round as u64, ledger.tip(), txs);
        ledger.append_meta(block).unwrap();
    }
}

fn arb_meta_block() -> impl Strategy<Value = MetaBlock> {
    (
        any::<u64>(),
        any::<u64>(),
        arb_h256(),
        vec(arb_executed_tx(), 0..5),
    )
        .prop_map(|(epoch, round, parent, txs)| MetaBlock::new(epoch, round, parent, txs))
}

fn arb_summary_block() -> impl Strategy<Value = SummaryBlock> {
    (
        any::<u64>(),
        arb_h256(),
        vec(arb_h256(), 0..4),
        vec(arb_payout(), 0..4),
        vec(arb_position_entry(), 0..4),
        vec(arb_pool_update(), 1..4),
    )
        .prop_map(
            |(epoch, parent, meta_refs, payouts, positions, pools)| SummaryBlock {
                epoch,
                parent,
                meta_refs,
                payouts,
                positions,
                pools,
            },
        )
}

/// A structurally valid pool state grown through the real engine, plus
/// random global accumulators.
fn arb_pool_state() -> impl Strategy<Value = PoolState> {
    (vec((1u64..200, arb_amount()), 1..5), arb_u256(), arb_u256()).prop_map(|(mints, g0, g1)| {
        let mut pool = Pool::new_standard();
        for (i, (salt, _)) in mints.iter().enumerate() {
            let width = 60 * (1 + (salt % 50) as i32);
            let _ = pool.mint(
                PositionId::derive(&[b"prop", &salt.to_be_bytes(), &i.to_be_bytes()]),
                Address::from_index(*salt),
                -width,
                width,
                1_000_000u128 + *salt as u128 * 7,
                1_000_000u128 + *salt as u128 * 13,
            );
        }
        let mut state = pool.export_state();
        state.fee_growth_global0 = g0;
        state.fee_growth_global1 = g1;
        state
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn roundtrip_primitive_records(
        h in arb_h256(),
        addr in arb_address(),
        v in arb_u256(),
        amount in arb_amount(),
        signed in arb_i128(),
        tick in arb_tick(),
    ) {
        roundtrip(&h)?;
        roundtrip(&addr)?;
        roundtrip(&v)?;
        roundtrip(&amount)?;
        roundtrip(&signed)?;
        roundtrip(&tick)?;
        roundtrip(&PositionId(h))?;
    }

    #[test]
    fn roundtrip_tick_info(info in arb_tick_info()) {
        roundtrip(&info)?;
    }

    #[test]
    fn roundtrip_position(pos in arb_position()) {
        roundtrip(&pos)?;
    }

    #[test]
    fn roundtrip_amm_tx(tx in arb_amm_tx()) {
        roundtrip(&tx)?;
        // the codec shares the sidechain wire format, so ids survive
        let back = AmmTx::decode_all(&tx.encode_to_vec()).unwrap();
        prop_assert_eq!(back.tx_id(), tx.tx_id());
    }

    #[test]
    fn batched_tx_ids_match_tx_id(txs in vec(arb_amm_tx(), 0..68)) {
        let want: Vec<H256> = txs.iter().map(AmmTx::tx_id).collect();
        prop_assert_eq!(AmmTx::ids_of(&txs, |tx| tx), want);
    }

    #[test]
    fn tx_root_commits_to_the_transaction_sequence(
        txs in vec(arb_executed_tx(), 2..40),
        at in any::<usize>(),
        to in any::<usize>(),
    ) {
        let (n, root) = (txs.len(), MetaBlock::compute_tx_root(&txs));
        let leaves: Vec<H256> = txs.iter().map(|t| t.tx.tx_id()).collect();
        prop_assert_eq!(root, ammboost_crypto::merkle::MerkleTree::from_leaves(leaves).root());
        let (i, j) = (at % n, to % n);

        let mut dropped = txs.clone();
        dropped.remove(i);
        prop_assert_ne!(MetaBlock::compute_tx_root(&dropped), root);

        // A copy of the *last* transaction of an odd-length body is what
        // the tree itself pads with, so that one duplicate is invisible
        // to the root — the block id's transaction count tells the two
        // bodies apart; every other duplicate moves the root itself.
        if !(i == n - 1 && n % 2 == 1) {
            let mut duplicated = txs.clone();
            duplicated.insert(i, txs[i].clone());
            prop_assert_ne!(MetaBlock::compute_tx_root(&duplicated), root);
        }

        if txs[i].tx != txs[j].tx {
            let mut reordered = txs.clone();
            reordered.swap(i, j);
            prop_assert_ne!(MetaBlock::compute_tx_root(&reordered), root);
        }
    }

    #[test]
    fn roundtrip_tx_effect(effect in arb_tx_effect()) {
        roundtrip(&effect)?;
    }

    #[test]
    fn roundtrip_executed_tx(tx in arb_executed_tx()) {
        roundtrip(&tx)?;
    }

    #[test]
    fn roundtrip_payout_and_position_entries(
        payout in arb_payout(),
        entry in arb_position_entry(),
        update in arb_pool_update(),
    ) {
        roundtrip(&payout)?;
        roundtrip(&entry)?;
        roundtrip(&update)?;
    }

    #[test]
    fn roundtrip_blocks(meta in arb_meta_block(), summary in arb_summary_block()) {
        roundtrip(&meta)?;
        roundtrip(&summary)?;
    }

    #[test]
    fn roundtrip_pool_state(state in arb_pool_state()) {
        roundtrip(&state)?;
    }

    #[test]
    fn roundtrip_ledger_state(
        metas in vec(arb_meta_block(), 0..3),
        summaries in vec(arb_summary_block(), 0..3),
        genesis in prop_oneof![Just(None), arb_h256().prop_map(Some)],
        counters in (any::<u64>(), any::<u64>()),
    ) {
        // the section lists meta-blocks flat and the decoder keys them by
        // their own epoch
        let meta = metas
            .into_iter()
            .enumerate()
            .map(|(i, mut m)| {
                m.epoch = i as u64;
                (i as u64, vec![m])
            })
            .collect();
        let state = LedgerState {
            meta,
            summaries,
            genesis,
            current_bytes: counters.0,
            pruned_bytes_total: counters.1,
        };
        roundtrip(&state)?;
    }

    #[test]
    fn ledger_encodes_as_retention_leaves_it(
        sealed in vec(vec(vec(arb_executed_tx(), 0..3), 1..3), 0..4),
        open in vec(vec(arb_executed_tx(), 0..3), 0..3),
        payouts in vec(arb_payout(), 0..3),
        keep_epochs in 0u64..3,
    ) {
        // sealed epochs pruned behind a margin, then an open epoch
        let mut ledger = Ledger::new(H256::hash(b"genesis"));
        for (i, blocks) in sealed.into_iter().enumerate() {
            let epoch = i as u64 + 1;
            append_blocks(&mut ledger, epoch, blocks);
            let summary = SummaryBlock {
                epoch,
                parent: ledger.tip(),
                meta_refs: ledger.meta_blocks(epoch).iter().map(|m| m.id()).collect(),
                payouts: payouts.clone(),
                positions: Vec::new(),
                pools: vec![PoolUpdate { pool: PoolId(0), reserve0: 1, reserve1: 2 }],
            };
            ledger.append_summary(summary).unwrap();
            prune_to_snapshot(&mut ledger, epoch, RetentionPolicy { keep_epochs });
        }
        let open_epoch = ledger.tip_epoch();
        append_blocks(&mut ledger, open_epoch, open);

        // a checkpoint encodes the live ledger by reference, to the bytes
        // of its export once no margin is kept…
        let by_ref = ledger.encode_to_vec();
        let mut pruned = ledger.clone();
        let report = prune_to_snapshot(&mut pruned, u64::MAX, RetentionPolicy::default());
        prop_assert_eq!(report.reclaimed_bytes, ledger.retained_bytes().pruned_total - ledger.pruned_bytes());
        prop_assert_eq!(pruned.retained_meta(), ledger.retained_meta());
        prop_assert_eq!(&by_ref, &pruned.export_state().encode_to_vec());
        prop_assert_eq!(ledger.retained_state(), pruned.export_state());
        // …and those bytes restore to that ledger
        let restored = Ledger::from_state(LedgerState::decode_all(&by_ref).unwrap()).unwrap();
        prop_assert_eq!(restored.export_state(), pruned.export_state());
        prop_assert_eq!(restored.encode_to_vec(), by_ref);
    }

    #[test]
    fn roundtrip_deposit_entries(raw in vec((any::<u64>(), arb_amount(), arb_amount()), 0..6)) {
        let mut entries: Vec<(Address, (u128, u128))> = raw
            .into_iter()
            .map(|(i, a0, a1)| (Address::from_index(i), (a0, a1)))
            .collect();
        entries.sort_by_key(|(a, _)| *a);
        entries.dedup_by_key(|(a, _)| *a);
        roundtrip(&entries)?;
    }

    #[test]
    fn snapshot_roundtrip_and_root_stability(
        epoch in any::<u64>(),
        pool in arb_pool_state(),
        aux in vec(any::<u8>(), 0..32),
    ) {
        let snapshot = Snapshot::seal(epoch, vec![
            Section { kind: SectionKind::Pool(0), bytes: pool.encode_to_vec() },
            Section { kind: SectionKind::Aux(7), bytes: aux },
        ]).unwrap();
        let bytes = snapshot.encode();
        let back = Snapshot::decode(&bytes).unwrap();
        prop_assert_eq!(&back, &snapshot);
        prop_assert_eq!(back.root(), snapshot.root());
    }

    #[test]
    fn truncated_input_never_panics(state in arb_pool_state(), cut in any::<u16>()) {
        // decoding any prefix of a valid encoding must fail cleanly
        let bytes = state.encode_to_vec();
        let cut = (cut as usize) % bytes.len().max(1);
        prop_assert!(PoolState::decode_all(&bytes[..cut]).is_err());
    }

    #[test]
    fn single_byte_flip_in_wire_is_always_detected(
        epoch in any::<u64>(),
        pool in arb_pool_state(),
        aux in vec(any::<u8>(), 0..32),
        pos in any::<u32>(),
        mask in any::<u8>(),
    ) {
        // flipping any byte of a snapshot's wire form anywhere — header,
        // embedded root, section lengths or payload — must be detected
        // by decode; corruption never silently restores
        let snapshot = Snapshot::seal(epoch, vec![
            Section { kind: SectionKind::Pool(0), bytes: pool.encode_to_vec() },
            Section { kind: SectionKind::Aux(7), bytes: aux },
        ]).unwrap();
        let mut bytes = snapshot.encode();
        let mask = if mask == 0 { 1 } else { mask };
        let i = pos as usize % bytes.len();
        bytes[i] ^= mask;
        prop_assert!(
            Snapshot::decode(&bytes).is_err(),
            "flip at byte {} (mask {:#04x}) was silently restored", i, mask
        );
    }

    #[test]
    fn flipped_section_is_always_healed_by_an_honest_provider(
        epoch in any::<u64>(),
        pool in arb_pool_state(),
        aux in vec(any::<u8>(), 1..32),
        sec in any::<u8>(),
        pos in any::<u32>(),
        mask in any::<u8>(),
    ) {
        // a provider serving any single byte of one section flipped is
        // quarantined on that page, and a second honest provider heals
        // it — the cold-synced snapshot always re-derives the trusted
        // root
        let snapshot = Snapshot::seal(epoch, vec![
            Section { kind: SectionKind::Pool(0), bytes: pool.encode_to_vec() },
            Section { kind: SectionKind::Aux(7), bytes: aux },
        ]).unwrap();
        let target = sec as usize % snapshot.sections().len();
        let at = pos as usize % snapshot.sections()[target].bytes.len();
        let mut corrupt = FlipPageProvider {
            snap: snapshot.clone(),
            target: (target, (at / PAGE_SIZE) as u32),
            pos: (at % PAGE_SIZE) as u32,
            mask: if mask == 0 { 1 } else { mask },
        };
        let mut honest = SimProvider::honest(1, snapshot.clone());
        let mut providers: Vec<&mut dyn SectionProvider> = vec![&mut corrupt, &mut honest];
        let (healed, report) =
            delta_sync(None, &mut providers, snapshot.root(), &RetryPolicy::default())
                .map_err(|e| TestCaseError::fail(format!("heal failed: {e}")))?;
        prop_assert_eq!(healed.root(), snapshot.root());
        prop_assert!(
            report.quarantined.iter().any(|q| q.section == target),
            "flipped section {} was accepted without quarantine", target
        );
        prop_assert!(
            report.healed_sections.contains(&target),
            "quarantined section {} was never healed", target
        );
    }
}

/// One random "epoch" of traffic for the delta-chain properties: each
/// entry mints into one of the fleet's engines.
type EpochOps = Vec<(u8, u64)>;

/// A small mixed fleet grown through the real engines, so pool sections
/// carry genuine engine-tagged encodings, several pages each.
fn delta_fleet() -> Vec<Engine> {
    let mut fleet = vec![
        Engine::new_standard(EngineKind::ConcentratedLiquidity),
        Engine::new_standard(EngineKind::ConstantProduct),
    ];
    for (i, engine) in fleet.iter_mut().enumerate() {
        for p in 0..24u64 {
            let width = 60 * (1 + (p % 12) as i32);
            engine
                .mint(
                    PositionId::derive(&[b"delta-prop-base", &[i as u8], &p.to_be_bytes()]),
                    Address::from_index(7 + p),
                    -width,
                    width,
                    50_000_000,
                    50_000_000,
                )
                .expect("base liquidity mints");
        }
    }
    fleet
}

fn apply_ops(fleet: &mut [Engine], cp: &mut Checkpointer, epoch: usize, ops: &EpochOps) {
    for (i, (which, salt)) in ops.iter().enumerate() {
        let pool = *which as usize % fleet.len();
        cp.mark_dirty(PoolId(pool as u32));
        let engine = &mut fleet[pool];
        let width = 60 * (1 + (salt % 40) as i32);
        let _ = engine.mint(
            PositionId::derive(&[b"delta-prop-op", &epoch.to_be_bytes(), &i.to_be_bytes()]),
            Address::from_index(*salt),
            -width,
            width,
            1_000_000u128 + *salt as u128 * 7,
            1_000_000u128 + *salt as u128 * 13,
        );
    }
}

fn checkpoint_fleet(
    cp: &mut Checkpointer,
    epoch: u64,
    fleet: &[Engine],
) -> ammboost_state::CheckpointOutput {
    let refs: Vec<(PoolId, &Engine)> = fleet
        .iter()
        .enumerate()
        .map(|(i, e)| (PoolId(i as u32), e))
        .collect();
    let ledger = Ledger::new(H256::hash(b"delta-prop-genesis"));
    let mut deposits = Deposits::new();
    deposits
        .credit(Address::from_index(1), 100, 200)
        .expect("deposit credits");
    cp.checkpoint(epoch, &refs, &ledger, &deposits, vec![])
}

/// An otherwise-honest provider that flips byte `pos` (modulo the page's
/// length) of a single page reply — the adversary fast sync must
/// quarantine.
struct FlipPageProvider {
    snap: Snapshot,
    target: (usize, u32),
    pos: u32,
    mask: u8,
}

impl SectionProvider for FlipPageProvider {
    fn id(&self) -> u32 {
        0
    }
    fn manifest(&mut self) -> Option<SyncManifest> {
        Some(SyncManifest::of(&self.snap))
    }
    fn fetch_page(&mut self, index: usize, page: u32) -> PageReply {
        let section = &self.snap.sections()[index];
        let mut bytes = section
            .bytes
            .chunks(PAGE_SIZE)
            .nth(page as usize)
            .unwrap()
            .to_vec();
        if (index, page) == self.target {
            let i = self.pos as usize % bytes.len();
            bytes[i] ^= self.mask;
        }
        PageReply::Page(bytes)
    }
}

proptest! {
    // each case drives the real checkpoint → delta → store machinery,
    // so fewer, heavier cases than the codec round-trips above
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random epoch sequences: committing the base snapshot plus every
    /// checkpointer-emitted delta into the journal, then folding the
    /// chain (through compactions), restores a state byte-identical —
    /// root and exported pool encodings — to restoring the final full
    /// snapshot directly. Zero-op epochs (empty deltas) must chain too.
    #[test]
    fn delta_chain_restore_matches_full_restore(
        epochs in vec(vec((0u8..2, 1u64..500), 0..4), 1..6),
    ) {
        let mut fleet = delta_fleet();
        let mut cp = Checkpointer::new();
        let mut store = CheckpointStore::with_compaction_threshold(2);
        let out = checkpoint_fleet(&mut cp, 1, &fleet);
        store.commit(&out.snapshot, None).expect("base commit");
        let mut prev = out.snapshot;
        for (e, ops) in epochs.iter().enumerate() {
            apply_ops(&mut fleet, &mut cp, e, ops);
            let out = checkpoint_fleet(&mut cp, 2 + e as u64, &fleet);
            let delta = out.delta.expect("consecutive checkpoints emit deltas");
            // the delta wire form round-trips bit-exactly
            let back = DeltaSnapshot::decode(&delta.encode())
                .map_err(|err| TestCaseError::fail(format!("delta decode failed: {err}")))?;
            prop_assert_eq!(&back, &delta);
            // applying it to the previous snapshot is byte-identical to
            // the full re-encode the checkpointer produced
            let applied = delta.apply(&prev)
                .map_err(|err| TestCaseError::fail(format!("delta apply failed: {err}")))?;
            prop_assert_eq!(&applied, &out.snapshot);
            // an explicit diff agrees as well
            let rediff = DeltaSnapshot::diff(&prev, &out.snapshot);
            prop_assert_eq!(rediff.apply(&prev).unwrap(), out.snapshot.clone());
            store.commit_delta(&delta, None)
                .map_err(|err| TestCaseError::fail(format!("delta commit failed: {err}")))?;
            prev = out.snapshot;
        }
        // folding the journal chain lands on the full snapshot, bit for bit
        let folded = store.latest().expect("chain folds");
        prop_assert_eq!(&folded, &prev);
        prop_assert_eq!(folded.root(), prev.root());
        // and the restored states match pool-for-pool, byte-for-byte
        let from_chain = restore(&folded)
            .map_err(|err| TestCaseError::fail(format!("chain restore failed: {err}")))?;
        let from_full = restore(&prev)
            .map_err(|err| TestCaseError::fail(format!("full restore failed: {err}")))?;
        prop_assert_eq!(from_chain.root, from_full.root);
        prop_assert_eq!(from_chain.pools.len(), from_full.pools.len());
        for ((ida, a), (idb, b)) in from_chain.pools.iter().zip(from_full.pools.iter()) {
            prop_assert_eq!(ida, idb);
            prop_assert_eq!(
                a.export_state().encode_to_vec(),
                b.export_state().encode_to_vec()
            );
        }
    }

    /// Any single-byte flip in a delta page — payload or sub-leaf hash —
    /// is rejected by `DeltaSnapshot::decode` before the delta can be
    /// applied, and the same flip served over the page-sync protocol is
    /// quarantined and healed off one honest provider.
    #[test]
    fn flipped_delta_page_is_detected_and_heals(
        ops in vec((0u8..2, 1u64..500), 1..4),
        sec_pick in any::<u16>(),
        page_pick in any::<u16>(),
        pos in any::<u32>(),
        mask in any::<u8>(),
        flip_hash in any::<bool>(),
    ) {
        let mask = if mask == 0 { 1 } else { mask };
        let mut fleet = delta_fleet();
        let mut cp = Checkpointer::new();
        let stale = checkpoint_fleet(&mut cp, 4, &fleet).snapshot;
        apply_ops(&mut fleet, &mut cp, 0, &ops);
        let fresh = checkpoint_fleet(&mut cp, 5, &fleet).snapshot;
        let delta = DeltaSnapshot::diff(&stale, &fresh);
        prop_assert!(delta.pages() > 0, "a mint must dirty at least one page");

        // -- decode rejects the flip ----------------------------------
        let mut tampered = delta.clone();
        let d = sec_pick as usize % tampered.deltas.len();
        let section_delta = &mut tampered.deltas[d];
        let p = page_pick as usize % section_delta.pages.len();
        let page = &mut section_delta.pages[p];
        if flip_hash || page.bytes.is_empty() {
            page.hash.0[pos as usize % 32] ^= mask;
        } else {
            let i = pos as usize % page.bytes.len();
            page.bytes[i] ^= mask;
        }
        prop_assert!(
            matches!(
                DeltaSnapshot::decode(&tampered.encode()),
                Err(DeltaError::PageHashMismatch { .. })
            ),
            "flipped delta page was silently decoded"
        );

        // -- the same flip over the wire protocol quarantines & heals --
        // pick the target page from the diff's genuinely dirty pages so
        // the sync is guaranteed to request it
        let target_delta = &delta.deltas[d];
        let target_section = fresh
            .sections()
            .iter()
            .position(|s| s.kind == target_delta.kind)
            .expect("delta section exists in the snapshot");
        let target_page = target_delta.pages[sec_pick as usize % target_delta.pages.len()].index;
        let mut corrupt = FlipPageProvider {
            snap: fresh.clone(),
            target: (target_section, target_page),
            pos,
            mask,
        };
        let mut honest = SimProvider::honest(1, fresh.clone());
        let mut providers: Vec<&mut dyn SectionProvider> = vec![&mut corrupt, &mut honest];
        let (synced, report) = delta_sync(Some(&stale), &mut providers, fresh.root(), &RetryPolicy::default())
            .map_err(|err| TestCaseError::fail(format!("delta sync failed: {err}")))?;
        prop_assert_eq!(synced.root(), fresh.root());
        prop_assert_eq!(&synced, &fresh);
        prop_assert!(
            report.quarantined.iter().any(|q| q.reason == "page-hash-mismatch"),
            "flipped page was accepted without quarantine: {:?}", report.quarantined
        );
    }
}

/// How one epoch of the checkpointer property ends: `checkpoint` (commit
/// and confirm), a commit nobody confirms, or a stage dropped before its
/// commit ever hashed anything.
#[derive(Clone, Copy, Debug)]
enum Finish {
    Confirmed,
    Unconfirmed,
    Dropped,
}

/// What one epoch does to one aux section (tags 0..3): keep it, flip a
/// byte in place, resize it (growing or shrinking across page
/// boundaries), remove it, or put it back at a given length.
fn arb_aux_edit() -> impl Strategy<Value = (u8, u16)> {
    (0u8..5, any::<u16>())
}

fn edit_aux(aux: &mut BTreeMap<u8, Vec<u8>>, tag: u8, (op, arg): (u8, u16), epoch: u64) {
    // lengths on, just past and just short of page boundaries
    let arg = arg as usize;
    let len = arg % 4 * PAGE_SIZE + [0, 1, 37, PAGE_SIZE - 1][arg / 4 % 4];
    match (op, aux.get_mut(&tag)) {
        (0, _) => {}
        (1, Some(bytes)) if !bytes.is_empty() => {
            let at = arg % bytes.len();
            bytes[at] ^= 1 + epoch as u8;
        }
        (2, Some(bytes)) => bytes.resize(len, epoch as u8),
        (3, _) => {
            aux.remove(&tag);
        }
        (_, None) => {
            aux.insert(
                tag,
                (0..len).map(|i| (i as u64 * 7 + epoch) as u8).collect(),
            );
        }
        _ => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One `Checkpointer` through random epochs — pools traded or idle,
    /// a pool leaving and coming back, aux sections edited in place,
    /// grown and shrunk across page boundaries, removed and re-added,
    /// commits confirmed, unconfirmed or dropped before hashing — always
    /// produces the snapshot `Snapshot::seal` builds from the same
    /// sections (root and every leaf), and, when a base was confirmed,
    /// exactly the delta `DeltaSnapshot::diff` cuts against it.
    #[test]
    fn checkpointer_matches_seal_and_diff(
        epochs in vec(
            (
                vec((0u8..2, 1u64..500), 0..3),
                any::<bool>(),
                vec(arb_aux_edit(), 3..4),
                prop_oneof![
                    Just(Finish::Confirmed),
                    Just(Finish::Unconfirmed),
                    Just(Finish::Dropped),
                ],
            ),
            1..7,
        ),
    ) {
        let mut fleet = delta_fleet();
        let mut cp = Checkpointer::new();
        let ledger = Ledger::new(H256::hash(b"checkpointer-prop"));
        let deposits = vec![(Address::from_index(1), (100u128, 200u128))];
        let mut aux: BTreeMap<u8, Vec<u8>> = BTreeMap::new();
        let mut base: Option<Snapshot> = None;
        for (e, (ops, second_pool, edits, finish)) in epochs.iter().enumerate() {
            let epoch = e as u64 + 1;
            apply_ops(&mut fleet, &mut cp, e, ops);
            for (tag, edit) in edits.iter().enumerate() {
                edit_aux(&mut aux, tag as u8, *edit, epoch);
            }
            let pools: Vec<(PoolId, &Engine)> = fleet
                .iter()
                .enumerate()
                .take(if *second_pool { 2 } else { 1 })
                .map(|(i, engine)| (PoolId(i as u32), engine))
                .collect();
            let aux_now: Vec<(u8, Vec<u8>)> = aux.iter().map(|(t, b)| (*t, b.clone())).collect();
            let staged = cp.stage(epoch, &pools, &ledger, &deposits, aux_now);
            if let Finish::Dropped = finish {
                drop(staged);
                base = None;
                continue;
            }
            let out = staged.commit();
            let sections = out.snapshot.sections().to_vec();
            let sealed = Snapshot::seal(epoch, sections).unwrap();
            prop_assert_eq!(&out.snapshot, &sealed);
            prop_assert_eq!(out.snapshot.leaves(), sealed.leaves());
            prop_assert_eq!(out.stats.root, sealed.root());
            match (&base, &out.delta) {
                (Some(prev), Some(delta)) => {
                    prop_assert_eq!(delta, &DeltaSnapshot::diff(prev, &sealed));
                    prop_assert_eq!(&delta.apply(prev).unwrap(), &sealed);
                }
                (None, None) => {}
                (prev, delta) => prop_assert!(
                    false,
                    "base confirmed: {}, delta emitted: {}", prev.is_some(), delta.is_some()
                ),
            }
            base = match finish {
                Finish::Confirmed => {
                    cp.note_committed(epoch, out.stats.root);
                    Some(out.snapshot)
                }
                _ => None,
            };
        }
    }
}
