//! The paper's correctness argument (§IV-D, Appendix B): ammBoost
//! "processes the sidechain workload using the same logic adopted by the
//! AMM itself", so every transaction type must produce the same outcome
//! as an all-on-mainchain deployment.
//!
//! This test pushes the identical transaction sequence through (a) the
//! sidechain `EpochProcessor` and (b) the `UniswapBaseline` contracts and
//! compares the resulting pool states.

use ammboost_amm::tx::{AmmTx, MintTx, SwapIntent, SwapTx};
use ammboost_amm::types::{PoolId, PositionId};
use ammboost_core::processor::EpochProcessor;
use ammboost_crypto::Address;
use ammboost_mainchain::contracts::{Erc20, UniswapBaseline};
use ammboost_mainchain::gas::GasMeter;
use ammboost_sim::rng::DetRng;
use std::collections::HashMap;

const SEED_LIQ: u128 = 1_000_000_000_000;

fn users(n: u64) -> Vec<Address> {
    (0..n).map(Address::from_index).collect()
}

fn swap(user: Address, amount: u128, dir: bool) -> AmmTx {
    AmmTx::Swap(SwapTx {
        user,
        pool: PoolId(0),
        zero_for_one: dir,
        intent: SwapIntent::ExactInput {
            amount_in: amount,
            min_amount_out: 0,
        },
        sqrt_price_limit: None,
        deadline_round: u64::MAX,
    })
}

#[test]
fn sidechain_and_baseline_agree_on_pool_state() {
    // --- sidechain side ---
    let genesis = Address::from_pubkey_bytes(b"equiv-genesis");
    let mut processor = EpochProcessor::new([PoolId(0)]);
    processor.seed_liquidity(PoolId(0), genesis, -6000, 6000, SEED_LIQ, SEED_LIQ);
    let snapshot: HashMap<Address, (u128, u128)> = users(5)
        .into_iter()
        .map(|u| (u, (10u128.pow(10), 10u128.pow(10))))
        .collect();
    processor.snapshot_bank(snapshot);

    // --- baseline side (same genesis liquidity) ---
    let mut baseline = UniswapBaseline::new();
    let mut token0 = Erc20::new("TKA");
    let mut token1 = Erc20::new("TKB");
    for u in users(5) {
        token0.mint(u, u128::MAX >> 32);
        token1.mint(u, u128::MAX >> 32);
        token0.approve(u, baseline.address, u128::MAX >> 33, &mut GasMeter::new());
        token1.approve(u, baseline.address, u128::MAX >> 33, &mut GasMeter::new());
    }
    token0.mint(genesis, u128::MAX >> 16);
    token1.mint(genesis, u128::MAX >> 16);
    token0.approve(
        genesis,
        baseline.address,
        u128::MAX >> 17,
        &mut GasMeter::new(),
    );
    token1.approve(
        genesis,
        baseline.address,
        u128::MAX >> 17,
        &mut GasMeter::new(),
    );
    baseline
        .mint(
            &MintTx {
                user: genesis,
                pool: PoolId(0),
                position: None,
                tick_lower: -6000,
                tick_upper: 6000,
                amount0_desired: SEED_LIQ,
                amount1_desired: SEED_LIQ,
                nonce: 0,
            },
            &mut token0,
            &mut token1,
        )
        .expect("baseline genesis mint");

    // identical swap sequence through both
    let mut rng = DetRng::new(99);
    for i in 0..300u64 {
        let user = Address::from_index(i % 5);
        let amount = rng.range_u128(1_000, 500_000);
        let dir = rng.unit() < 0.5;
        let tx = swap(user, amount, dir);

        let side = processor.execute(&tx, 1008, 0);
        assert!(side.accepted(), "sidechain rejected swap {i}");
        if let AmmTx::Swap(s) = &tx {
            baseline
                .swap(s, &mut token0, &mut token1)
                .unwrap_or_else(|e| panic!("baseline rejected swap {i}: {e}"));
        }
    }

    // identical final pool state: same price, tick, liquidity, fees
    let sp = processor
        .pool(PoolId(0))
        .unwrap()
        .as_cl()
        .expect("CL engine");
    let bp = baseline.pool();
    assert_eq!(sp.sqrt_price(), bp.sqrt_price(), "price diverged");
    assert_eq!(sp.tick(), bp.tick(), "tick diverged");
    assert_eq!(sp.liquidity(), bp.liquidity(), "liquidity diverged");
    assert_eq!(
        sp.fee_growth_global(),
        bp.fee_growth_global(),
        "fee accounting diverged"
    );
    assert_eq!(sp.balances(), bp.balances(), "reserves diverged");
}

#[test]
fn mint_amounts_agree_between_deployments() {
    let genesis = Address::from_pubkey_bytes(b"equiv-genesis-2");
    let mut processor = EpochProcessor::new([PoolId(0)]);
    processor.seed_liquidity(PoolId(0), genesis, -6000, 6000, SEED_LIQ, SEED_LIQ);
    let user = Address::from_index(1);
    processor.snapshot_bank([(user, (10u128.pow(10), 10u128.pow(10)))]);

    let mut baseline = UniswapBaseline::new();
    let mut token0 = Erc20::new("TKA");
    let mut token1 = Erc20::new("TKB");
    for who in [genesis, user] {
        token0.mint(who, u128::MAX >> 16);
        token1.mint(who, u128::MAX >> 16);
        token0.approve(who, baseline.address, u128::MAX >> 17, &mut GasMeter::new());
        token1.approve(who, baseline.address, u128::MAX >> 17, &mut GasMeter::new());
    }
    baseline
        .mint(
            &MintTx {
                user: genesis,
                pool: PoolId(0),
                position: None,
                tick_lower: -6000,
                tick_upper: 6000,
                amount0_desired: SEED_LIQ,
                amount1_desired: SEED_LIQ,
                nonce: 0,
            },
            &mut token0,
            &mut token1,
        )
        .unwrap();

    let mint = MintTx {
        user,
        pool: PoolId(0),
        position: None,
        tick_lower: -1200,
        tick_upper: 600,
        amount0_desired: 777_777,
        amount1_desired: 555_555,
        nonce: 1,
    };
    let side = processor.execute(&AmmTx::Mint(mint.clone()), 814, 0);
    let (side_liq, side_a0, side_a1) = match side.effect {
        ammboost_sidechain::block::TxEffect::Mint {
            liquidity,
            amount0,
            amount1,
            ..
        } => (liquidity, amount0, amount1),
        other => panic!("expected mint, got {other:?}"),
    };
    let (_, base_liq, base_amounts, _) = baseline.mint(&mint, &mut token0, &mut token1).unwrap();
    assert_eq!(side_liq, base_liq, "liquidity calculation diverged");
    assert_eq!(side_a0, base_amounts.amount0);
    assert_eq!(side_a1, base_amounts.amount1);
}

#[test]
fn exact_output_swaps_agree() {
    let genesis = Address::from_pubkey_bytes(b"equiv-genesis-3");
    let mut processor = EpochProcessor::new([PoolId(0)]);
    processor.seed_liquidity(PoolId(0), genesis, -6000, 6000, SEED_LIQ, SEED_LIQ);
    let user = Address::from_index(2);
    processor.snapshot_bank([(user, (10u128.pow(10), 10u128.pow(10)))]);

    let mut baseline = UniswapBaseline::new();
    let mut token0 = Erc20::new("TKA");
    let mut token1 = Erc20::new("TKB");
    for who in [genesis, user] {
        token0.mint(who, u128::MAX >> 16);
        token1.mint(who, u128::MAX >> 16);
        token0.approve(who, baseline.address, u128::MAX >> 17, &mut GasMeter::new());
        token1.approve(who, baseline.address, u128::MAX >> 17, &mut GasMeter::new());
    }
    baseline
        .mint(
            &MintTx {
                user: genesis,
                pool: PoolId(0),
                position: None,
                tick_lower: -6000,
                tick_upper: 6000,
                amount0_desired: SEED_LIQ,
                amount1_desired: SEED_LIQ,
                nonce: 0,
            },
            &mut token0,
            &mut token1,
        )
        .unwrap();

    let tx = SwapTx {
        user,
        pool: PoolId(0),
        zero_for_one: true,
        intent: SwapIntent::ExactOutput {
            amount_out: 123_456,
            max_amount_in: 10_000_000,
        },
        sqrt_price_limit: None,
        deadline_round: u64::MAX,
    };
    let side = processor.execute(&AmmTx::Swap(tx.clone()), 1008, 0);
    let (side_in, side_out) = match side.effect {
        ammboost_sidechain::block::TxEffect::Swap {
            amount_in,
            amount_out,
            ..
        } => (amount_in, amount_out),
        other => panic!("expected swap, got {other:?}"),
    };
    let (base_res, _) = baseline.swap(&tx, &mut token0, &mut token1).unwrap();
    assert_eq!(side_out, 123_456);
    assert_eq!(side_in, base_res.amount_in);
    assert_eq!(side_out, base_res.amount_out);
    let sp = processor
        .pool(PoolId(0))
        .unwrap()
        .as_cl()
        .expect("CL engine");
    assert_eq!(sp.sqrt_price(), baseline.pool().sqrt_price());
}

// make PositionId's import used in helper signature styles (silence lint
// in case of future edits)
#[allow(dead_code)]
fn _pid(i: u64) -> PositionId {
    PositionId::derive(&[b"equiv", &i.to_be_bytes()])
}
