//! Mainchain scenario tests: congestion, reorg recovery, dependency
//! chains under load, and TokenBank mass-sync sequencing.

use ammboost_amm::types::PoolId;
use ammboost_crypto::dkg::{run_ceremony, DkgConfig};
use ammboost_crypto::tsqc::{partial_sign, QuorumCertificate};
use ammboost_crypto::Address;
use ammboost_mainchain::chain::{ChainConfig, Mainchain, TxSpec};
use ammboost_mainchain::contracts::token_bank::SyncInput;
use ammboost_mainchain::contracts::{Erc20, PayoutEntry, PoolUpdate, TokenBank};
use ammboost_mainchain::gas::GasMeter;
use ammboost_sim::time::SimTime;

fn spec(label: &'static str, gas: u64) -> TxSpec {
    TxSpec {
        label: label.into(),
        gas,
        size_bytes: 200,
        depends_on: None,
    }
}

#[test]
fn congestion_delays_but_preserves_fifo() {
    let cfg = ChainConfig {
        gas_limit: 1_000_000,
        ..ChainConfig::default()
    };
    let mut chain = Mainchain::new(cfg);
    // 30 txs of 200K gas: 5 fit per block -> 6 blocks
    let ids: Vec<_> = (0..30)
        .map(|_| chain.submit(SimTime::from_secs(1), spec("op", 200_000)))
        .collect();
    chain.advance_to(SimTime::from_secs(12 * 7));
    let mut last = SimTime::ZERO;
    for id in &ids {
        let at = chain.confirmed_at(*id).expect("confirmed");
        assert!(at >= last, "FIFO violated");
        last = at;
    }
    assert_eq!(last, SimTime::from_secs(72));
}

#[test]
fn deep_reorg_replays_in_order() {
    let mut chain = Mainchain::new(ChainConfig::default());
    let a = chain.submit(SimTime::from_secs(1), spec("a", 10));
    chain.advance_to(SimTime::from_secs(12));
    let b = chain.submit(SimTime::from_secs(13), spec("b", 10));
    chain.advance_to(SimTime::from_secs(24));
    let c = chain.submit(SimTime::from_secs(25), spec("c", 10));
    chain.advance_to(SimTime::from_secs(36));

    let orphaned = chain.reorg(3);
    assert_eq!(orphaned.len(), 3);
    assert_eq!(chain.height(), 0);
    assert_eq!(chain.growth_bytes(), 0);

    chain.advance_to(SimTime::from_secs(60));
    // all re-mined, original order preserved
    let ta = chain.confirmed_at(a).unwrap();
    let tb = chain.confirmed_at(b).unwrap();
    let tc = chain.confirmed_at(c).unwrap();
    assert!(ta <= tb && tb <= tc);
}

#[test]
fn dependency_chain_survives_reorg() {
    let mut chain = Mainchain::new(ChainConfig::default());
    let first = chain.submit(SimTime::from_secs(1), spec("approve", 10));
    let mut dep = spec("spend", 10);
    dep.depends_on = Some(first);
    let second = chain.submit(SimTime::from_secs(1), dep);
    chain.advance_to(SimTime::from_secs(36));
    assert!(chain.confirmed_at(second).is_some());

    chain.reorg(3);
    chain.advance_to(SimTime::from_secs(72));
    let t1 = chain.confirmed_at(first).unwrap();
    let t2 = chain.confirmed_at(second).unwrap();
    assert!(t2 > t1, "dependency must still confirm strictly later");
}

#[test]
fn censored_transaction_never_confirms() {
    let mut chain = Mainchain::new(ChainConfig::default());
    let victim = chain.submit(SimTime::from_secs(1), spec("victim", 10));
    let other = chain.submit(SimTime::from_secs(1), spec("other", 10));
    assert!(chain.censor_pending(victim));
    chain.advance_to(SimTime::from_secs(24));
    assert!(chain.confirmed_at(victim).is_none());
    assert!(chain.confirmed_at(other).is_some());
    // censoring a confirmed tx is a no-op
    assert!(!chain.censor_pending(other));
}

fn bank_world() -> (TokenBank, Erc20, Erc20, ammboost_crypto::dkg::DkgOutput) {
    let dkg = run_ceremony(DkgConfig::for_faults(1), 31);
    let mut bank = TokenBank::deploy(dkg.group_public_key);
    bank.create_pool(PoolId(0), &mut GasMeter::new());
    let mut t0 = Erc20::new("TKA");
    let mut t1 = Erc20::new("TKB");
    t0.mint(bank.address, 10_000_000);
    t1.mint(bank.address, 10_000_000);
    (bank, t0, t1, dkg)
}

fn signed(dkg: &ammboost_crypto::dkg::DkgOutput, input: &SyncInput) -> QuorumCertificate {
    let payload = input.abi_payload();
    let partials: Vec<_> = dkg.key_shares[..4]
        .iter()
        .map(|k| partial_sign(k, &payload))
        .collect();
    QuorumCertificate::assemble(input.epoch, &payload, &partials, 4).unwrap()
}

#[test]
fn mass_sync_clears_all_covered_deposit_buckets() {
    let (mut bank, mut t0, mut t1, dkg) = bank_world();
    let user = Address::from_index(5);
    t0.mint(user, 1_000);
    t0.approve(user, bank.address, 1_000, &mut GasMeter::new());
    // deposits for epochs 1, 2 and 3
    for epoch in 1..=3u64 {
        bank.deposit(user, 100, 0, epoch, &mut t0, &mut t1, &mut GasMeter::new())
            .unwrap();
    }
    assert_eq!(bank.deposit_of(&user, 2), (100, 0));

    // a mass-sync covering epochs 1..=2
    let input = SyncInput {
        epoch: 2,
        payouts: vec![PayoutEntry {
            user,
            amount0: 150,
            amount1: 0,
        }],
        positions: vec![],
        pools: vec![PoolUpdate {
            pool: PoolId(0),
            reserve0: 1,
            reserve1: 1,
        }],
        next_vk: dkg.group_public_key,
    };
    let qc = signed(&dkg, &input);
    bank.sync(&input, &qc, &mut t0, &mut t1).unwrap();

    // buckets 1 and 2 cleared; bucket 3 (the future epoch) untouched
    assert_eq!(bank.deposit_of(&user, 1), (0, 0));
    assert_eq!(bank.deposit_of(&user, 2), (0, 0));
    assert_eq!(bank.deposit_of(&user, 3), (100, 0));
    assert_eq!(bank.expected_epoch(), 3);
}

#[test]
fn sync_replay_is_rejected() {
    let (mut bank, mut t0, mut t1, dkg) = bank_world();
    let input = SyncInput {
        epoch: 1,
        payouts: vec![],
        positions: vec![],
        pools: vec![PoolUpdate {
            pool: PoolId(0),
            reserve0: 1,
            reserve1: 1,
        }],
        next_vk: dkg.group_public_key,
    };
    let qc = signed(&dkg, &input);
    bank.sync(&input, &qc, &mut t0, &mut t1).unwrap();
    // replaying the identical, correctly-signed sync must fail (stale)
    let replay = bank.sync(&input, &qc, &mut t0, &mut t1);
    assert!(replay.is_err(), "replay accepted!");
}

#[test]
fn relock_moves_real_tokens() {
    let (mut bank, mut t0, mut t1, _) = bank_world();
    let user = Address::from_index(9);
    t0.mint(user, 500);
    let bank_before = t0.balance_of(&bank.address);
    bank.relock(user, 500, 0, 4, &mut t0, &mut t1).unwrap();
    assert_eq!(t0.balance_of(&user), 0);
    assert_eq!(t0.balance_of(&bank.address), bank_before + 500);
    assert_eq!(bank.deposit_of(&user, 4), (500, 0));
    // cannot relock more than held
    assert!(bank.relock(user, 1, 0, 4, &mut t0, &mut t1).is_err());
}
