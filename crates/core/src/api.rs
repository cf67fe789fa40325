//! The paper's §III framework API, made concrete: thin, documented entry
//! points named exactly as the functionality list (`SystemSetup`,
//! `PartySetup`, `CreateTx`, `VerifyTx`, `VerifyBlock`, `UpdateState`,
//! `Elect`, `Prune`), mapped onto the workspace components (the
//! README's "Workspace layout" table lists them).

use crate::processor::EpochProcessor;
use crate::txenv::{self, SignedTx, TxError};
use ammboost_amm::tx::AmmTx;
use ammboost_amm::types::PoolId;
use ammboost_consensus::election::{
    elect_committee, Committee, ElectionError, ElectionProof, MinerRecord,
};
use ammboost_crypto::dkg::{run_ceremony, DkgConfig, DkgOutput};
use ammboost_crypto::schnorr::Keypair;
use ammboost_crypto::vrf::VrfSecretKey;
use ammboost_crypto::H256;
use ammboost_mainchain::contracts::TokenBank;
use ammboost_mainchain::gas::GasMeter;
use ammboost_sidechain::block::{MetaBlock, SummaryBlock};
use ammboost_sidechain::ledger::{BlockError, Ledger};

/// Output of [`system_setup`]: the public parameters and initial ledgers
/// the paper's `SystemSetup(1^λ, L_mc)` returns.
#[derive(Debug)]
pub struct SystemSetupOutput {
    /// The deployed base contract (the mainchain side of the AMM).
    pub token_bank: TokenBank,
    /// The genesis sidechain ledger `L^0_sc`, referencing the mainchain
    /// block containing TokenBank.
    pub sidechain: Ledger,
    /// The genesis committee's key material (its `vk_c` is registered in
    /// TokenBank at deployment).
    pub genesis_committee: DkgOutput,
    /// Epoch length ω (rounds), echoed from the configuration.
    pub epoch_length: u64,
}

/// `SystemSetup(1^λ, L_mc)` — deploys TokenBank with the genesis
/// committee key, creates the referencing sidechain genesis, and fixes
/// the epoch length (paper Fig. 2).
pub fn system_setup(epoch_length: u64, crypto_faults: usize, seed: u64) -> SystemSetupOutput {
    let genesis_committee = run_ceremony(DkgConfig::for_faults(crypto_faults), seed);
    let mut token_bank = TokenBank::deploy(genesis_committee.group_public_key);
    token_bank.create_pool(PoolId(0), &mut GasMeter::new());
    let genesis_ref = H256::hash_concat(&[
        b"mainchain-block-with-token-bank",
        token_bank.address.as_bytes(),
    ]);
    SystemSetupOutput {
        token_bank,
        sidechain: Ledger::new(genesis_ref),
        genesis_committee,
        epoch_length,
    }
}

/// A party's local state, as produced by `PartySetup(pp)`.
#[derive(Debug)]
pub enum PartyState {
    /// A client or liquidity provider: a transaction-signing keypair.
    User(Keypair),
    /// A sidechain miner: a VRF identity (for sortition) plus the current
    /// sidechain view.
    Miner {
        /// Sortition identity.
        vrf: Box<VrfSecretKey>,
        /// Registration record (id + public key + stake).
        record: MinerRecord,
    },
}

/// `PartySetup(pp)` for a client/LP.
pub fn party_setup_user(seed: u64, index: u64) -> PartyState {
    PartyState::User(Keypair::from_seed(seed, index))
}

/// `PartySetup(pp)` for a sidechain miner.
pub fn party_setup_miner(entropy: [u8; 32], id: u64, stake: u64) -> PartyState {
    let vrf = VrfSecretKey::from_entropy(entropy);
    let record = MinerRecord {
        id,
        vrf_pk: vrf.public_key(),
        stake,
    };
    PartyState::Miner {
        vrf: Box::new(vrf),
        record,
    }
}

/// `CreateTx(txtype, aux)` — signs a transaction under the issuer's key.
pub fn create_tx(keypair: &Keypair, tx: AmmTx) -> SignedTx {
    txenv::create_tx(keypair, tx)
}

/// `VerifyTx(tx)` — the syntax/signature predicate.
///
/// # Errors
/// Returns the violated rule.
pub fn verify_tx(tx: &SignedTx) -> Result<(), TxError> {
    txenv::verify_tx(tx)
}

/// `VerifyBlock(L_sc, B, btype = meta)`.
///
/// # Errors
/// Returns the chaining/content violation.
pub fn verify_meta_block(ledger: &Ledger, block: &MetaBlock) -> Result<(), BlockError> {
    ledger.verify_meta(block)
}

/// `VerifyBlock(L_sc, B, btype = summary)`.
///
/// # Errors
/// Returns the chaining/content violation.
pub fn verify_summary_block(ledger: &Ledger, block: &SummaryBlock) -> Result<(), BlockError> {
    ledger.verify_summary(block)
}

/// `UpdateState(L_sc, aux, btype = meta)` — executes pending transactions
/// and appends the resulting meta-block.
///
/// # Errors
/// Propagates ledger validation failures.
pub fn update_state_meta(
    ledger: &mut Ledger,
    processor: &mut EpochProcessor,
    epoch: u64,
    round: u64,
    pending: Vec<(AmmTx, usize)>,
) -> Result<H256, BlockError> {
    let executed = pending
        .into_iter()
        .map(|(tx, size)| processor.execute(&tx, size, round))
        .collect();
    let block = MetaBlock::new(epoch, round, ledger.tip(), executed);
    let id = block.id();
    ledger.append_meta(block)?;
    Ok(id)
}

/// `UpdateState(L_sc, ⊥, btype = summary)` — summarizes the epoch's
/// meta-blocks (Fig. 4) into the permanent summary-block.
///
/// # Errors
/// Propagates ledger validation failures.
pub fn update_state_summary(
    ledger: &mut Ledger,
    processor: &mut EpochProcessor,
    epoch: u64,
) -> Result<H256, BlockError> {
    let (payouts, positions, pool) = processor.end_epoch();
    let summary = SummaryBlock {
        epoch,
        parent: ledger.tip(),
        meta_refs: ledger.meta_blocks(epoch).iter().map(|m| m.id()).collect(),
        payouts,
        positions,
        pools: vec![pool],
    };
    let id = summary.id();
    ledger.append_summary(summary)?;
    Ok(id)
}

/// `Elect(L_sc)` — VRF-sortition committee election with verified proofs.
///
/// # Errors
/// Propagates election failures (bad tickets, too few miners).
pub fn elect(
    miners: &[MinerRecord],
    tickets: &[ElectionProof],
    seed: &H256,
    epoch: u64,
    committee_size: usize,
) -> Result<Committee, ElectionError> {
    elect_committee(miners, tickets, seed, epoch, committee_size)
}

/// `Prune(L_sc)` — drops the meta-blocks of every epoch whose sync is
/// confirmed, returning the bytes reclaimed.
pub fn prune(ledger: &mut Ledger, confirmed_epochs: &[u64]) -> u64 {
    confirmed_epochs
        .iter()
        .map(|&e| ledger.prune_epoch(e).unwrap_or(0))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ammboost_amm::tx::{SwapIntent, SwapTx};
    use std::collections::HashMap;

    #[test]
    fn paper_api_full_cycle() {
        // SystemSetup
        let setup = system_setup(5, 1, 77);
        let mut ledger = setup.sidechain;
        let bank = setup.token_bank;
        assert_eq!(bank.expected_epoch(), 1);

        // PartySetup
        let user_state = party_setup_user(1, 1);
        let PartyState::User(user) = user_state else {
            panic!("expected user");
        };
        let miner = party_setup_miner([7u8; 32], 0, 100);
        assert!(matches!(miner, PartyState::Miner { .. }));

        // CreateTx + VerifyTx
        let tx = AmmTx::Swap(SwapTx {
            user: user.address(),
            pool: PoolId(0),
            zero_for_one: true,
            intent: SwapIntent::ExactInput {
                amount_in: 1_000,
                min_amount_out: 0,
            },
            sqrt_price_limit: None,
            deadline_round: 100,
        });
        let signed = create_tx(&user, tx.clone());
        assert!(verify_tx(&signed).is_ok());

        // UpdateState (meta) over a funded processor
        let mut processor = EpochProcessor::new(PoolId(0));
        processor.seed_liquidity(
            ammboost_crypto::Address::from_index(999),
            -6000,
            6000,
            10u128.pow(12),
            10u128.pow(12),
        );
        let mut snapshot = HashMap::new();
        snapshot.insert(user.address(), (10_000u128, 10_000u128));
        processor.begin_epoch(snapshot);
        let meta_id = update_state_meta(&mut ledger, &mut processor, 1, 0, vec![(tx, 1008)])
            .expect("meta appended");
        assert!(!meta_id.is_zero());

        // remaining rounds empty, then the summary
        for round in 1..4 {
            update_state_meta(&mut ledger, &mut processor, 1, round, vec![]).unwrap();
        }
        let summary_id =
            update_state_summary(&mut ledger, &mut processor, 1).expect("summary appended");
        assert!(!summary_id.is_zero());

        // Prune after (simulated) sync confirmation
        let freed = prune(&mut ledger, &[1]);
        assert!(freed > 0);
        assert_eq!(ledger.meta_block_count(), 0);
        assert_eq!(ledger.summaries().len(), 1);
    }

    #[test]
    fn verify_block_predicates() {
        let setup = system_setup(5, 1, 78);
        let ledger = setup.sidechain;
        let good = MetaBlock::new(1, 0, ledger.tip(), vec![]);
        assert!(verify_meta_block(&ledger, &good).is_ok());
        let bad = MetaBlock::new(1, 0, H256::hash(b"fork"), vec![]);
        assert!(verify_meta_block(&ledger, &bad).is_err());
    }
}
