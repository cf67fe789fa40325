//! `TokenBank` — ammBoost's minimal base smart contract on the mainchain
//! (paper Fig. 3). It holds the actual tokens and tracks only:
//!
//! * **PoolSets** — per-pool token reserves,
//! * **Deposits** — the epoch-based user deposits backing sidechain
//!   activity,
//! * **Positions** — liquidity positions, updated from epoch summaries,
//!
//! plus the committee verification key `vk_c` used to authenticate
//! [`Sync`](TokenBank::sync) calls with a TSQC (threshold BLS + quorum
//! certificate, §IV-C). Flash loans execute here directly since they need
//! instant token dispensing (§IV-B).
//!
//! Every operation charges a labelled [`GasMeter`] using the EVM schedule in
//! [`crate::gas`], which is what the Table II reproduction itemizes.

use crate::abi::AbiEncoder;
use crate::contracts::erc20::{Erc20, Erc20Error};
use crate::gas::{self, GasMeter};
use ammboost_amm::types::{PoolId, PositionId};
use ammboost_crypto::bls::PublicKey;
use ammboost_crypto::tsqc::QuorumCertificate;
use ammboost_crypto::{Address, DigestMap, H256};
use ammboost_sidechain::summary::{PayoutEntry, PoolUpdate, PositionEntry};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// The full input of a `Sync` call (paper Fig. 3: "updated pool balances
/// and liquidity positions, and the payin/payout lists", plus the next
/// committee's verification key, §IV-C).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SyncInput {
    /// Epoch these summaries cover. Mass-syncing submits the summaries of
    /// several epochs under the latest epoch number.
    pub epoch: u64,
    /// Payout list: one entry per *active* user — the closing deposit of
    /// every user whose balance moved in the covered epoch(s). Deposits
    /// of unlisted users roll over in place.
    pub payouts: Vec<PayoutEntry>,
    /// Updated liquidity positions.
    pub positions: Vec<PositionEntry>,
    /// Updated per-pool reserve sections (one entry per pool the
    /// sidechain executes, ascending by pool id).
    pub pools: Vec<PoolUpdate>,
    /// The verification key of the *next* epoch committee, agreed via DKG
    /// and recorded here so the next sync can be authenticated.
    pub next_vk: PublicKey,
}

impl SyncInput {
    /// ABI-encodes the sync payload — this is both the signed message of
    /// the TSQC and the calldata whose size Table IV accounts.
    pub fn abi_payload(&self) -> Vec<u8> {
        let mut enc = AbiEncoder::new();
        self.encode_into(&mut enc);
        enc.into_bytes()
    }

    /// `(H256::hash(&abi_payload()), abi_payload().len())` in one streamed
    /// pass, without materialising the payload: what a TSQC signer signs
    /// and what TokenBank recomputes and meters.
    pub fn abi_digest(&self) -> (H256, usize) {
        let mut enc = AbiEncoder::hashing();
        self.encode_into(&mut enc);
        enc.into_digest()
    }

    fn encode_into(&self, enc: &mut AbiEncoder) {
        enc.word_u64(self.epoch);
        enc.dynamic_header(0, self.payouts.len());
        for p in &self.payouts {
            encode_payout(enc, p);
        }
        enc.dynamic_header(0, self.positions.len());
        for p in &self.positions {
            encode_position(enc, p);
        }
        enc.dynamic_header(0, self.pools.len());
        for u in &self.pools {
            enc.word_u64(u.pool.0 as u64);
            enc.word_u128(u.reserve0);
            enc.word_u128(u.reserve1);
        }
        enc.bytes_padded(&self.next_vk.to_bytes());
    }

    /// ABI-encoded size of one payout entry in bytes (Table IV row
    /// "Payout entry", mainchain column).
    pub fn abi_payout_entry_size() -> usize {
        let mut enc = AbiEncoder::new();
        encode_payout(
            &mut enc,
            &PayoutEntry {
                user: Address::ZERO,
                amount0: 0,
                amount1: 0,
            },
        );
        enc.len()
    }

    /// ABI-encoded size of one position entry in bytes (Table IV row
    /// "Position entry", mainchain column).
    pub fn abi_position_entry_size() -> usize {
        let mut enc = AbiEncoder::new();
        encode_position(
            &mut enc,
            &PositionEntry {
                id: PositionId::derive(&[b"x"]),
                owner: Address::ZERO,
                liquidity: 0,
                amount0: 0,
                amount1: 0,
                fees0: 0,
                fees1: 0,
                fee_growth_inside0: 0,
                fee_growth_inside1: 0,
                tick_lower: 0,
                tick_upper: 0,
                deleted: false,
            },
        );
        enc.len()
    }
}

fn encode_payout(enc: &mut AbiEncoder, p: &PayoutEntry) {
    // entry offset word + user (BLS-style 64-byte pk = 2 words) +
    // (type, amount, refund-flag) per token — the field set the paper's
    // implementation submits, yielding 352 B per entry.
    enc.word_u64(0); // entry head offset
    enc.word_address(p.user.as_bytes());
    enc.word_u64(0); // high half of a 64-byte key representation
    enc.word_u64(0); // token0 type id
    enc.word_u128(p.amount0);
    enc.word_u64(0); // token0 refund flag
    enc.word_u64(1); // token1 type id
    enc.word_u128(p.amount1);
    enc.word_u64(0); // token1 refund flag
    enc.word_u64(0); // epoch tag
    enc.word_u64(0); // reserved flags
}

fn encode_position(enc: &mut AbiEncoder, p: &PositionEntry) {
    enc.word_u64(0); // entry head offset
    enc.bytes_padded(&p.id.0 .0);
    enc.word_address(p.owner.as_bytes());
    enc.word_u64(0); // high half of the owner key representation
    enc.word_u128(p.liquidity);
    enc.word_u128(p.amount0);
    enc.word_u128(p.amount1);
    enc.word_u128(p.fees0);
    enc.word_u128(p.fees1);
    enc.word_i32(p.tick_lower);
    enc.word_i32(p.tick_upper);
    // fee-growth-inside snapshots, packed two u128 halves into one word
    enc.word_u256(
        (ammboost_crypto::U256::from_u128(p.fee_growth_inside0) << 128)
            | ammboost_crypto::U256::from_u128(p.fee_growth_inside1),
    );
    enc.word_u64(p.deleted as u64);
}

/// A position as stored in TokenBank: six 32-byte words (192 bytes), the
/// storage footprint Table II prices at 22,100 gas per word.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoredPosition {
    /// The owning LP.
    pub owner: Address,
    /// Liquidity units.
    pub liquidity: u128,
    /// Token0 principal.
    pub amount0: u128,
    /// Token1 principal.
    pub amount1: u128,
    /// Uncollected token0 fees.
    pub fees0: u128,
    /// Uncollected token1 fees.
    pub fees1: u128,
    /// Lower tick.
    pub tick_lower: i32,
    /// Upper tick.
    pub tick_upper: i32,
}

/// Number of 32-byte storage words a position occupies (192 B / 32).
pub const POSITION_STORAGE_WORDS: u64 = 6;

/// Errors from TokenBank operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenBankError {
    /// The sync's quorum certificate failed verification against `vk_c`.
    BadSyncSignature,
    /// Sync for an unexpected epoch (not newer than the last applied one).
    StaleEpoch {
        /// Epoch in the rejected sync.
        got: u64,
        /// Next epoch the bank expects.
        expected: u64,
    },
    /// No committee key registered yet.
    NoCommitteeKey,
    /// Token movement failed.
    Token(Erc20Error),
    /// Unknown pool.
    UnknownPool(PoolId),
    /// The sync's per-pool sections are empty, unsorted or carry
    /// duplicate pool ids.
    InvalidPoolSections,
    /// Flash loan not repaid with fee inside the callback.
    FlashNotRepaid,
    /// Flash loan exceeds pool reserves.
    InsufficientReserves,
}

impl std::fmt::Display for TokenBankError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TokenBankError::BadSyncSignature => write!(f, "sync TSQC verification failed"),
            TokenBankError::StaleEpoch { got, expected } => {
                write!(f, "stale sync epoch {got}, expected {expected}")
            }
            TokenBankError::NoCommitteeKey => write!(f, "no committee key registered"),
            TokenBankError::Token(e) => write!(f, "token: {e}"),
            TokenBankError::UnknownPool(p) => write!(f, "unknown pool {p}"),
            TokenBankError::InvalidPoolSections => {
                write!(f, "pool sections empty, unsorted or duplicated")
            }
            TokenBankError::FlashNotRepaid => write!(f, "flash loan not repaid"),
            TokenBankError::InsufficientReserves => write!(f, "insufficient reserves"),
        }
    }
}

impl std::error::Error for TokenBankError {}

impl From<Erc20Error> for TokenBankError {
    fn from(e: Erc20Error) -> Self {
        TokenBankError::Token(e)
    }
}

/// One epoch's deposit bucket: user → `(token0, token1)` locked for it.
pub type DepositBucket = DigestMap<Address, (u128, u128)>;

/// Receipt of a successful `Sync`, carrying the itemized gas meter.
#[derive(Clone, Debug)]
pub struct SyncReceipt {
    /// Itemized gas.
    pub meter: GasMeter,
    /// ABI payload size in bytes.
    pub payload_bytes: usize,
    /// Full transaction size (payload + 64-byte signature + selector).
    pub tx_size_bytes: usize,
    /// Payout entries applied.
    pub payouts_applied: usize,
    /// Positions created/updated/deleted.
    pub positions_applied: usize,
}

/// The TokenBank contract state.
#[derive(Clone, Debug, PartialEq)]
pub struct TokenBank {
    /// The contract's own address (receives deposits).
    pub address: Address,
    expected_epoch: u64,
    vk_current: Option<PublicKey>,
    vk_registered_before: bool,
    /// Epoch-keyed deposits: `Deposit(type, amnt)` is placed *for the
    /// next epoch* (paper Fig. 3), so each epoch's backing is its own
    /// bucket; that epoch's sync pays out the users whose balance moved
    /// and rolls the rest over into the next bucket.
    deposits: HashMap<u64, DepositBucket>,
    positions: DigestMap<PositionId, StoredPosition>,
    pools: HashMap<PoolId, (u128, u128)>,
    flash_fee_pips: u32,
}

impl TokenBank {
    /// Deploys a TokenBank with the genesis committee key.
    pub fn deploy(genesis_vk: PublicKey) -> TokenBank {
        TokenBank {
            address: Address::from_pubkey_bytes(b"ammboost-token-bank"),
            expected_epoch: 1,
            vk_current: Some(genesis_vk),
            vk_registered_before: false,
            deposits: HashMap::new(),
            positions: DigestMap::default(),
            pools: HashMap::new(),
            flash_fee_pips: 3000,
        }
    }

    /// `createPool(A, B)` — initializes reserves for a token pair.
    pub fn create_pool(&mut self, pool: PoolId, meter: &mut GasMeter) {
        self.pools.entry(pool).or_insert((0, 0));
        meter.charge("create_pool.storage", gas::SSTORE_NEW_WORD);
    }

    /// The epoch the bank expects the next sync to cover.
    pub fn expected_epoch(&self) -> u64 {
        self.expected_epoch
    }

    /// A user's deposit balances `(token0, token1)` backing `epoch`.
    pub fn deposit_of(&self, user: &Address, epoch: u64) -> (u128, u128) {
        self.deposits
            .get(&epoch)
            .and_then(|b| b.get(user))
            .copied()
            .unwrap_or((0, 0))
    }

    /// Snapshot of the deposits backing `epoch` — the sidechain's
    /// `SnapshotBank` call at the start of an epoch (paper §V).
    pub fn snapshot_deposits(&self, epoch: u64) -> DepositBucket {
        self.deposits.get(&epoch).cloned().unwrap_or_default()
    }

    /// Reserves of a pool.
    pub fn pool_reserves(&self, pool: &PoolId) -> Option<(u128, u128)> {
        self.pools.get(pool).copied()
    }

    /// Number of live positions in bank state.
    pub fn position_count(&self) -> usize {
        self.positions.len()
    }

    /// `Deposit(type, amnt)` for both tokens: pulls the tokens from the
    /// user (who must have approved the bank) and credits the deposit map.
    /// The deposits back the user's next-epoch sidechain activity
    /// (paper §IV-A "epoch-based deposits").
    ///
    /// # Errors
    /// Fails when allowances or balances are insufficient (state intact).
    pub fn deposit(
        &mut self,
        user: Address,
        amount0: u128,
        amount1: u128,
        for_epoch: u64,
        token0: &mut Erc20,
        token1: &mut Erc20,
        meter: &mut GasMeter,
    ) -> Result<(), TokenBankError> {
        // calldata: selector + 2 (type, amount) pairs
        meter.charge("deposit.intrinsic", gas::intrinsic_cost(4 + 4 * 32, 0.4));
        if amount0 > 0 {
            meter.charge("deposit.call_token0", gas::CALL_COLD);
            token0.transfer_from(self.address, user, self.address, amount0, meter)?;
        }
        if amount1 > 0 {
            meter.charge("deposit.call_token1", gas::CALL_COLD);
            token1.transfer_from(self.address, user, self.address, amount1, meter)?;
        }
        let entry = self
            .deposits
            .entry(for_epoch)
            .or_default()
            .entry(user)
            .or_insert((0, 0));
        let fresh = *entry == (0, 0);
        entry.0 += amount0;
        entry.1 += amount1;
        // both u128 amounts pack into one 32-byte slot
        meter.charge(
            "deposit.storage",
            if fresh {
                gas::SSTORE_NEW_WORD
            } else {
                gas::SSTORE_UPDATE_COLD
            },
        );
        Ok(())
    }

    /// `Sync(aux)` — the epoch-summary application (paper §IV-C):
    ///
    /// 1. authenticates the TSQC against the stored `vk_c` (Keccak over the
    ///    payload, hash-to-point `ecMul`, one 2-pairing check);
    /// 2. dispenses payouts (deposit refunds + accrued tokens) and clears
    ///    the listed users' deposit slots; unlisted deposits of the
    ///    covered epoch(s) roll over into epoch `input.epoch + 1` in
    ///    place — slots that are simply not written, so no token moves
    ///    and no gas is charged, under the same certified transition;
    /// 3. creates/updates/deletes stored positions;
    /// 4. updates pool reserves;
    /// 5. records the next committee's `vk_c`.
    ///
    /// # Errors
    /// Rejects stale epochs, malformed pool sections, invalid
    /// certificates and payout lists the bank's token balances cannot
    /// cover without touching state; the O(1) rejections come before the
    /// O(payload) digest.
    pub fn sync(
        &mut self,
        input: &SyncInput,
        qc: &QuorumCertificate,
        token0: &mut Erc20,
        token1: &mut Erc20,
    ) -> Result<SyncReceipt, TokenBankError> {
        if input.epoch < self.expected_epoch {
            return Err(TokenBankError::StaleEpoch {
                got: input.epoch,
                expected: self.expected_epoch,
            });
        }
        // exactly one section per pool, ascending — the shape the
        // sidechain's summary rules emit and the gas model assumes
        if input.pools.is_empty() || !input.pools.windows(2).all(|w| w[0].pool < w[1].pool) {
            return Err(TokenBankError::InvalidPoolSections);
        }
        let vk = self
            .vk_current
            .as_ref()
            .ok_or(TokenBankError::NoCommitteeKey)?;

        // --- authentication (Table II "Authentication" columns): the
        // bank hashes its own encoding of the input it is about to apply
        let mut meter = GasMeter::new();
        let (digest, payload_bytes) = input.abi_digest();
        meter.charge(
            "auth.intrinsic",
            gas::intrinsic_cost(payload_bytes + 68, 0.35),
        );
        meter.charge("auth.keccak256", gas::keccak_cost(payload_bytes));
        meter.charge("auth.hash_to_point.ecmul", gas::EC_MUL);
        meter.charge("auth.pairing", gas::pairing_cost(2));
        if !qc.verify_digest(vk, &digest) {
            return Err(TokenBankError::BadSyncSignature);
        }

        // the only way a payout transfer can fail — checked before the
        // first one moves, so a rejected sync leaves no partial payouts
        let bank_covers = |token: &Erc20, amount: fn(&PayoutEntry) -> u128| {
            let mut listed = input.payouts.iter().map(amount);
            let total = listed.try_fold(0, u128::checked_add);
            total.is_some_and(|total| total <= token.balance_of(&self.address))
        };
        if !bank_covers(token0, |p| p.amount0) || !bank_covers(token1, |p| p.amount1) {
            return Err(Erc20Error::InsufficientBalance.into());
        }

        // --- payouts: every bucket the (mass-)sync covers comes out as
        // one map (a move in the usual single-bucket case); listed users
        // are paid and leave it, the rest roll over as bucket epoch + 1
        let (covered_buckets, later): (HashMap<_, _>, HashMap<_, _>) =
            std::mem::take(&mut self.deposits)
                .into_iter()
                .partition(|(e, _)| *e <= input.epoch);
        self.deposits = later;
        let mut covered = DepositBucket::default();
        for bucket in covered_buckets.into_values() {
            merge_bucket(&mut covered, bucket);
        }
        for p in &input.payouts {
            self.apply_payout(p, &mut covered, token0, token1, &mut meter);
        }
        if !covered.is_empty() {
            let next = self.deposits.entry(input.epoch + 1).or_default();
            let fresh = std::mem::replace(next, covered);
            merge_bucket(next, fresh);
        }

        // --- positions ---
        for entry in &input.positions {
            self.apply_position(entry, &mut meter);
        }

        // --- pool balances (one packed word per pool section) ---
        for update in &input.pools {
            let fresh_pool = !self.pools.contains_key(&update.pool);
            self.pools
                .insert(update.pool, (update.reserve0, update.reserve1));
            meter.charge(
                "pool_balance.storage",
                if fresh_pool {
                    gas::SSTORE_NEW_WORD
                } else {
                    gas::SSTORE_UPDATE_COLD
                },
            );
        }

        // --- next committee key (128 B = 4 words) ---
        self.vk_current = Some(input.next_vk);
        let vk_words = 4u64;
        meter.charge(
            "vkc.storage",
            vk_words
                * if self.vk_registered_before {
                    gas::SSTORE_UPDATE_COLD
                } else {
                    gas::SSTORE_NEW_WORD
                },
        );
        self.vk_registered_before = true;
        self.expected_epoch = input.epoch + 1;

        Ok(SyncReceipt {
            payload_bytes,
            tx_size_bytes: payload_bytes + 64 + 4,
            payouts_applied: input.payouts.len(),
            positions_applied: input.positions.len(),
            meter,
        })
    }

    fn apply_payout(
        &self,
        p: &PayoutEntry,
        covered: &mut DepositBucket,
        token0: &mut Erc20,
        token1: &mut Erc20,
        meter: &mut GasMeter,
    ) {
        // Deposit slot: read + clear (refundable) — whichever covered
        // bucket held it.
        meter.charge("payout", gas::SLOAD_COLD);
        if covered.remove(&p.user).is_some() {
            meter.charge("payout", gas::SSTORE_UPDATE_WARM);
            meter.add_refund(gas::SSTORE_CLEAR_REFUND);
        }
        // Dispense tokens: the bank's own balance slot is warm inside the
        // batch loop; only the user slots cost cold accesses.
        for (amount, token) in [(p.amount0, token0), (p.amount1, token1)] {
            if amount > 0 {
                meter.charge("payout", gas::SLOAD_COLD + gas::SSTORE_UPDATE_COLD);
                token
                    .transfer(self.address, p.user, amount, &mut GasMeter::new())
                    .expect("sync checked the bank covers the whole list");
            }
        }
    }

    fn apply_position(&mut self, entry: &PositionEntry, meter: &mut GasMeter) {
        if entry.deleted {
            if self.positions.remove(&entry.id).is_some() {
                meter.charge(
                    "position.storage",
                    POSITION_STORAGE_WORDS * gas::SSTORE_UPDATE_WARM,
                );
                meter.add_refund(POSITION_STORAGE_WORDS * gas::SSTORE_CLEAR_REFUND);
            }
            return;
        }
        let fresh = !self.positions.contains_key(&entry.id);
        self.positions.insert(
            entry.id,
            StoredPosition {
                owner: entry.owner,
                liquidity: entry.liquidity,
                amount0: entry.amount0,
                amount1: entry.amount1,
                fees0: entry.fees0,
                fees1: entry.fees1,
                tick_lower: entry.tick_lower,
                tick_upper: entry.tick_upper,
            },
        );
        meter.charge(
            "position.storage",
            POSITION_STORAGE_WORDS
                * if fresh {
                    gas::SSTORE_NEW_WORD
                } else {
                    gas::SSTORE_UPDATE_COLD
                },
        );
    }

    /// Re-locks a just-dispensed payout as the user's deposit for
    /// `into_epoch` (the rollover option of the epoch-based deposit
    /// mechanism: a user electing to keep backing the next epoch instead
    /// of withdrawing). Token movement is real; gas is charged by the
    /// caller's policy (the system runner models rollover as part of the
    /// sync flow).
    ///
    /// # Errors
    /// Fails when the user lacks the token balance being re-locked.
    pub fn relock(
        &mut self,
        user: Address,
        amount0: u128,
        amount1: u128,
        into_epoch: u64,
        token0: &mut Erc20,
        token1: &mut Erc20,
    ) -> Result<(), TokenBankError> {
        let mut scratch = GasMeter::new();
        if amount0 > 0 {
            token0.transfer(user, self.address, amount0, &mut scratch)?;
        }
        if amount1 > 0 {
            token1.transfer(user, self.address, amount1, &mut scratch)?;
        }
        let entry = self
            .deposits
            .entry(into_epoch)
            .or_default()
            .entry(user)
            .or_insert((0, 0));
        entry.0 += amount0;
        entry.1 += amount1;
        Ok(())
    }

    /// `Flash(aux)` — a flash loan served directly from pool reserves on
    /// the mainchain, repaid (plus fee) within the callback, i.e. within a
    /// single block. Under-repayment reverts with no state change.
    ///
    /// # Errors
    /// Fails on unknown pool, excessive loan, or under-repayment.
    pub fn flash<F>(
        &mut self,
        pool: PoolId,
        amount0: u128,
        amount1: u128,
        meter: &mut GasMeter,
        callback: F,
    ) -> Result<(u128, u128), TokenBankError>
    where
        F: FnOnce(u128, u128) -> (u128, u128),
    {
        meter.charge("flash.intrinsic", gas::intrinsic_cost(4 + 3 * 32, 0.4));
        let (r0, r1) = self
            .pools
            .get(&pool)
            .copied()
            .ok_or(TokenBankError::UnknownPool(pool))?;
        if amount0 > r0 || amount1 > r1 {
            return Err(TokenBankError::InsufficientReserves);
        }
        let fee0 = mul_ceil(amount0, self.flash_fee_pips);
        let fee1 = mul_ceil(amount1, self.flash_fee_pips);
        meter.charge(
            "flash.transfers_out",
            2 * (gas::SLOAD_COLD + gas::SSTORE_UPDATE_COLD),
        );
        let (repay0, repay1) = callback(amount0, amount1);
        if repay0 < amount0 + fee0 || repay1 < amount1 + fee1 {
            return Err(TokenBankError::FlashNotRepaid);
        }
        meter.charge(
            "flash.transfers_in",
            2 * (gas::SLOAD_COLD + gas::SSTORE_UPDATE_COLD),
        );
        let reserves = self.pools.get_mut(&pool).expect("checked above");
        reserves.0 += repay0 - amount0;
        reserves.1 += repay1 - amount1;
        meter.charge("flash.pool_update", gas::SSTORE_UPDATE_COLD);
        Ok((repay0 - amount0, repay1 - amount1))
    }
}

/// Adds `from`'s deposits onto `into`'s (a move when `into` is empty).
fn merge_bucket(into: &mut DepositBucket, from: DepositBucket) {
    if into.is_empty() {
        *into = from;
        return;
    }
    for (user, (amount0, amount1)) in from {
        let slot = into.entry(user).or_insert((0, 0));
        slot.0 += amount0;
        slot.1 += amount1;
    }
}

fn mul_ceil(amount: u128, pips: u32) -> u128 {
    let denom = 1_000_000u128;
    (amount * pips as u128).div_ceil(denom)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ammboost_crypto::dkg::{run_ceremony, DkgConfig};
    use ammboost_crypto::tsqc::{partial_sign, quorum_threshold};
    use proptest::prelude::*;

    fn a(i: u64) -> Address {
        Address::from_index(i)
    }

    #[derive(Clone)]
    struct World {
        bank: TokenBank,
        token0: Erc20,
        token1: Erc20,
        dkg: ammboost_crypto::dkg::DkgOutput,
    }

    fn setup() -> World {
        let dkg = run_ceremony(DkgConfig::for_faults(1), 99);
        let mut bank = TokenBank::deploy(dkg.group_public_key);
        let mut token0 = Erc20::new("TKA");
        let mut token1 = Erc20::new("TKB");
        let mut meter = GasMeter::new();
        bank.create_pool(PoolId(0), &mut meter);
        // faucet: bank holds pool reserves + users hold spendable tokens
        token0.mint(bank.address, 10_000_000);
        token1.mint(bank.address, 10_000_000);
        for i in 1..=3 {
            token0.mint(a(i), 1_000_000);
            token1.mint(a(i), 1_000_000);
        }
        World {
            bank,
            token0,
            token1,
            dkg,
        }
    }

    fn signed_sync(w: &World, input: &SyncInput) -> QuorumCertificate {
        let payload = input.abi_payload();
        let threshold = quorum_threshold(5);
        let partials: Vec<_> = w.dkg.key_shares[..threshold]
            .iter()
            .map(|k| partial_sign(k, &payload))
            .collect();
        QuorumCertificate::assemble(input.epoch, &payload, &partials, threshold).unwrap()
    }

    /// Runs a sync that must be rejected with `expected` and leave the
    /// bank and both token ledgers exactly as they were.
    fn assert_rejected_untouched(
        w: &mut World,
        input: &SyncInput,
        qc: &QuorumCertificate,
        expected: TokenBankError,
    ) {
        let before = (w.bank.clone(), w.token0.clone(), w.token1.clone());
        let r = w.bank.sync(input, qc, &mut w.token0, &mut w.token1);
        assert_eq!(r.unwrap_err(), expected);
        assert!(
            (&w.bank, &w.token0, &w.token1) == (&before.0, &before.1, &before.2),
            "rejected sync touched state"
        );
    }

    fn position(i: u64) -> PositionEntry {
        PositionEntry {
            id: PositionId::derive(&[&i.to_be_bytes()]),
            owner: a(i),
            liquidity: 1000 + i as u128,
            amount0: 10,
            amount1: 20,
            fees0: 1,
            fees1: 2,
            fee_growth_inside0: i as u128,
            fee_growth_inside1: u128::MAX - i as u128,
            tick_lower: -60,
            tick_upper: 60,
            deleted: i.is_multiple_of(7),
        }
    }

    fn empty_sync(w: &World, epoch: u64) -> SyncInput {
        SyncInput {
            epoch,
            payouts: vec![],
            positions: vec![],
            pools: vec![PoolUpdate {
                pool: PoolId(0),
                reserve0: 100,
                reserve1: 100,
            }],
            next_vk: w.dkg.group_public_key,
        }
    }

    #[test]
    fn deposit_pulls_tokens_and_credits() {
        let mut w = setup();
        let mut meter = GasMeter::new();
        w.token0
            .approve(a(1), w.bank.address, 500, &mut GasMeter::new());
        w.token1
            .approve(a(1), w.bank.address, 700, &mut GasMeter::new());
        w.bank
            .deposit(a(1), 500, 700, 1, &mut w.token0, &mut w.token1, &mut meter)
            .unwrap();
        assert_eq!(w.bank.deposit_of(&a(1), 1), (500, 700));
        assert_eq!(w.token0.balance_of(&a(1)), 999_500);
        // paper Table II: two-token deposit ≈ 105,392 gas
        let total = meter.total();
        assert!(
            (80_000..140_000).contains(&total),
            "deposit gas {total} out of paper ballpark"
        );
    }

    #[test]
    fn deposit_without_approval_fails() {
        let mut w = setup();
        let mut meter = GasMeter::new();
        let r = w
            .bank
            .deposit(a(1), 500, 0, 1, &mut w.token0, &mut w.token1, &mut meter);
        assert_eq!(
            r,
            Err(TokenBankError::Token(Erc20Error::InsufficientAllowance))
        );
        assert_eq!(w.bank.deposit_of(&a(1), 1), (0, 0));
    }

    #[test]
    fn sync_verifies_and_applies_payouts() {
        let mut w = setup();
        // user 1 has a deposit that the epoch converts into a payout
        w.token0
            .approve(a(1), w.bank.address, 500, &mut GasMeter::new());
        w.bank
            .deposit(
                a(1),
                500,
                0,
                1,
                &mut w.token0,
                &mut w.token1,
                &mut GasMeter::new(),
            )
            .unwrap();

        let mut input = empty_sync(&w, 1);
        input.payouts.push(PayoutEntry {
            user: a(1),
            amount0: 200,
            amount1: 300,
        });
        let qc = signed_sync(&w, &input);
        let before0 = w.token0.balance_of(&a(1));
        let before1 = w.token1.balance_of(&a(1));
        let receipt = w
            .bank
            .sync(&input, &qc, &mut w.token0, &mut w.token1)
            .unwrap();
        assert_eq!(receipt.payouts_applied, 1);
        assert_eq!(w.token0.balance_of(&a(1)), before0 + 200);
        assert_eq!(w.token1.balance_of(&a(1)), before1 + 300);
        // deposit cleared by the payout
        assert_eq!(w.bank.deposit_of(&a(1), 1), (0, 0));
        assert_eq!(w.bank.expected_epoch(), 2);
        assert_eq!(w.bank.pool_reserves(&PoolId(0)), Some((100, 100)));
    }

    #[test]
    fn sync_rejects_forged_certificate() {
        let mut w = setup();
        let input = empty_sync(&w, 1);
        // certificate from a different (illegitimate) committee
        let rogue = run_ceremony(DkgConfig::for_faults(1), 123);
        let payload = input.abi_payload();
        let partials: Vec<_> = rogue.key_shares[..4]
            .iter()
            .map(|k| partial_sign(k, &payload))
            .collect();
        let qc = QuorumCertificate::assemble(1, &payload, &partials, 4).unwrap();
        assert_rejected_untouched(&mut w, &input, &qc, TokenBankError::BadSyncSignature);
    }

    #[test]
    fn sync_rejects_input_tampered_after_certification() {
        let mut w = setup();
        let mut input = empty_sync(&w, 1);
        for i in 1..=3 {
            input.payouts.push(PayoutEntry {
                user: a(i),
                amount0: 100,
                amount1: 100,
            });
        }
        let qc = signed_sync(&w, &input);
        // the submitter bumps one payout by one unit: the bank's own
        // digest of what it is asked to apply no longer matches the QC
        input.payouts[1].amount1 += 1;
        assert_rejected_untouched(&mut w, &input, &qc, TokenBankError::BadSyncSignature);
        // ...and a matching recorded hash does not help without the shares
        let forged = QuorumCertificate {
            payload_hash: input.abi_digest().0,
            ..qc
        };
        assert_rejected_untouched(&mut w, &input, &forged, TokenBankError::BadSyncSignature);
    }

    #[test]
    fn sync_rejects_uncoverable_payout_list() {
        let mut w = setup();
        w.bank
            .relock(a(1), 500, 0, 1, &mut w.token0, &mut w.token1)
            .unwrap();
        // the bank holds 10 000 500 token0: the first entry alone is
        // covered, the list is not — nothing may move, not even entry one
        let mut input = empty_sync(&w, 1);
        for i in 1..=2 {
            input.payouts.push(PayoutEntry {
                user: a(i),
                amount0: 6_000_000,
                amount1: 1,
            });
        }
        let qc = signed_sync(&w, &input);
        let uncovered = TokenBankError::Token(Erc20Error::InsufficientBalance);
        assert_rejected_untouched(&mut w, &input, &qc, uncovered.clone());
        // a sum past u128 is uncoverable too, not a wrapped small number
        input.payouts[0].amount1 = u128::MAX;
        let qc = signed_sync(&w, &input);
        assert_rejected_untouched(&mut w, &input, &qc, uncovered);
    }

    #[test]
    fn mass_sync_clears_the_slot_wherever_it_sat() {
        // a refused sync left users 1 and 2 in bucket 1; bucket 2 holds a
        // fresh deposit of user 2 and user 3's only one
        let mut w = setup();
        for (user, epoch) in [(1, 1), (2, 1), (2, 2), (3, 2)] {
            w.bank
                .relock(a(user), 100, 100, epoch, &mut w.token0, &mut w.token1)
                .unwrap();
        }
        let mut input = empty_sync(&w, 2);
        for user in [1, 3] {
            input.payouts.push(PayoutEntry {
                user: a(user),
                amount0: 7,
                amount1: 0,
            });
        }
        let qc = signed_sync(&w, &input);
        let receipt = w
            .bank
            .sync(&input, &qc, &mut w.token0, &mut w.token1)
            .unwrap();
        // both listed users pay slot read + clear + one token transfer,
        // and both clears book their refund — user 1's from bucket 1
        let per_user =
            gas::SLOAD_COLD + gas::SSTORE_UPDATE_WARM + gas::SLOAD_COLD + gas::SSTORE_UPDATE_COLD;
        assert_eq!(receipt.meter.total_for("payout"), 2 * per_user);
        assert_eq!(
            receipt.meter.gross() - receipt.meter.total(),
            2 * gas::SSTORE_CLEAR_REFUND
        );
        // no covered bucket survives; the unlisted deposits moved on whole
        for user in 1..=3 {
            assert_eq!(w.bank.deposit_of(&a(user), 1), (0, 0));
            assert_eq!(w.bank.deposit_of(&a(user), 2), (0, 0));
        }
        assert_eq!(
            w.bank.snapshot_deposits(3),
            [(a(2), (200, 200))].into_iter().collect()
        );
        assert_eq!(w.token0.balance_of(&a(1)), 1_000_000 - 100 + 7);
    }

    #[test]
    fn sync_rejects_stale_epoch() {
        let mut w = setup();
        let input = empty_sync(&w, 1);
        let qc = signed_sync(&w, &input);
        w.bank
            .sync(&input, &qc, &mut w.token0, &mut w.token1)
            .unwrap();
        let stale = TokenBankError::StaleEpoch {
            got: 1,
            expected: 2,
        };
        assert_rejected_untouched(&mut w, &input, &qc, stale);
    }

    #[test]
    fn mass_sync_skips_epochs() {
        // a sync covering epochs 1..3 arrives with epoch = 3
        let mut w = setup();
        let input = empty_sync(&w, 3);
        let qc = signed_sync(&w, &input);
        w.bank
            .sync(&input, &qc, &mut w.token0, &mut w.token1)
            .unwrap();
        assert_eq!(w.bank.expected_epoch(), 4);
    }

    #[test]
    fn sync_positions_create_update_delete() {
        let mut w = setup();
        let pos = PositionEntry {
            id: PositionId::derive(&[b"p1"]),
            owner: a(2),
            liquidity: 1000,
            amount0: 10,
            amount1: 20,
            fees0: 1,
            fees1: 2,
            fee_growth_inside0: 0,
            fee_growth_inside1: 0,
            tick_lower: -60,
            tick_upper: 60,
            deleted: false,
        };
        let mut input = empty_sync(&w, 1);
        input.positions.push(pos);
        let qc = signed_sync(&w, &input);
        let receipt = w
            .bank
            .sync(&input, &qc, &mut w.token0, &mut w.token1)
            .unwrap();
        assert_eq!(w.bank.position_count(), 1);
        // creating a position costs 6 words x 22,100
        assert_eq!(
            receipt.meter.total_for("position.storage"),
            6 * gas::SSTORE_NEW_WORD
        );

        // update in epoch 2
        let mut input2 = empty_sync(&w, 2);
        input2.positions.push(PositionEntry {
            liquidity: 900,
            ..pos
        });
        let qc2 = signed_sync(&w, &input2);
        let receipt2 = w
            .bank
            .sync(&input2, &qc2, &mut w.token0, &mut w.token1)
            .unwrap();
        assert_eq!(
            receipt2.meter.total_for("position.storage"),
            6 * gas::SSTORE_UPDATE_COLD
        );

        // delete in epoch 3
        let mut input3 = empty_sync(&w, 3);
        input3.positions.push(PositionEntry {
            deleted: true,
            ..pos
        });
        let qc3 = signed_sync(&w, &input3);
        w.bank
            .sync(&input3, &qc3, &mut w.token0, &mut w.token1)
            .unwrap();
        assert_eq!(w.bank.position_count(), 0);
    }

    #[test]
    fn payout_gas_is_near_paper_constant() {
        let mut w = setup();
        let mut input = empty_sync(&w, 1);
        for i in 1..=3 {
            input.payouts.push(PayoutEntry {
                user: a(i),
                amount0: 100,
                amount1: 100,
            });
        }
        let qc = signed_sync(&w, &input);
        let receipt = w
            .bank
            .sync(&input, &qc, &mut w.token0, &mut w.token1)
            .unwrap();
        let per_payout = receipt.meter.total_for("payout") as f64 / 3.0;
        // paper Table II: 15,771 per payout; our composition lands nearby
        assert!(
            (12_000.0..22_000.0).contains(&per_payout),
            "per-payout gas {per_payout}"
        );
    }

    #[test]
    fn auth_gas_matches_table_ii_items() {
        let mut w = setup();
        let input = empty_sync(&w, 1);
        let qc = signed_sync(&w, &input);
        let receipt = w
            .bank
            .sync(&input, &qc, &mut w.token0, &mut w.token1)
            .unwrap();
        assert_eq!(receipt.meter.total_for("auth.pairing"), 113_000);
        assert_eq!(receipt.meter.total_for("auth.hash_to_point.ecmul"), 6_000);
        let keccak = receipt.meter.total_for("auth.keccak256");
        let expected = gas::keccak_cost(input.abi_payload().len());
        assert_eq!(keccak, expected);
    }

    #[test]
    fn flash_loan_roundtrip_and_revert() {
        let mut w = setup();
        // seed reserves via a sync
        let input = empty_sync(&w, 1);
        let qc = signed_sync(&w, &input);
        w.bank
            .sync(&input, &qc, &mut w.token0, &mut w.token1)
            .unwrap();

        let mut meter = GasMeter::new();
        let fees = w
            .bank
            .flash(PoolId(0), 50, 0, &mut meter, |a0, a1| (a0 + 1, a1))
            .unwrap();
        assert_eq!(fees, (1, 0));
        assert_eq!(w.bank.pool_reserves(&PoolId(0)), Some((101, 100)));

        let before = w.bank.pool_reserves(&PoolId(0));
        let r = w
            .bank
            .flash(PoolId(0), 50, 0, &mut GasMeter::new(), |a0, a1| (a0, a1));
        assert_eq!(r, Err(TokenBankError::FlashNotRepaid));
        assert_eq!(w.bank.pool_reserves(&PoolId(0)), before);
    }

    #[test]
    fn abi_entry_sizes_match_paper_table_iv() {
        assert_eq!(SyncInput::abi_payout_entry_size(), 352);
        assert_eq!(SyncInput::abi_position_entry_size(), 416);
    }

    #[test]
    fn routed_epoch_settles_netted_under_one_tsqc() {
        // A 3-hop route (100k t0 → t1 → t0 → t1 across pools 0,1,2)
        // reaches the bank as ONE netted payout entry under one TSQC.
        // The naive alternative — settling each hop's transfers as their
        // own entries — would ship 2 × hops entries for the same trade.
        let mut w = setup();
        w.bank.create_pool(PoolId(1), &mut GasMeter::new());
        w.bank.create_pool(PoolId(2), &mut GasMeter::new());
        w.token0
            .approve(a(1), w.bank.address, 100_000, &mut GasMeter::new());
        w.bank
            .deposit(
                a(1),
                100_000,
                0,
                1,
                &mut w.token0,
                &mut w.token1,
                &mut GasMeter::new(),
            )
            .unwrap();

        // the sidechain's netting barrier folded the route's 6 flows
        // (-100_000 t0 in, +95_000 t1 out, intermediates cancelled) into
        // the user's final deposit balance = the single payout entry
        let netted = SyncInput {
            epoch: 1,
            payouts: vec![PayoutEntry {
                user: a(1),
                amount0: 0,
                amount1: 95_000,
            }],
            positions: vec![],
            pools: (0..3u32)
                .map(|p| PoolUpdate {
                    pool: PoolId(p),
                    reserve0: 1_000 + p as u128,
                    reserve1: 2_000 + p as u128,
                })
                .collect(),
            next_vk: w.dkg.group_public_key,
        };
        let qc = signed_sync(&w, &netted);
        let before1 = w.token1.balance_of(&a(1));
        let receipt = w
            .bank
            .sync(&netted, &qc, &mut w.token0, &mut w.token1)
            .unwrap();
        assert_eq!(receipt.payouts_applied, 1);
        assert_eq!(w.token1.balance_of(&a(1)), before1 + 95_000);
        // every hop's pool section landed, still one authenticated call
        for p in 0..3u32 {
            assert_eq!(
                w.bank.pool_reserves(&PoolId(p)),
                Some((1_000 + p as u128, 2_000 + p as u128))
            );
        }

        // settlement bytes: the netted form beats naive per-hop payouts
        // by (2·hops − 1) entries of 352 B each
        let hops = 3usize;
        let naive_extra_entries = 2 * hops - 1;
        let mut naive = netted.clone();
        for i in 0..naive_extra_entries {
            naive.payouts.push(PayoutEntry {
                user: a(2 + i as u64),
                amount0: 1,
                amount1: 1,
            });
        }
        let saved = naive.abi_payload().len() - netted.abi_payload().len();
        assert_eq!(
            saved,
            naive_extra_entries * SyncInput::abi_payout_entry_size()
        );
    }

    #[test]
    fn sync_applies_every_pool_section() {
        let mut w = setup();
        w.bank.create_pool(PoolId(1), &mut GasMeter::new());
        w.bank.create_pool(PoolId(2), &mut GasMeter::new());
        let mut input = empty_sync(&w, 1);
        input.pools = (0..3u32)
            .map(|p| PoolUpdate {
                pool: PoolId(p),
                reserve0: 100 + p as u128,
                reserve1: 200 + p as u128,
            })
            .collect();
        let qc = signed_sync(&w, &input);
        let receipt = w
            .bank
            .sync(&input, &qc, &mut w.token0, &mut w.token1)
            .unwrap();
        for p in 0..3u32 {
            assert_eq!(
                w.bank.pool_reserves(&PoolId(p)),
                Some((100 + p as u128, 200 + p as u128))
            );
        }
        // one packed-word update per section
        assert_eq!(
            receipt.meter.total_for("pool_balance.storage"),
            3 * gas::SSTORE_UPDATE_COLD
        );
    }

    #[test]
    fn sync_rejects_malformed_pool_sections() {
        let mut w = setup();
        let update = |p: u32| PoolUpdate {
            pool: PoolId(p),
            reserve0: 1,
            reserve1: 1,
        };
        // empty, duplicated and unsorted section lists all fail closed
        for pools in [
            vec![],
            vec![update(0), update(0)],
            vec![update(1), update(0)],
        ] {
            let mut input = empty_sync(&w, 1);
            input.pools = pools;
            input.payouts.push(PayoutEntry {
                user: a(1),
                amount0: 5,
                amount1: 5,
            });
            let qc = signed_sync(&w, &input);
            assert_rejected_untouched(&mut w, &input, &qc, TokenBankError::InvalidPoolSections);
        }
    }

    fn assert_digest_is_hash_of_payload(input: &SyncInput) {
        let payload = input.abi_payload();
        assert_eq!(input.abi_digest(), (H256::hash(&payload), payload.len()));
    }

    #[test]
    fn abi_digest_matches_payload_at_the_boundaries() {
        let w = setup();
        // no lists at all: 352 B, i.e. 2 whole Keccak rate blocks + 80 B
        let mut input = empty_sync(&w, 1);
        input.pools.clear();
        assert_eq!(input.abi_digest().1, 352);
        assert_digest_is_hash_of_payload(&input);
        // 448 + 352·10 + 416·148 = 65 536 B: exactly one staging chunk;
        // one entry less or more lands on either side of the flush
        for (payouts, positions) in [(10, 148), (10, 147), (9, 148), (11, 148), (400, 0)] {
            let mut input = empty_sync(&w, 7);
            input.payouts = (0..payouts)
                .map(|i| PayoutEntry {
                    user: a(i),
                    amount0: i as u128,
                    amount1: u128::MAX - i as u128,
                })
                .collect();
            input.positions = (0..positions).map(position).collect();
            assert_digest_is_hash_of_payload(&input);
            if (payouts, positions) == (10, 148) {
                assert_eq!(input.abi_digest().1, 64 * 1024);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Listing only the users that moved settles exactly like Fig. 4's
        /// full list (every depositor, the unmoved ones at the balance
        /// they already hold), for less gas: `users` are (deposit, second
        /// deposit in another bucket?, new balance when moved).
        #[test]
        fn dirty_list_settles_like_the_full_list(
            layout in 0u8..3,
            users in proptest::collection::vec(
                ((0u128..1000, 0u128..1000), any::<bool>(), (any::<bool>(), 0u128..2000, 0u128..2000)),
                1..8,
            ),
        ) {
            // epoch 2 syncs: bucket 2 always, plus (by layout) nothing,
            // an unsynced bucket 1, or fresh deposits already in bucket 3
            let mut w = setup();
            let mut dirty = empty_sync(&w, 2);
            let mut full = empty_sync(&w, 2);
            let mut unlisted = Vec::new();
            for (i, ((d0, d1), second, (moved, n0, n1))) in users.into_iter().enumerate() {
                let user = a(10 + i as u64);
                w.token0.mint(user, 10_000);
                w.token1.mint(user, 10_000);
                let mut lock = |epoch| {
                    w.bank.relock(user, d0, d1, epoch, &mut w.token0, &mut w.token1).unwrap()
                };
                lock(2);
                let (mut covered, mut next) = ((d0, d1), (d0, d1));
                match (layout, second) {
                    (1, true) => {
                        lock(1);
                        covered = (2 * d0, 2 * d1);
                        next = covered;
                    }
                    (2, true) => {
                        lock(3);
                        next = (2 * d0, 2 * d1);
                    }
                    _ => {}
                }
                let entry = |(amount0, amount1)| PayoutEntry { user, amount0, amount1 };
                if moved {
                    dirty.payouts.push(entry((n0, n1)));
                    full.payouts.push(entry((n0, n1)));
                } else {
                    full.payouts.push(entry(covered));
                    unlisted.push((user, next));
                }
            }
            let settle = |w: &World, input: &SyncInput| {
                let mut w = w.clone();
                let qc = signed_sync(&w, input);
                let receipt = w.bank.sync(input, &qc, &mut w.token0, &mut w.token1).unwrap();
                for p in &input.payouts {
                    w.bank
                        .relock(p.user, p.amount0, p.amount1, 3, &mut w.token0, &mut w.token1)
                        .unwrap();
                }
                (w, receipt.meter.total())
            };
            let (by_dirty, dirty_gas) = settle(&w, &dirty);
            let (by_full, full_gas) = settle(&w, &full);
            prop_assert!(by_dirty.bank == by_full.bank, "bank state diverges");
            prop_assert!(by_dirty.token0 == by_full.token0 && by_dirty.token1 == by_full.token1);
            prop_assert!(dirty_gas <= full_gas);
            for (user, next) in unlisted {
                prop_assert_eq!(by_dirty.bank.deposit_of(&user, 3), next);
            }
        }

        #[test]
        fn abi_digest_is_hash_and_len_of_abi_payload(
            epoch in any::<u64>(),
            payouts in proptest::collection::vec((any::<u64>(), any::<u128>(), any::<u128>()), 0..220),
            positions in proptest::collection::vec((any::<u64>(), any::<u128>(), any::<i32>(), any::<bool>()), 0..180),
            pools in proptest::collection::vec((any::<u32>(), any::<u128>(), any::<u128>()), 0..4),
        ) {
            let input = SyncInput {
                epoch,
                payouts: payouts
                    .into_iter()
                    .map(|(u, amount0, amount1)| PayoutEntry { user: a(u), amount0, amount1 })
                    .collect(),
                positions: positions
                    .into_iter()
                    .map(|(i, liquidity, tick_lower, deleted)| PositionEntry {
                        liquidity,
                        tick_lower,
                        deleted,
                        ..position(i)
                    })
                    .collect(),
                pools: pools
                    .into_iter()
                    .map(|(p, reserve0, reserve1)| PoolUpdate { pool: PoolId(p), reserve0, reserve1 })
                    .collect(),
                next_vk: run_ceremony(DkgConfig::for_faults(1), epoch).group_public_key,
            };
            assert_digest_is_hash_of_payload(&input);
        }
    }
}
