//! A standard ERC20 token contract with gas metering — the token pair of
//! the paper's single-pool experiments is two instances of this contract.

use crate::gas::{self, GasMeter};
use ammboost_crypto::{Address, DigestMap};
use serde::{Deserialize, Serialize};

/// Errors from ERC20 operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Erc20Error {
    /// Sender balance below the transfer amount.
    InsufficientBalance,
    /// Spender allowance below the transfer amount.
    InsufficientAllowance,
}

impl std::fmt::Display for Erc20Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Erc20Error::InsufficientBalance => write!(f, "insufficient balance"),
            Erc20Error::InsufficientAllowance => write!(f, "insufficient allowance"),
        }
    }
}

impl std::error::Error for Erc20Error {}

/// An ERC20 token ledger.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Erc20 {
    /// Token symbol (for display only).
    pub symbol: String,
    balances: DigestMap<Address, u128>,
    allowances: DigestMap<(Address, Address), u128>,
    total_supply: u128,
}

impl Erc20 {
    /// Deploys a token with the given symbol.
    pub fn new(symbol: &str) -> Erc20 {
        Erc20 {
            symbol: symbol.to_string(),
            ..Erc20::default()
        }
    }

    /// Mints new supply to `to` (test/bootstrap faucet, not metered).
    pub fn mint(&mut self, to: Address, amount: u128) {
        *self.balances.entry(to).or_insert(0) += amount;
        self.total_supply += amount;
    }

    /// Balance of an account.
    pub fn balance_of(&self, who: &Address) -> u128 {
        self.balances.get(who).copied().unwrap_or(0)
    }

    /// Remaining allowance from `owner` to `spender`.
    fn allowance(&self, owner: &Address, spender: &Address) -> u128 {
        self.allowances
            .get(&(*owner, *spender))
            .copied()
            .unwrap_or(0)
    }

    /// Total minted supply.
    pub fn total_supply(&self) -> u128 {
        self.total_supply
    }

    /// `approve(spender, amount)` — one storage write plus an Approval log.
    pub fn approve(
        &mut self,
        owner: Address,
        spender: Address,
        amount: u128,
        meter: &mut GasMeter,
    ) {
        let slot = self.allowances.entry((owner, spender)).or_insert(0);
        let was_zero = *slot == 0;
        *slot = amount;
        meter.charge(
            "erc20.approve.sstore",
            if was_zero && amount > 0 {
                gas::SSTORE_NEW_WORD
            } else {
                gas::SSTORE_UPDATE_COLD
            },
        );
        meter.charge(
            "erc20.approve.log",
            gas::LOG_BASE + 2 * gas::LOG_PER_TOPIC + 32 * gas::LOG_PER_BYTE,
        );
    }

    /// `transfer(to, amount)`.
    ///
    /// # Errors
    /// Fails when `from` lacks balance; no state is modified and no gas
    /// items beyond the reads already performed are charged.
    pub fn transfer(
        &mut self,
        from: Address,
        to: Address,
        amount: u128,
        meter: &mut GasMeter,
    ) -> Result<(), Erc20Error> {
        meter.charge("erc20.transfer.sload_from", gas::SLOAD_COLD);
        let from_balance = self.balance_of(&from);
        if from_balance < amount {
            return Err(Erc20Error::InsufficientBalance);
        }
        meter.charge("erc20.transfer.sload_to", gas::SLOAD_COLD);
        let to_balance = self.balance_of(&to);

        self.balances.insert(from, from_balance - amount);
        meter.charge("erc20.transfer.sstore_from", gas::SSTORE_UPDATE_COLD);
        self.balances.insert(to, to_balance + amount);
        meter.charge(
            "erc20.transfer.sstore_to",
            if to_balance == 0 {
                gas::SSTORE_NEW_WORD
            } else {
                gas::SSTORE_UPDATE_COLD
            },
        );
        meter.charge(
            "erc20.transfer.log",
            gas::LOG_BASE + 2 * gas::LOG_PER_TOPIC + 32 * gas::LOG_PER_BYTE,
        );
        Ok(())
    }

    /// `transferFrom(owner, to, amount)` by `spender`, consuming allowance.
    ///
    /// # Errors
    /// Fails on insufficient allowance or balance.
    pub fn transfer_from(
        &mut self,
        spender: Address,
        owner: Address,
        to: Address,
        amount: u128,
        meter: &mut GasMeter,
    ) -> Result<(), Erc20Error> {
        meter.charge("erc20.transfer_from.sload_allowance", gas::SLOAD_COLD);
        let allowed = self.allowance(&owner, &spender);
        if allowed < amount {
            return Err(Erc20Error::InsufficientAllowance);
        }
        self.allowances.insert((owner, spender), allowed - amount);
        meter.charge(
            "erc20.transfer_from.sstore_allowance",
            gas::SSTORE_UPDATE_WARM,
        );
        self.transfer(owner, to, amount, meter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(i: u64) -> Address {
        Address::from_index(i)
    }

    #[test]
    fn mint_and_balances() {
        let mut t = Erc20::new("TKA");
        t.mint(a(1), 1000);
        assert_eq!(t.balance_of(&a(1)), 1000);
        assert_eq!(t.balance_of(&a(2)), 0);
        assert_eq!(t.total_supply(), 1000);
    }

    #[test]
    fn transfer_moves_and_meters() {
        let mut t = Erc20::new("TKA");
        t.mint(a(1), 1000);
        let mut m = GasMeter::new();
        t.transfer(a(1), a(2), 400, &mut m).unwrap();
        assert_eq!(t.balance_of(&a(1)), 600);
        assert_eq!(t.balance_of(&a(2)), 400);
        // fresh recipient balance: new-slot cost present
        assert!(m.total_for("erc20.transfer.sstore_to") == gas::SSTORE_NEW_WORD);
        assert!(m.total() > 30_000);
    }

    #[test]
    fn transfer_to_existing_balance_is_cheaper() {
        let mut t = Erc20::new("TKA");
        t.mint(a(1), 1000);
        t.mint(a(2), 1);
        let mut m = GasMeter::new();
        t.transfer(a(1), a(2), 400, &mut m).unwrap();
        assert_eq!(
            m.total_for("erc20.transfer.sstore_to"),
            gas::SSTORE_UPDATE_COLD
        );
    }

    #[test]
    fn insufficient_balance_rejected() {
        let mut t = Erc20::new("TKA");
        t.mint(a(1), 10);
        let mut m = GasMeter::new();
        assert_eq!(
            t.transfer(a(1), a(2), 11, &mut m),
            Err(Erc20Error::InsufficientBalance)
        );
        assert_eq!(t.balance_of(&a(1)), 10);
    }

    #[test]
    fn transfer_from_respects_allowance() {
        let mut t = Erc20::new("TKA");
        t.mint(a(1), 100);
        let mut m = GasMeter::new();
        t.approve(a(1), a(9), 60, &mut m);
        assert!(t.transfer_from(a(9), a(1), a(2), 61, &mut m).is_err());
        t.transfer_from(a(9), a(1), a(2), 60, &mut m).unwrap();
        assert_eq!(t.balance_of(&a(2)), 60);
        assert_eq!(t.allowance(&a(1), &a(9)), 0);
    }

    #[test]
    fn approve_gas_depends_on_slot_freshness() {
        let mut t = Erc20::new("TKA");
        let mut m1 = GasMeter::new();
        t.approve(a(1), a(9), 10, &mut m1);
        let mut m2 = GasMeter::new();
        t.approve(a(1), a(9), 20, &mut m2);
        assert!(m1.total() > m2.total());
    }
}
