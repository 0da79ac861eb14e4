//! Accounts and honey balances.

use qb_common::{QbError, QbResult};
use std::collections::HashMap;

/// Account identifier. The simulation maps content creators, worker bees and
/// advertisers to distinct account ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AccountId(pub u64);

/// The treasury account: holds the genesis honey supply from which all
/// protocol rewards are paid.
pub const TREASURY: AccountId = AccountId(0);

/// One account's state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Account {
    /// Balance in nectar (the smallest honey unit).
    pub balance: u64,
    /// Next expected transaction nonce.
    pub nonce: u64,
}

/// The account table.
#[derive(Debug, Clone, Default)]
pub struct Accounts {
    accounts: HashMap<AccountId, Account>,
}

impl Accounts {
    /// Create an empty table.
    pub fn new() -> Accounts {
        Accounts::default()
    }

    /// Create a table with the full `supply` minted to the treasury.
    pub fn with_genesis_supply(supply: u64) -> Accounts {
        let mut a = Accounts::new();
        a.accounts.insert(
            TREASURY,
            Account {
                balance: supply,
                nonce: 0,
            },
        );
        a
    }

    /// Balance of an account (0 when unknown).
    pub fn balance(&self, id: AccountId) -> u64 {
        self.accounts.get(&id).map(|a| a.balance).unwrap_or(0)
    }

    /// Next expected nonce of an account (0 when unknown).
    pub fn nonce(&self, id: AccountId) -> u64 {
        self.accounts.get(&id).map(|a| a.nonce).unwrap_or(0)
    }

    /// Bump the nonce after a transaction from `id` was processed.
    pub fn bump_nonce(&mut self, id: AccountId) {
        self.accounts.entry(id).or_default().nonce += 1;
    }

    /// Move `amount` nectar from `from` to `to`.
    pub fn transfer(&mut self, from: AccountId, to: AccountId, amount: u64) -> QbResult<()> {
        if amount == 0 {
            return Ok(());
        }
        let from_balance = self.balance(from);
        if from_balance < amount {
            return Err(QbError::TxRejected(format!(
                "insufficient honey: account {} has {} nectar, needs {}",
                from.0, from_balance, amount
            )));
        }
        self.accounts.entry(from).or_default().balance -= amount;
        self.accounts.entry(to).or_default().balance += amount;
        Ok(())
    }

    /// Total honey across all accounts (must stay equal to the genesis supply).
    pub fn total_supply(&self) -> u64 {
        self.accounts.values().map(|a| a.balance).sum()
    }

    /// Number of accounts that ever held a balance or sent a transaction.
    pub fn len(&self) -> usize {
        self.accounts.len()
    }

    /// True when no accounts exist.
    pub fn is_empty(&self) -> bool {
        self.accounts.is_empty()
    }

    /// Iterate over `(account, balance)` pairs (used by the fairness
    /// experiment to compute Gini coefficients).
    pub fn balances(&self) -> impl Iterator<Item = (AccountId, u64)> + '_ {
        self.accounts.iter().map(|(id, a)| (*id, a.balance))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn genesis_supply_goes_to_treasury() {
        let a = Accounts::with_genesis_supply(1_000_000);
        assert_eq!(a.balance(TREASURY), 1_000_000);
        assert_eq!(a.total_supply(), 1_000_000);
        assert_eq!(a.balance(AccountId(5)), 0);
    }

    #[test]
    fn transfer_moves_funds() {
        let mut a = Accounts::with_genesis_supply(100);
        a.transfer(TREASURY, AccountId(1), 30).unwrap();
        assert_eq!(a.balance(TREASURY), 70);
        assert_eq!(a.balance(AccountId(1)), 30);
        assert_eq!(a.total_supply(), 100);
    }

    #[test]
    fn overdraft_is_rejected() {
        let mut a = Accounts::with_genesis_supply(10);
        let err = a.transfer(AccountId(3), AccountId(4), 1).unwrap_err();
        assert!(matches!(err, QbError::TxRejected(_)));
        let err = a.transfer(TREASURY, AccountId(4), 11).unwrap_err();
        assert!(matches!(err, QbError::TxRejected(_)));
        assert_eq!(a.total_supply(), 10);
    }

    #[test]
    fn zero_transfer_is_a_noop() {
        let mut a = Accounts::new();
        a.transfer(AccountId(1), AccountId(2), 0).unwrap();
        assert_eq!(a.total_supply(), 0);
    }

    #[test]
    fn nonce_tracking() {
        let mut a = Accounts::new();
        assert_eq!(a.nonce(AccountId(9)), 0);
        a.bump_nonce(AccountId(9));
        a.bump_nonce(AccountId(9));
        assert_eq!(a.nonce(AccountId(9)), 2);
    }

    proptest! {
        #[test]
        fn supply_is_conserved_by_random_transfers(
            transfers in proptest::collection::vec((0u64..16, 0u64..16, 0u64..5000), 0..200)
        ) {
            let supply = 1_000_000u64;
            let mut a = Accounts::with_genesis_supply(supply);
            // Seed a few accounts.
            for i in 1..16 {
                a.transfer(TREASURY, AccountId(i), 10_000).unwrap();
            }
            for (from, to, amount) in transfers {
                let _ = a.transfer(AccountId(from), AccountId(to), amount);
            }
            prop_assert_eq!(a.total_supply(), supply);
        }
    }
}
