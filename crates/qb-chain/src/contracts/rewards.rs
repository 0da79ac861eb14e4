//! The reward pool: worker-bee bounties, stakes, slashing and popularity
//! rewards — the "fair incentive scheme for all stakeholders" the paper lists
//! as research challenge (I).

use crate::account::{AccountId, Accounts, TREASURY};
use crate::tx::Event;
use qb_common::{QbError, QbResult};
use std::collections::HashMap;

/// Escrow account holding worker-bee stakes.
pub const STAKE_VAULT: AccountId = AccountId(2);

/// Bounty per accepted indexing claim.
pub const INDEX_REWARD: u64 = 50;

/// Bounty per accepted ranking claim.
pub const RANK_REWARD: u64 = 50;

/// Honey paid per popularity payout to a qualifying page's creator.
pub const POPULARITY_REWARD: u64 = 500;

/// PageRank (parts per million) a page must reach to earn its creator a
/// popularity payout — "reward those whose websites are popular".
pub const POPULARITY_THRESHOLD_PPM: u64 = 2_000;

/// Maximum number of bees paid per (round, block) ranking task.
pub const MAX_RANK_CLAIMS: usize = 3;

/// State of the reward pool contract.
#[derive(Debug, Clone)]
pub struct RewardPool {
    /// Maximum number of bees paid per (page, version) indexing task — the
    /// verification quorum size: redundant computation is what lets the
    /// system detect collusion, so redundancy is paid for.
    pub max_index_claims: usize,
    index_claims: HashMap<(String, u64), Vec<AccountId>>,
    rank_claims: HashMap<(u64, u64), Vec<AccountId>>,
    stakes: HashMap<AccountId, u64>,
}

impl RewardPool {
    /// Create an empty reward pool that pays three indexing claims per task.
    #[allow(clippy::new_without_default)]
    pub fn new() -> RewardPool {
        RewardPool {
            max_index_claims: 3,
            index_claims: HashMap::new(),
            rank_claims: HashMap::new(),
            stakes: HashMap::new(),
        }
    }

    /// Stake currently deposited by a bee.
    pub fn stake_of(&self, bee: AccountId) -> u64 {
        self.stakes.get(&bee).copied().unwrap_or(0)
    }

    /// Handle `ClaimIndexReward`.
    pub fn claim_index(
        &mut self,
        accounts: &mut Accounts,
        bee: AccountId,
        page_name: &str,
        page_version: u64,
    ) -> QbResult<Vec<Event>> {
        let key = (page_name.to_string(), page_version);
        let claimants = self.index_claims.entry(key).or_default();
        if claimants.contains(&bee) {
            return Err(QbError::ContractRevert(format!(
                "bee {} already claimed the indexing bounty for {page_name} v{page_version}",
                bee.0
            )));
        }
        if claimants.len() >= self.max_index_claims {
            return Err(QbError::ContractRevert(format!(
                "indexing bounty for {page_name} v{page_version} is exhausted"
            )));
        }
        if accounts.balance(TREASURY) < INDEX_REWARD {
            return Err(QbError::ContractRevert("treasury exhausted".into()));
        }
        accounts.transfer(TREASURY, bee, INDEX_REWARD)?;
        claimants.push(bee);
        Ok(vec![Event::IndexRewardPaid {
            bee,
            page_name: page_name.to_string(),
            page_version,
            amount: INDEX_REWARD,
        }])
    }

    /// Handle `ClaimRankReward`.
    pub fn claim_rank(
        &mut self,
        accounts: &mut Accounts,
        bee: AccountId,
        round: u64,
        block_id: u64,
    ) -> QbResult<Vec<Event>> {
        let claimants = self.rank_claims.entry((round, block_id)).or_default();
        if claimants.contains(&bee) {
            return Err(QbError::ContractRevert(format!(
                "bee {} already claimed the ranking bounty for round {round} block {block_id}",
                bee.0
            )));
        }
        if claimants.len() >= MAX_RANK_CLAIMS {
            return Err(QbError::ContractRevert(format!(
                "ranking bounty for round {round} block {block_id} is exhausted"
            )));
        }
        if accounts.balance(TREASURY) < RANK_REWARD {
            return Err(QbError::ContractRevert("treasury exhausted".into()));
        }
        accounts.transfer(TREASURY, bee, RANK_REWARD)?;
        claimants.push(bee);
        Ok(vec![Event::RankRewardPaid {
            bee,
            round,
            block_id,
            amount: RANK_REWARD,
        }])
    }

    /// Handle `DepositStake`.
    pub fn deposit_stake(
        &mut self,
        accounts: &mut Accounts,
        bee: AccountId,
        amount: u64,
    ) -> QbResult<Vec<Event>> {
        if amount == 0 {
            return Err(QbError::ContractRevert("stake must be positive".into()));
        }
        accounts.transfer(bee, STAKE_VAULT, amount)?;
        *self.stakes.entry(bee).or_insert(0) += amount;
        Ok(vec![Event::StakeDeposited { bee, amount }])
    }

    /// Handle `SlashStake`: confiscate up to `amount` of the offender's stake
    /// back to the treasury.
    pub fn slash(
        &mut self,
        accounts: &mut Accounts,
        offender: AccountId,
        amount: u64,
    ) -> QbResult<Vec<Event>> {
        let Some(staked) = self.stakes.get_mut(&offender).filter(|s| **s > 0) else {
            return Err(QbError::ContractRevert(format!(
                "account {} has no stake to slash",
                offender.0
            )));
        };
        let slashed = amount.min(*staked);
        accounts.transfer(STAKE_VAULT, TREASURY, slashed)?;
        *staked -= slashed;
        Ok(vec![Event::StakeSlashed {
            offender,
            amount: slashed,
        }])
    }

    /// Handle `PayPopularityRewards`: pay creators whose pages exceed the
    /// rank threshold.
    pub fn pay_popularity(
        &mut self,
        accounts: &mut Accounts,
        pages: &[(AccountId, String, u64)],
    ) -> QbResult<Vec<Event>> {
        let mut events = Vec::new();
        for (creator, name, rank_ppm) in pages {
            if *rank_ppm < POPULARITY_THRESHOLD_PPM {
                continue;
            }
            if accounts.balance(TREASURY) < POPULARITY_REWARD {
                break;
            }
            accounts.transfer(TREASURY, *creator, POPULARITY_REWARD)?;
            events.push(Event::PopularityRewardPaid {
                creator: *creator,
                page_name: name.clone(),
                rank_ppm: *rank_ppm,
                amount: POPULARITY_REWARD,
            });
        }
        Ok(events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (RewardPool, Accounts) {
        (RewardPool::new(), Accounts::with_genesis_supply(10_000))
    }

    #[test]
    fn index_claim_pays_once_per_bee() {
        let (mut pool, mut accounts) = setup();
        pool.claim_index(&mut accounts, AccountId(10), "p", 1)
            .unwrap();
        assert_eq!(accounts.balance(AccountId(10)), INDEX_REWARD);
        let err = pool
            .claim_index(&mut accounts, AccountId(10), "p", 1)
            .unwrap_err();
        assert!(matches!(err, QbError::ContractRevert(_)));
        // A different version is a different task.
        pool.claim_index(&mut accounts, AccountId(10), "p", 2)
            .unwrap();
        assert_eq!(accounts.balance(AccountId(10)), 2 * INDEX_REWARD);
    }

    #[test]
    fn index_claims_capped_at_quorum_size() {
        let (mut pool, mut accounts) = setup();
        pool.max_index_claims = 2;
        pool.claim_index(&mut accounts, AccountId(1), "p", 1)
            .unwrap();
        pool.claim_index(&mut accounts, AccountId(2), "p", 1)
            .unwrap();
        let err = pool
            .claim_index(&mut accounts, AccountId(3), "p", 1)
            .unwrap_err();
        assert!(matches!(err, QbError::ContractRevert(_)));
    }

    #[test]
    fn rank_claim_behaves_like_index_claim() {
        let (mut pool, mut accounts) = setup();
        pool.claim_rank(&mut accounts, AccountId(7), 1, 3).unwrap();
        assert_eq!(accounts.balance(AccountId(7)), RANK_REWARD);
        assert!(pool.claim_rank(&mut accounts, AccountId(7), 1, 3).is_err());
        assert!(pool.claim_rank(&mut accounts, AccountId(7), 2, 3).is_ok());
    }

    #[test]
    fn stake_and_slash_round_trip() {
        let (mut pool, mut accounts) = setup();
        accounts.transfer(TREASURY, AccountId(5), 500).unwrap();
        pool.deposit_stake(&mut accounts, AccountId(5), 300)
            .unwrap();
        assert_eq!(pool.stake_of(AccountId(5)), 300);
        assert_eq!(accounts.balance(AccountId(5)), 200);
        assert_eq!(accounts.balance(STAKE_VAULT), 300);
        // Slashing more than the stake only takes what exists.
        pool.slash(&mut accounts, AccountId(5), 1_000).unwrap();
        assert_eq!(pool.stake_of(AccountId(5)), 0);
        assert_eq!(accounts.balance(STAKE_VAULT), 0);
        assert!(pool.slash(&mut accounts, AccountId(5), 10).is_err());
        assert_eq!(accounts.total_supply(), 10_000);
    }

    #[test]
    fn zero_stake_rejected() {
        let (mut pool, mut accounts) = setup();
        assert!(pool.deposit_stake(&mut accounts, AccountId(5), 0).is_err());
    }

    #[test]
    fn popularity_rewards_respect_threshold() {
        let (mut pool, mut accounts) = setup();
        let pages = vec![
            (
                AccountId(20),
                "popular".to_string(),
                5 * POPULARITY_THRESHOLD_PPM,
            ),
            (AccountId(21), "obscure".to_string(), 10u64),
            (AccountId(22), "mid".to_string(), POPULARITY_THRESHOLD_PPM),
        ];
        let events = pool.pay_popularity(&mut accounts, &pages).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(accounts.balance(AccountId(20)), POPULARITY_REWARD);
        assert_eq!(accounts.balance(AccountId(21)), 0);
        assert_eq!(accounts.balance(AccountId(22)), POPULARITY_REWARD);
    }

    #[test]
    fn treasury_exhaustion_stops_payouts() {
        let mut pool = RewardPool::new();
        let mut accounts = Accounts::with_genesis_supply(POPULARITY_REWARD + INDEX_REWARD);
        let pages: Vec<(AccountId, String, u64)> = (0..5)
            .map(|i| (AccountId(30 + i), format!("p{i}"), 999_999))
            .collect();
        let events = pool.pay_popularity(&mut accounts, &pages).unwrap();
        assert_eq!(events.len(), 1, "only one payout fits in the treasury");
        assert!(pool
            .claim_index(&mut accounts, AccountId(40), "p", 1)
            .is_ok());
        assert!(pool
            .claim_index(&mut accounts, AccountId(41), "p", 1)
            .is_err());
    }
}
