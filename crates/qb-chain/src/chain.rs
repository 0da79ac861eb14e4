//! The ledger: mempool, proof-of-authority sealing, state and the event log.

use crate::account::{AccountId, Accounts, TREASURY};
use crate::block::{Block, BlockHeader};
use crate::contracts::ads::AdMarket;
use crate::contracts::publish::PublishRegistry;
use crate::contracts::rewards::RewardPool;
use crate::tx::{Call, Event, Transaction};
use qb_common::{Hash256, QbError, QbResult, SimInstant};
use std::collections::VecDeque;

/// Honey minted to the treasury at genesis (nectar).
pub const GENESIS_SUPPLY: u64 = 1_000_000_000;

/// Round-robin validator set (proof of authority).
pub const VALIDATORS: [AccountId; 3] = [AccountId(900), AccountId(901), AccountId(902)];

/// Maximum transactions sealed per block.
pub const MAX_TXS_PER_BLOCK: usize = 10_000;

/// Aggregate chain statistics used by the experiment harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChainStats {
    /// Current height (number of sealed blocks).
    pub height: u64,
    /// Transactions applied successfully.
    pub ok_txs: u64,
    /// Transactions that reverted or were rejected.
    pub failed_txs: u64,
    /// Total honey across all accounts.
    pub total_supply: u64,
}

/// The QueenBee blockchain.
#[derive(Debug, Clone)]
pub struct Blockchain {
    accounts: Accounts,
    publish: PublishRegistry,
    ads: AdMarket,
    rewards: RewardPool,
    blocks: Vec<Block>,
    mempool: VecDeque<Transaction>,
    events: Vec<(u64, Event)>,
    ok_txs: u64,
    failed_txs: u64,
}

impl Blockchain {
    /// Create a chain with the genesis allocation and empty contracts.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Blockchain {
        Blockchain {
            accounts: Accounts::with_genesis_supply(GENESIS_SUPPLY),
            publish: PublishRegistry::default(),
            ads: AdMarket::new(),
            rewards: RewardPool::new(),
            blocks: Vec::new(),
            mempool: VecDeque::new(),
            events: Vec::new(),
            ok_txs: 0,
            failed_txs: 0,
        }
    }

    /// Current chain height.
    pub fn height(&self) -> u64 {
        self.blocks.len() as u64
    }

    /// Honey balance of an account.
    pub fn balance(&self, id: AccountId) -> u64 {
        self.accounts.balance(id)
    }

    /// Fund an account from the treasury outside of a transaction. Used to
    /// set up simulations (give advertisers budgets, bees starting capital);
    /// conservation still holds because it is a transfer, not a mint.
    pub fn fund_from_treasury(&mut self, to: AccountId, amount: u64) -> QbResult<()> {
        self.accounts.transfer(TREASURY, to, amount)
    }

    /// The account table (read-only).
    pub fn accounts(&self) -> &Accounts {
        &self.accounts
    }

    /// The publish registry (read-only).
    pub fn publish_registry(&self) -> &PublishRegistry {
        &self.publish
    }

    /// The ad market (read-only).
    pub fn ad_market(&self) -> &AdMarket {
        &self.ads
    }

    /// The reward pool (read-only).
    pub fn reward_pool(&self) -> &RewardPool {
        &self.rewards
    }

    /// Mutable access to the reward pool configuration (quorum sizes).
    pub fn reward_pool_mut(&mut self) -> &mut RewardPool {
        &mut self.rewards
    }

    /// Next nonce to use for an account, accounting for transactions already
    /// queued in the mempool.
    pub fn next_nonce(&self, from: AccountId) -> u64 {
        let pending = self.mempool.iter().filter(|t| t.from == from).count() as u64;
        self.accounts.nonce(from) + pending
    }

    /// Build a transaction with the correct next nonce and queue it.
    pub fn submit_call(&mut self, from: AccountId, call: Call) {
        let tx = Transaction::new(from, self.next_nonce(from), call);
        self.mempool.push_back(tx);
    }

    /// Seal the next block, applying queued transactions. Returns the header
    /// of the sealed block (empty blocks are allowed).
    pub fn seal_block(&mut self, now: SimInstant) -> BlockHeader {
        let take = self.mempool.len().min(MAX_TXS_PER_BLOCK);
        let txs: Vec<Transaction> = self.mempool.drain(..take).collect();
        let height = self.height();
        let parent = self
            .blocks
            .last()
            .map(|b| b.header.hash())
            .unwrap_or(Hash256::ZERO);
        let sealer = VALIDATORS[(height as usize) % VALIDATORS.len()];

        // A transaction's outcome is counted, not kept: its events go to
        // the log, and a rejected or reverted call leaves only its count
        // (a revert still spends the sender's nonce).
        for tx in &txs {
            let events = if tx.nonce == self.accounts.nonce(tx.from) {
                self.accounts.bump_nonce(tx.from);
                self.apply_call(tx.from, &tx.call).ok()
            } else {
                None
            };
            match events {
                Some(events) => {
                    self.ok_txs += 1;
                    self.events
                        .extend(events.into_iter().map(|ev| (height, ev)));
                }
                None => self.failed_txs += 1,
            }
        }

        let header = BlockHeader {
            height,
            parent,
            sealer,
            sealed_at: now,
            tx_count: txs.len() as u32,
            tx_digest: Block::digest_transactions(&txs),
        };
        self.blocks.push(Block {
            header: header.clone(),
            transactions: txs,
        });
        header
    }

    fn apply_call(&mut self, from: AccountId, call: &Call) -> QbResult<Vec<Event>> {
        match call {
            Call::Transfer { to, amount } => {
                self.accounts.transfer(from, *to, *amount)?;
                Ok(vec![Event::Transferred {
                    from,
                    to: *to,
                    amount: *amount,
                }])
            }
            Call::PublishPage {
                name,
                cid,
                out_links,
            } => self
                .publish
                .publish(&mut self.accounts, from, name, *cid, out_links.clone()),
            Call::ClaimIndexReward {
                page_name,
                page_version,
            } => self
                .rewards
                .claim_index(&mut self.accounts, from, page_name, *page_version),
            Call::ClaimRankReward { round, block_id } => {
                self.rewards
                    .claim_rank(&mut self.accounts, from, *round, *block_id)
            }
            Call::DepositStake { amount } => {
                self.rewards
                    .deposit_stake(&mut self.accounts, from, *amount)
            }
            Call::SlashStake { offender, amount } => {
                self.rewards.slash(&mut self.accounts, *offender, *amount)
            }
            Call::CreateAdCampaign {
                keywords,
                bid_per_click,
                budget,
            } => {
                let (_id, events) = self.ads.create_campaign(
                    &mut self.accounts,
                    from,
                    keywords.clone(),
                    *bid_per_click,
                    *budget,
                )?;
                Ok(events)
            }
            Call::RecordAdClick {
                ad,
                page_creator,
                serving_bee,
            } => self
                .ads
                .record_click(&mut self.accounts, *ad, *page_creator, *serving_bee),
            Call::PayPopularityRewards { pages } => {
                self.rewards.pay_popularity(&mut self.accounts, pages)
            }
        }
    }

    /// The full event log as `(block height, event)` pairs. Consumers keep a
    /// cursor (index into this log) and read everything after it — this is
    /// how worker bees learn about new publishes without crawling.
    pub fn events(&self) -> &[(u64, Event)] {
        &self.events
    }

    /// Chain statistics.
    pub fn stats(&self) -> ChainStats {
        ChainStats {
            height: self.height(),
            ok_txs: self.ok_txs,
            failed_txs: self.failed_txs,
            total_supply: self.accounts.total_supply(),
        }
    }

    /// Verify header linkage of the whole chain (used by tests and the chain
    /// micro-benchmark to confirm integrity after long runs).
    pub fn verify_integrity(&self) -> QbResult<()> {
        let mut expected_parent = Hash256::ZERO;
        for (i, block) in self.blocks.iter().enumerate() {
            if block.header.height != i as u64 {
                return Err(QbError::Config(format!(
                    "block {i} has height {}",
                    block.header.height
                )));
            }
            if block.header.parent != expected_parent {
                return Err(QbError::Config(format!("block {i} parent hash mismatch")));
            }
            if block.header.tx_digest != Block::digest_transactions(&block.transactions) {
                return Err(QbError::Config(format!("block {i} tx digest mismatch")));
            }
            expected_parent = block.header.hash();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PUBLISH_REWARD;
    use proptest::prelude::*;
    use qb_common::Cid;

    fn chain() -> Blockchain {
        Blockchain::new()
    }

    #[test]
    fn publish_via_transaction_pays_reward_and_emits_event() {
        let mut c = chain();
        let creator = AccountId(100);
        c.submit_call(
            creator,
            Call::PublishPage {
                name: "dweb/home".into(),
                cid: Cid::for_data(b"v1"),
                out_links: vec!["dweb/docs".into()],
            },
        );
        c.seal_block(SimInstant::ZERO);
        assert_eq!(c.height(), 1);
        assert_eq!(c.balance(creator), PUBLISH_REWARD);
        assert_eq!(c.publish_registry().get("dweb/home").unwrap().version, 1);
        assert!(c
            .events()
            .iter()
            .any(|(_, e)| matches!(e, Event::PagePublished { name, .. } if name == "dweb/home")));
        assert_eq!(c.stats().ok_txs, 1);
    }

    #[test]
    fn a_sealed_batch_logs_each_event_once_and_counts_each_outcome() {
        let mut c = chain();
        let publish = |name: &str, out_links: Vec<String>| Call::PublishPage {
            name: name.into(),
            cid: Cid::for_data(name.as_bytes()),
            out_links,
        };
        c.submit_call(AccountId(1), publish("a", vec!["b".into()]));
        c.submit_call(AccountId(2), publish("b", vec![]));
        // A name owned by another account reverts; a replayed nonce is
        // rejected; a transfer of the reward just paid goes through.
        c.submit_call(AccountId(3), publish("a", vec![]));
        c.mempool
            .push_back(Transaction::new(AccountId(2), 0, publish("c", vec![])));
        c.submit_call(
            AccountId(1),
            Call::Transfer {
                to: AccountId(3),
                amount: 10,
            },
        );
        c.seal_block(SimInstant::ZERO);

        let published = |creator: u64, name: &str| {
            let creator = AccountId(creator);
            let reward = Event::PublishRewardPaid {
                creator,
                amount: PUBLISH_REWARD,
            };
            let cid = Cid::for_data(name.as_bytes());
            let name = name.to_string();
            [
                Event::PagePublished {
                    creator,
                    name,
                    cid,
                    version: 1,
                },
                reward,
            ]
        };
        let transfer = Event::Transferred {
            from: AccountId(1),
            to: AccountId(3),
            amount: 10,
        };
        let expected: Vec<(u64, Event)> = published(1, "a")
            .into_iter()
            .chain(published(2, "b"))
            .chain([transfer])
            .map(|event| (0, event))
            .collect();
        assert_eq!(c.events(), expected);

        // The revert and the replay are counted failed; the revert spent
        // its sender's nonce, the replay did not, and the name stays with
        // its first owner.
        assert_eq!((c.stats().ok_txs, c.stats().failed_txs), (3, 2));
        assert_eq!(c.accounts().nonce(AccountId(2)), 1);
        assert_eq!(c.accounts().nonce(AccountId(3)), 1);
        assert_eq!(c.publish_registry().get("a").unwrap().creator, AccountId(1));
        // The registry keeps the links the event no longer carries.
        assert_eq!(c.publish_registry().get("a").unwrap().out_links, ["b"]);
    }

    #[test]
    fn invalid_nonce_is_rejected_without_state_change() {
        let mut c = chain();
        c.fund_from_treasury(AccountId(5), 10).unwrap();
        c.mempool.push_back(Transaction::new(
            AccountId(5),
            7,
            Call::Transfer {
                to: AccountId(6),
                amount: 1,
            },
        ));
        c.seal_block(SimInstant::ZERO);
        assert_eq!((c.stats().ok_txs, c.stats().failed_txs), (0, 1));
        assert_eq!(c.accounts().nonce(AccountId(5)), 0);
        assert_eq!((c.balance(AccountId(5)), c.balance(AccountId(6))), (10, 0));
    }

    #[test]
    fn reverted_transactions_do_not_leak_honey() {
        let mut c = chain();
        let supply = c.accounts().total_supply();
        // Transfer from an empty account reverts.
        c.submit_call(
            AccountId(7),
            Call::Transfer {
                to: AccountId(8),
                amount: 999,
            },
        );
        // Slash with no stake reverts.
        c.submit_call(
            AccountId(7),
            Call::SlashStake {
                offender: AccountId(9),
                amount: 10,
            },
        );
        c.seal_block(SimInstant::ZERO);
        assert_eq!(c.stats().failed_txs, 2);
        assert_eq!(
            c.accounts().nonce(AccountId(7)),
            2,
            "a revert spends its nonce"
        );
        assert_eq!(c.accounts().total_supply(), supply);
    }

    #[test]
    fn ad_flow_end_to_end_on_chain() {
        let mut c = chain();
        let advertiser = AccountId(300);
        c.fund_from_treasury(advertiser, 10_000).unwrap();
        c.submit_call(
            advertiser,
            Call::CreateAdCampaign {
                keywords: vec!["dweb".into()],
                bid_per_click: 100,
                budget: 1_000,
            },
        );
        c.seal_block(SimInstant::ZERO);
        let ad_id = c.ad_market().best_match("dweb").unwrap().id;
        let creator = AccountId(301);
        let bee = AccountId(302);
        c.submit_call(
            AccountId(999),
            Call::RecordAdClick {
                ad: ad_id,
                page_creator: creator,
                serving_bee: bee,
            },
        );
        c.seal_block(SimInstant::ZERO);
        assert_eq!(c.balance(creator), 60);
        assert_eq!(c.balance(bee), 30);
        assert_eq!(c.ad_market().get(ad_id).unwrap().clicks, 1);
    }

    #[test]
    fn validators_rotate_round_robin() {
        let mut c = chain();
        let h0 = c.seal_block(SimInstant::ZERO);
        let h1 = c.seal_block(SimInstant::ZERO);
        let h2 = c.seal_block(SimInstant::ZERO);
        let h3 = c.seal_block(SimInstant::ZERO);
        assert_ne!(h0.sealer, h1.sealer);
        assert_ne!(h1.sealer, h2.sealer);
        assert_eq!(h0.sealer, h3.sealer);
    }

    #[test]
    fn chain_integrity_verifies_and_detects_linkage() {
        let mut c = chain();
        for i in 0..5u64 {
            c.submit_call(
                AccountId(100 + i),
                Call::PublishPage {
                    name: format!("page-{i}"),
                    cid: Cid::for_data(format!("body {i}").as_bytes()),
                    out_links: vec![],
                },
            );
            c.seal_block(SimInstant::ZERO);
        }
        assert!(c.verify_integrity().is_ok());
    }

    #[test]
    fn next_nonce_accounts_for_mempool() {
        let mut c = chain();
        assert_eq!(c.next_nonce(AccountId(4)), 0);
        c.submit_call(
            AccountId(4),
            Call::Transfer {
                to: AccountId(5),
                amount: 0,
            },
        );
        assert_eq!(c.next_nonce(AccountId(4)), 1);
        c.seal_block(SimInstant::ZERO);
        assert_eq!(c.next_nonce(AccountId(4)), 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn honey_is_conserved_under_random_workloads(ops in proptest::collection::vec((0u8..6, 0u64..8, 0u64..500), 0..100)) {
            let mut c = chain();
            // Fund a handful of actor accounts.
            for i in 0..8u64 {
                c.fund_from_treasury(AccountId(100 + i), 100_000).unwrap();
            }
            let supply = c.accounts().total_supply();
            for (kind, actor, amount) in ops {
                let from = AccountId(100 + actor);
                let call = match kind {
                    0 => Call::Transfer { to: AccountId(100 + ((actor + 1) % 8)), amount },
                    1 => Call::PublishPage {
                        name: format!("page-{actor}"),
                        cid: Cid::for_data(&amount.to_be_bytes()),
                        out_links: vec![],
                    },
                    2 => Call::ClaimIndexReward { page_name: format!("page-{actor}"), page_version: amount % 3 },
                    3 => Call::DepositStake { amount },
                    4 => Call::SlashStake { offender: AccountId(100 + ((actor + 1) % 8)), amount },
                    _ => Call::CreateAdCampaign {
                        keywords: vec!["kw".into()],
                        bid_per_click: (amount % 50) + 1,
                        budget: amount + 1,
                    },
                };
                c.submit_call(from, call);
                if c.mempool.len() > 10 {
                    c.seal_block(SimInstant::ZERO);
                }
            }
            c.seal_block(SimInstant::ZERO);
            prop_assert_eq!(c.accounts().total_supply(), supply);
            prop_assert!(c.verify_integrity().is_ok());
        }
    }
}
