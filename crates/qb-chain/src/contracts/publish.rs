//! The publish registry: QueenBee's no-crawling content registration.

use crate::account::{AccountId, Accounts, TREASURY};
use crate::tx::Event;
use qb_common::{Cid, QbError, QbResult};
use std::collections::HashMap;

/// Honey paid to the creator per accepted publish.
pub const PUBLISH_REWARD: u64 = 100;

/// Registry entry for one page name.
#[derive(Debug, Clone, PartialEq)]
pub struct PageRecord {
    /// Stable page name.
    pub name: String,
    /// Root cid of the current version's content in decentralized storage.
    pub cid: Cid,
    /// Monotonically increasing version number (1 = first publish).
    pub version: u64,
    /// The account that owns (first registered) the name.
    pub creator: AccountId,
    /// Out-links of the current version (page names), for the link graph.
    pub out_links: Vec<String>,
}

/// State of the publish registry contract.
#[derive(Debug, Clone, Default)]
pub struct PublishRegistry {
    pages: HashMap<String, PageRecord>,
}

impl PublishRegistry {
    /// Handle a `PublishPage` call.
    pub fn publish(
        &mut self,
        accounts: &mut Accounts,
        creator: AccountId,
        name: &str,
        cid: Cid,
        out_links: Vec<String>,
    ) -> QbResult<Vec<Event>> {
        if name.is_empty() {
            return Err(QbError::ContractRevert(
                "page name must not be empty".into(),
            ));
        }
        let version = match self.pages.get(name) {
            Some(existing) => {
                if existing.creator != creator {
                    return Err(QbError::ContractRevert(format!(
                        "page '{name}' is owned by account {}, not {}",
                        existing.creator.0, creator.0
                    )));
                }
                existing.version + 1
            }
            None => 1,
        };
        self.pages.insert(
            name.to_string(),
            PageRecord {
                name: name.to_string(),
                cid,
                version,
                creator,
                out_links,
            },
        );
        let mut events = vec![Event::PagePublished {
            creator,
            name: name.to_string(),
            cid,
            version,
        }];
        // Publish reward: best effort — if the treasury is dry the publish
        // still succeeds, it just pays nothing (the paper leaves the exact
        // incentive scheme open; see experiment E5).
        if accounts.balance(TREASURY) >= PUBLISH_REWARD {
            accounts.transfer(TREASURY, creator, PUBLISH_REWARD)?;
            events.push(Event::PublishRewardPaid {
                creator,
                amount: PUBLISH_REWARD,
            });
        }
        Ok(events)
    }

    /// Look up the current record of a page name.
    pub fn get(&self, name: &str) -> Option<&PageRecord> {
        self.pages.get(name)
    }

    /// All registered pages (unordered).
    pub fn pages(&self) -> impl Iterator<Item = &PageRecord> {
        self.pages.values()
    }

    /// Number of distinct registered page names.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// True when nothing has been published.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_publish_creates_version_one_and_pays_reward() {
        let mut reg = PublishRegistry::default();
        let mut accounts = Accounts::with_genesis_supply(1_000);
        let events = reg
            .publish(
                &mut accounts,
                AccountId(5),
                "site/home",
                Cid::for_data(b"v1"),
                vec!["site/about".into()],
            )
            .unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(accounts.balance(AccountId(5)), PUBLISH_REWARD);
        let rec = reg.get("site/home").unwrap();
        assert_eq!(rec.version, 1);
        assert_eq!(rec.creator, AccountId(5));
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn update_bumps_version_and_keeps_owner() {
        let mut reg = PublishRegistry::default();
        let mut accounts = Accounts::new();
        reg.publish(
            &mut accounts,
            AccountId(1),
            "p",
            Cid::for_data(b"a"),
            vec![],
        )
        .unwrap();
        reg.publish(
            &mut accounts,
            AccountId(1),
            "p",
            Cid::for_data(b"b"),
            vec![],
        )
        .unwrap();
        assert_eq!(reg.get("p").unwrap().version, 2);
        assert_eq!(reg.get("p").unwrap().cid, Cid::for_data(b"b"));
    }

    #[test]
    fn other_account_cannot_hijack_a_name() {
        let mut reg = PublishRegistry::default();
        let mut accounts = Accounts::new();
        reg.publish(
            &mut accounts,
            AccountId(1),
            "p",
            Cid::for_data(b"a"),
            vec![],
        )
        .unwrap();
        let err = reg
            .publish(
                &mut accounts,
                AccountId(2),
                "p",
                Cid::for_data(b"x"),
                vec![],
            )
            .unwrap_err();
        assert!(matches!(err, QbError::ContractRevert(_)));
        assert_eq!(reg.get("p").unwrap().creator, AccountId(1));
    }

    #[test]
    fn empty_name_is_rejected() {
        let mut reg = PublishRegistry::default();
        let mut accounts = Accounts::new();
        assert!(reg
            .publish(&mut accounts, AccountId(1), "", Cid::for_data(b"a"), vec![])
            .is_err());
    }

    #[test]
    fn publish_succeeds_without_reward_when_treasury_is_empty() {
        let mut reg = PublishRegistry::default();
        let mut accounts = Accounts::new(); // no treasury funds
        let events = reg
            .publish(
                &mut accounts,
                AccountId(3),
                "p",
                Cid::for_data(b"a"),
                vec![],
            )
            .unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(accounts.balance(AccountId(3)), 0);
    }
}
