//! The advertisement market: campaigns, pay-per-click charging and revenue
//! sharing between content creators, worker bees and the treasury.
//!
//! The paper: "advertisers directly make advertisements through our smart
//! contract and the ad revenue is shared among the content creators and
//! worker bees", and suggests charging advertisers "by the number of clicks
//! on the ad".

use crate::account::{AccountId, Accounts, TREASURY};
use crate::tx::Event;
use qb_common::{QbError, QbResult};
use std::collections::HashMap;

/// Escrow account holding advertiser budgets.
pub const AD_ESCROW: AccountId = AccountId(1);

/// Creator share of each ad click, percent.
pub const CREATOR_SHARE_PCT: u64 = 60;

/// Worker-bee share of each ad click, percent (the treasury keeps the rest).
pub const BEE_SHARE_PCT: u64 = 30;

const _: () = assert!(
    CREATOR_SHARE_PCT + BEE_SHARE_PCT <= 100,
    "revenue shares exceed 100%"
);

/// Identifier of an ad campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AdId(pub u64);

/// One advertiser campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct AdCampaign {
    /// Campaign id.
    pub id: AdId,
    /// The advertiser account paying for clicks.
    pub advertiser: AccountId,
    /// Keywords the ad targets (lowercased).
    pub keywords: Vec<String>,
    /// Honey charged per click.
    pub bid_per_click: u64,
    /// Remaining escrowed budget.
    pub budget_remaining: u64,
    /// Number of clicks charged so far.
    pub clicks: u64,
}

impl AdCampaign {
    /// Is the campaign still able to pay for a click?
    pub fn active(&self) -> bool {
        self.budget_remaining >= self.bid_per_click && self.bid_per_click > 0
    }
}

/// Campaign state of the ad market.
#[derive(Debug, Clone)]
pub struct AdMarket {
    campaigns: HashMap<AdId, AdCampaign>,
    next_id: u64,
    /// Total click revenue charged so far.
    pub total_revenue: u64,
}

impl AdMarket {
    /// Create a market with no campaigns.
    #[allow(clippy::new_without_default)]
    pub fn new() -> AdMarket {
        AdMarket {
            campaigns: HashMap::new(),
            next_id: 1,
            total_revenue: 0,
        }
    }

    /// Handle `CreateAdCampaign`: escrow the budget and register the campaign.
    pub fn create_campaign(
        &mut self,
        accounts: &mut Accounts,
        advertiser: AccountId,
        keywords: Vec<String>,
        bid_per_click: u64,
        budget: u64,
    ) -> QbResult<(AdId, Vec<Event>)> {
        if bid_per_click == 0 {
            return Err(QbError::ContractRevert(
                "bid per click must be positive".into(),
            ));
        }
        if budget < bid_per_click {
            return Err(QbError::ContractRevert(
                "budget must cover at least one click".into(),
            ));
        }
        if keywords.is_empty() {
            return Err(QbError::ContractRevert("campaign needs keywords".into()));
        }
        accounts.transfer(advertiser, AD_ESCROW, budget)?;
        let id = AdId(self.next_id);
        self.next_id += 1;
        self.campaigns.insert(
            id,
            AdCampaign {
                id,
                advertiser,
                keywords: keywords.iter().map(|k| k.to_lowercase()).collect(),
                bid_per_click,
                budget_remaining: budget,
                clicks: 0,
            },
        );
        Ok((
            id,
            vec![Event::AdCampaignCreated {
                advertiser,
                ad: id,
                bid_per_click,
                budget,
            }],
        ))
    }

    /// Handle `RecordAdClick`: charge the advertiser one bid and split it.
    pub fn record_click(
        &mut self,
        accounts: &mut Accounts,
        ad: AdId,
        page_creator: AccountId,
        serving_bee: AccountId,
    ) -> QbResult<Vec<Event>> {
        let campaign = self
            .campaigns
            .get_mut(&ad)
            .ok_or_else(|| QbError::ContractRevert(format!("unknown campaign {}", ad.0)))?;
        if !campaign.active() {
            return Err(QbError::ContractRevert(format!(
                "campaign {} has exhausted its budget",
                ad.0
            )));
        }
        let cost = campaign.bid_per_click;
        let creator_share = cost * CREATOR_SHARE_PCT / 100;
        let bee_share = cost * BEE_SHARE_PCT / 100;
        let treasury_share = cost - creator_share - bee_share;
        accounts.transfer(AD_ESCROW, page_creator, creator_share)?;
        accounts.transfer(AD_ESCROW, serving_bee, bee_share)?;
        accounts.transfer(AD_ESCROW, TREASURY, treasury_share)?;
        campaign.budget_remaining -= cost;
        campaign.clicks += 1;
        self.total_revenue += cost;
        Ok(vec![Event::AdClickCharged {
            ad,
            advertiser: campaign.advertiser,
            cost,
            creator_share,
            bee_share,
            treasury_share,
        }])
    }

    /// The campaign targeting `keyword` that can still pay for a click with
    /// the highest bid, lowest id first (simple first-price selection). The
    /// keyword is already lowercase, as an analysed query term is.
    pub fn best_match(&self, keyword: &str) -> Option<&AdCampaign> {
        let targets = |c: &&AdCampaign| c.active() && c.keywords.iter().any(|k| k == keyword);
        let rank = |c: &&AdCampaign| (std::cmp::Reverse(c.bid_per_click), c.id.0);
        self.campaigns.values().filter(targets).min_by_key(rank)
    }

    /// Look up a campaign.
    pub fn get(&self, id: AdId) -> Option<&AdCampaign> {
        self.campaigns.get(&id)
    }

    /// Number of campaigns ever created.
    pub fn len(&self) -> usize {
        self.campaigns.len()
    }

    /// True when no campaigns exist.
    pub fn is_empty(&self) -> bool {
        self.campaigns.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn setup() -> (AdMarket, Accounts) {
        let mut accounts = Accounts::with_genesis_supply(100_000);
        accounts.transfer(TREASURY, AccountId(50), 10_000).unwrap(); // advertiser
        (AdMarket::new(), accounts)
    }

    #[test]
    fn create_campaign_escrows_budget() {
        let (mut market, mut accounts) = setup();
        let (id, events) = market
            .create_campaign(&mut accounts, AccountId(50), vec!["Rust".into()], 10, 1_000)
            .unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(accounts.balance(AccountId(50)), 9_000);
        assert_eq!(accounts.balance(AD_ESCROW), 1_000);
        let c = market.get(id).unwrap();
        assert!(c.active());
        assert_eq!(c.keywords, vec!["rust".to_string()]);
    }

    #[test]
    fn invalid_campaigns_are_rejected() {
        let (mut market, mut accounts) = setup();
        assert!(market
            .create_campaign(&mut accounts, AccountId(50), vec!["x".into()], 0, 100)
            .is_err());
        assert!(market
            .create_campaign(&mut accounts, AccountId(50), vec!["x".into()], 10, 5)
            .is_err());
        assert!(market
            .create_campaign(&mut accounts, AccountId(50), vec![], 10, 100)
            .is_err());
        // Budget larger than the advertiser's balance.
        assert!(market
            .create_campaign(
                &mut accounts,
                AccountId(50),
                vec!["x".into()],
                10,
                1_000_000
            )
            .is_err());
    }

    #[test]
    fn click_splits_revenue_and_decrements_budget() {
        let (mut market, mut accounts) = setup();
        let (id, _) = market
            .create_campaign(
                &mut accounts,
                AccountId(50),
                vec!["search".into()],
                100,
                300,
            )
            .unwrap();
        let creator = AccountId(60);
        let bee = AccountId(70);
        let treasury_before = accounts.balance(TREASURY);
        let events = market
            .record_click(&mut accounts, id, creator, bee)
            .unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(accounts.balance(creator), 60);
        assert_eq!(accounts.balance(bee), 30);
        assert_eq!(accounts.balance(TREASURY), treasury_before + 10);
        assert_eq!(market.get(id).unwrap().budget_remaining, 200);
        assert_eq!(market.total_revenue, 100);
        assert_eq!(accounts.total_supply(), 100_000);
    }

    #[test]
    fn budget_exhaustion_deactivates_campaign() {
        let (mut market, mut accounts) = setup();
        let (id, _) = market
            .create_campaign(&mut accounts, AccountId(50), vec!["kw".into()], 100, 200)
            .unwrap();
        market
            .record_click(&mut accounts, id, AccountId(60), AccountId(70))
            .unwrap();
        market
            .record_click(&mut accounts, id, AccountId(60), AccountId(70))
            .unwrap();
        let err = market
            .record_click(&mut accounts, id, AccountId(60), AccountId(70))
            .unwrap_err();
        assert!(matches!(err, QbError::ContractRevert(_)));
        assert!(!market.get(id).unwrap().active());
        assert!(market.best_match("kw").is_none());
    }

    #[test]
    fn keyword_matching_orders_by_bid() {
        let (mut market, mut accounts) = setup();
        let (low, _) = market
            .create_campaign(&mut accounts, AccountId(50), vec!["dweb".into()], 10, 100)
            .unwrap();
        assert_eq!(market.best_match("dweb").map(|c| c.id), Some(low));
        let (high, _) = market
            .create_campaign(
                &mut accounts,
                AccountId(50),
                vec!["DWeb".into(), "p2p".into()],
                50,
                200,
            )
            .unwrap();
        let best = |kw: &str| market.best_match(kw).map(|c| c.id);
        assert_eq!(best("dweb"), Some(high));
        assert_eq!(best("p2p"), Some(high));
        assert_eq!(best("unrelated"), None);
    }

    /// The reference model of `best_match`: every campaign targeting
    /// `keyword` (in any case) that can still pay for a click, sorted by
    /// descending bid, then id; the first wins.
    fn first_match(market: &AdMarket, keyword: &str) -> Option<AdId> {
        let kw = keyword.to_lowercase();
        let mut matches: Vec<&AdCampaign> = market
            .campaigns
            .values()
            .filter(|c| c.active() && c.keywords.contains(&kw))
            .collect();
        matches.sort_by(|a, b| {
            b.bid_per_click
                .cmp(&a.bid_per_click)
                .then(a.id.0.cmp(&b.id.0))
        });
        matches.first().map(|c| c.id)
    }

    /// Keywords in several cases; campaigns store them lowercased.
    const KEYWORDS: [&str; 6] = ["Honey", "honey", "HONEY", "DWeb", "p2p", "Straße"];

    proptest! {
        #[test]
        fn best_match_is_the_first_keyword_match(
            campaigns in proptest::collection::vec((0usize..6, 1u64..4, 0u64..3), 0..12),
            query in 0usize..6,
        ) {
            let (mut market, mut accounts) = setup();
            for (kw, bid, clicks) in campaigns {
                let keywords = vec![KEYWORDS[kw].to_string(), KEYWORDS[(kw + 3) % 6].into()];
                let (id, _) = market
                    .create_campaign(&mut accounts, AccountId(50), keywords, bid, 2 * bid)
                    .unwrap();
                // Two clicks exhaust a campaign's budget.
                for _ in 0..clicks.min(2) {
                    market
                        .record_click(&mut accounts, id, AccountId(60), AccountId(70))
                        .unwrap();
                }
            }
            let keyword = KEYWORDS[query];
            let first = first_match(&market, keyword);
            prop_assert_eq!(market.best_match(&keyword.to_lowercase()).map(|c| c.id), first);
        }
    }

    #[test]
    fn unknown_campaign_click_reverts() {
        let (mut market, mut accounts) = setup();
        assert!(market
            .record_click(&mut accounts, AdId(999), AccountId(1), AccountId(2))
            .is_err());
    }
}
