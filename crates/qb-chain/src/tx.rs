//! Transactions, contract calls and events.

use crate::account::AccountId;
use crate::contracts::ads::AdId;
use qb_common::Cid;

/// A call into one of the built-in QueenBee contracts.
#[derive(Debug, Clone, PartialEq)]
pub enum Call {
    /// Plain honey transfer.
    Transfer { to: AccountId, amount: u64 },
    /// Content creator publishes (creates or updates) a page: the page body
    /// already lives in decentralized storage under `cid`; this call records
    /// the name → cid mapping, the link structure and pays the publish reward.
    /// This is the paper's "no-crawling" path: the index learns about new
    /// content from this event, not from a crawler.
    PublishPage {
        /// Stable page name (the DWeb analogue of a URL).
        name: String,
        /// Root cid of the page content in decentralized storage.
        cid: Cid,
        /// Names of pages this page links to (for the link graph / PageRank).
        out_links: Vec<String>,
    },
    /// A worker bee claims the indexing bounty for a page version it has
    /// tokenized and merged into the distributed inverted index.
    ClaimIndexReward {
        /// Page that was indexed.
        page_name: String,
        /// Version of the page that was indexed.
        page_version: u64,
    },
    /// A worker bee claims the ranking bounty for a PageRank block it
    /// computed in the given round.
    ClaimRankReward {
        /// PageRank round number.
        round: u64,
        /// Graph block the bee was responsible for.
        block_id: u64,
    },
    /// A worker bee deposits stake that can be slashed if it is caught
    /// submitting manipulated index or rank data.
    DepositStake { amount: u64 },
    /// Slash a misbehaving worker bee's stake (invoked after a verification
    /// quorum catches manipulated data). The slashed amount returns to the
    /// treasury.
    SlashStake { offender: AccountId, amount: u64 },
    /// An advertiser opens a pay-per-click campaign.
    CreateAdCampaign {
        /// Keywords the ad targets.
        keywords: Vec<String>,
        /// Honey paid per click.
        bid_per_click: u64,
        /// Total budget escrowed from the advertiser.
        budget: u64,
    },
    /// A user clicked an ad next to a search result: charge the advertiser
    /// and split the revenue between the creator of the page the result came
    /// from, the worker bee that served/maintained the index, and the treasury.
    RecordAdClick {
        /// The campaign that was clicked.
        ad: AdId,
        /// Creator of the organic result the ad was shown next to.
        page_creator: AccountId,
        /// Worker bee credited for serving the index shard.
        serving_bee: AccountId,
    },
    /// Pay the popularity reward to creators whose pages' rank exceeds the
    /// configured threshold (rank expressed in parts-per-million).
    PayPopularityRewards {
        /// `(creator, page name, rank in ppm)` triples.
        pages: Vec<(AccountId, String, u64)>,
    },
}

/// A signed transaction (signatures are modelled, not computed: the sender is
/// authenticated by construction in the simulation).
#[derive(Debug, Clone, PartialEq)]
pub struct Transaction {
    /// Sending account.
    pub from: AccountId,
    /// Sender nonce (must equal the account's next expected nonce).
    pub nonce: u64,
    /// The contract call.
    pub call: Call,
}

impl Transaction {
    /// Convenience constructor.
    pub fn new(from: AccountId, nonce: u64, call: Call) -> Transaction {
        Transaction { from, nonce, call }
    }
}

/// Typed events appended to the chain's event log. Worker bees subscribe to
/// these instead of crawling.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// Honey moved between accounts.
    Transferred {
        from: AccountId,
        to: AccountId,
        amount: u64,
    },
    /// A page was published or updated.
    PagePublished {
        creator: AccountId,
        name: String,
        cid: Cid,
        version: u64,
    },
    /// The publish reward was paid to a creator.
    PublishRewardPaid { creator: AccountId, amount: u64 },
    /// An indexing bounty was paid to a worker bee.
    IndexRewardPaid {
        bee: AccountId,
        page_name: String,
        page_version: u64,
        amount: u64,
    },
    /// A ranking bounty was paid to a worker bee.
    RankRewardPaid {
        bee: AccountId,
        round: u64,
        block_id: u64,
        amount: u64,
    },
    /// A worker bee deposited stake.
    StakeDeposited { bee: AccountId, amount: u64 },
    /// A worker bee was slashed.
    StakeSlashed { offender: AccountId, amount: u64 },
    /// An advertiser opened a campaign.
    AdCampaignCreated {
        advertiser: AccountId,
        ad: AdId,
        bid_per_click: u64,
        budget: u64,
    },
    /// An ad click was charged and the revenue split.
    AdClickCharged {
        ad: AdId,
        advertiser: AccountId,
        cost: u64,
        creator_share: u64,
        bee_share: u64,
        treasury_share: u64,
    },
    /// A popularity reward was paid to a creator for a highly ranked page.
    PopularityRewardPaid {
        creator: AccountId,
        page_name: String,
        rank_ppm: u64,
        amount: u64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transaction_construction() {
        let tx = Transaction::new(
            AccountId(7),
            3,
            Call::Transfer {
                to: AccountId(9),
                amount: 50,
            },
        );
        assert_eq!(tx.from, AccountId(7));
        assert_eq!(tx.nonce, 3);
        assert!(matches!(tx.call, Call::Transfer { amount: 50, .. }));
    }

    #[test]
    fn call_debug_output_names_the_page() {
        let call = Call::PublishPage {
            name: "dweb/home".into(),
            cid: Cid::for_data(b"body"),
            out_links: vec!["dweb/about".into()],
        };
        assert!(format!("{call:?}").contains("dweb/home"));
    }
}
