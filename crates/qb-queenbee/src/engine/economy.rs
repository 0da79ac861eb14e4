//! The economy seam: the worker bees and their behaviour, advertisers, ad
//! clicks and the honey split.

use super::QueenBee;
use crate::attacks::CollusionAttack;
use crate::bee::{BeeBehaviour, WorkerBee};
use crate::metrics::HoneyByRole;
use crate::query::response::SearchResponse;
use qb_chain::{AccountId, Call};
use qb_common::{QbError, QbResult};
use qb_workload::AdSpec;

impl QueenBee {
    /// The worker bees.
    pub fn bees(&self) -> &[WorkerBee] {
        &self.bees
    }

    /// Accounts of all worker bees.
    pub fn bee_accounts(&self) -> Vec<AccountId> {
        self.bees.iter().map(|b| b.account).collect()
    }

    /// Accounts of all creators seen so far.
    pub fn creator_accounts(&self) -> Vec<AccountId> {
        self.known_creators.iter().copied().collect()
    }

    /// Accounts of all advertisers registered so far.
    pub fn advertiser_accounts(&self) -> Vec<AccountId> {
        self.known_advertisers.iter().copied().collect()
    }

    /// Change the behaviour of one bee (attack setup).
    pub fn set_bee_behaviour(&mut self, bee_index: usize, behaviour: BeeBehaviour) -> QbResult<()> {
        let num_bees = self.bees.len();
        let bee = self.bees.get_mut(bee_index).ok_or_else(|| {
            QbError::Config(format!(
                "bee index {bee_index} out of range (valid: 0..{num_bees})"
            ))
        })?;
        bee.behaviour = behaviour;
        Ok(())
    }

    /// Turn the first `colluders(n)` bees into the given coalition.
    pub fn apply_collusion(&mut self, attack: &CollusionAttack) {
        let n = attack.colluders(self.bees.len());
        for bee in self.bees.iter_mut().take(n) {
            bee.behaviour = BeeBehaviour::Colluding {
                boost_pages: attack.boost_pages.clone(),
            };
        }
    }

    /// Register an advertiser campaign on-chain (funding the advertiser's
    /// account from the treasury first, as its "fiat on-ramp").
    pub fn register_advertiser(&mut self, spec: &AdSpec) -> QbResult<()> {
        let account = AccountId(spec.advertiser);
        self.chain.fund_from_treasury(account, spec.budget)?;
        self.known_advertisers.insert(account);
        self.chain.submit_call(
            account,
            Call::CreateAdCampaign {
                keywords: spec.keywords.clone(),
                bid_per_click: spec.bid_per_click,
                budget: spec.budget,
            },
        );
        self.chain.seal_block(self.net.now());
        Ok(())
    }

    /// The user clicked the ad shown with `response`: charge the advertiser
    /// and split the revenue between the top result's creator, the serving
    /// bee and the treasury.
    pub fn click_ad(&mut self, response: &SearchResponse) -> QbResult<bool> {
        let (Some(ad), Some(top)) = (response.ad, response.hits.first()) else {
            return Ok(false);
        };
        self.chain.submit_call(
            qb_chain::TREASURY,
            Call::RecordAdClick {
                ad,
                page_creator: AccountId(top.creator),
                serving_bee: response.served_by_bee,
            },
        );
        self.chain.seal_block(self.net.now());
        Ok(true)
    }

    /// Honey split across stakeholder roles.
    pub fn honey_by_role(&self) -> HoneyByRole {
        HoneyByRole::from_chain(
            &self.chain,
            &self.creator_accounts(),
            &self.bee_accounts(),
            &self.advertiser_accounts(),
        )
    }
}
