//! Blockchain substrate: the honey token and QueenBee's smart contracts.
//!
//! The paper puts QueenBee's "core business operations" — publishing,
//! indexing/ranking rewards and the advertisement market — on a
//! cryptocurrency blockchain (it names Ethereum). This crate provides that
//! substrate as a deterministic, laptop-scale ledger:
//!
//! * accounts hold **honey** (the incentive token, smallest unit "nectar"),
//! * transactions carry calls into three built-in contracts:
//!   [`contracts::publish::PublishRegistry`] (the no-crawling publish path),
//!   [`contracts::ads::AdMarket`] (advertiser campaigns, pay-per-click) and
//!   [`contracts::rewards::RewardPool`] (bounties for worker bees, popularity
//!   rewards for creators, stake slashing for cheaters),
//! * blocks are sealed round-robin by a configured validator set
//!   (proof-of-authority) — consensus details are orthogonal to every claim
//!   the paper makes, so we use the simplest deterministic scheme,
//! * every applied transaction appends typed [`Event`]s to an event log,
//!   which is how worker bees observe publish events without crawling.
//!
//! Total honey is conserved: it is minted only in the genesis allocation and
//! only moves between accounts afterwards (a property test enforces this).

#![forbid(unsafe_code)]

pub mod account;
pub mod block;
pub mod chain;
pub mod contracts;
pub mod tx;

pub use account::{AccountId, Accounts, TREASURY};
pub use block::{Block, BlockHeader};
pub use chain::{Blockchain, ChainStats, GENESIS_SUPPLY, MAX_TXS_PER_BLOCK, VALIDATORS};
pub use contracts::ads::{AdCampaign, AdId, AdMarket, BEE_SHARE_PCT, CREATOR_SHARE_PCT};
pub use contracts::publish::{PageRecord, PublishRegistry, PUBLISH_REWARD};
pub use contracts::rewards::{
    RewardPool, INDEX_REWARD, POPULARITY_REWARD, POPULARITY_THRESHOLD_PPM, RANK_REWARD,
};
pub use tx::{Call, Event, Transaction};
