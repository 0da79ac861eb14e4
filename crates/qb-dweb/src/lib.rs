//! The DWeb page layer.
//!
//! A [`WebPage`] is the unit of content in the decentralized web: it has a
//! stable name (the DWeb analogue of a URL), a title, body text and out-links
//! to other pages. Pages are rendered to a small deterministic HTML form,
//! published into content-addressed storage ([`qb_storage`]) and registered
//! on the blockchain ([`qb_chain`]) through the publish contract — that
//! registration is what replaces crawling in QueenBee.
//!
//! [`ops::publish_page`] and [`ops::fetch_page_by_cid`] wire the three
//! substrates together and are used by the QueenBee engine, the baselines
//! and the examples; a page's name resolves to its cid through the chain's
//! publish registry.

#![forbid(unsafe_code)]

pub mod ops;
pub mod page;

pub use ops::{fetch_page_by_cid, publish_page, PublishOutcome};
pub use page::WebPage;
