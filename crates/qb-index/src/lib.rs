//! The search index.
//!
//! Three layers:
//!
//! * **Text analysis** ([`analyzer`]): tokenization, stopword removal and a
//!   light suffix stemmer — what a worker bee runs over a freshly published
//!   page before updating the index.
//! * **Local index structures** ([`postings`], [`doc`], [`index`],
//!   [`scorer`], [`query`]): compressed posting lists (doc-id deltas +
//!   varints), galloping intersection, a document table with lengths, BM25
//!   scoring and top-k query evaluation. The centralized and
//!   YaCy-style baselines and the QueenBee frontend all reuse these.
//! * **The distributed index** ([`shard`]): one shard per term, stored inline
//!   in the DHT when small and spilled into content-addressed storage when
//!   large, with a versioned pointer record in the DHT — "the index ...
//!   hosted in a decentralized storage" of the paper, maintained by worker
//!   bees and read by the query frontend, which ranks a query's shards with
//!   the one serving [`kernel`]. A shard decoded from a record is shared
//!   ([`views`]) for as long as anyone holds it, so a re-read of an
//!   unchanged record decodes nothing, and a shard scored again under the
//!   same statistics and rank round reads its postings' scores from the
//!   [`impacts`] memo.

#![forbid(unsafe_code)]

pub mod analyzer;
pub mod doc;
pub mod impacts;
pub mod index;
pub mod kernel;
pub mod postings;
pub mod query;
pub mod scorer;
pub mod shard;
pub mod views;

pub use analyzer::Analyzer;
pub use doc::{doc_id_for_name, DocMeta, DocTable};
pub use impacts::{Impact, Impacts, ScoreInputs, ShardImpacts};
pub use index::InvertedIndex;
pub use kernel::{intersect_and_score, paginate, rank, RankScratch, Ranked};
pub use postings::{Posting, PostingList};
pub use query::{search, Query, QueryMode, ScoredDoc};
pub use scorer::{blend_with_component, blend_with_rank, rank_component, Bm25};
pub use shard::{
    shard_pointer_root, DistributedIndex, IndexStats, ReadMachine, ReadStep, ShardEntry,
    ShardPosting,
};
pub use views::ShardViews;
