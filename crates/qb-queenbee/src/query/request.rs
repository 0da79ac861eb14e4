//! [`SearchRequest`]: what a caller asks the query frontend for.
//!
//! A bare `(peer, text)` pair can only express "this peer asks this
//! query": top-k, pagination, routing and freshness would all be implicit.
//! A `SearchRequest` makes every knob explicit and builder-style, so the
//! planner can analyze a whole batch of requests before any network traffic
//! is issued.

use qb_common::SimDuration;

/// How the request reaches a frontend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingPolicy {
    /// Issue the query from this simulated peer. With the cache on the
    /// request is routed with rendezvous (highest-random-weight) hashing plus
    /// power-of-two-choices over the *live* membership: the two
    /// highest-scoring active frontends for the peer are candidates and the
    /// one advertising less load (gossip-propagated EWMA of recently served
    /// queries) wins. A crashed frontend's keyspace therefore spreads
    /// across the whole surviving fleet instead of piling onto one ring
    /// successor. With the cache off there is no frontend, and the query
    /// reads the index from this peer.
    HashPeer(u64),
    /// The seed's implicit modulo behaviour: frontend `peer %
    /// num_frontends`, walking the ring to the next active slot when that
    /// frontend is down. Kept as an explicit policy so experiments can
    /// measure the post-crash load spike [`RoutingPolicy::HashPeer`]
    /// eliminates.
    RingSuccessor(u64),
    /// Serve at this specific frontend (errors with the cache off, or when
    /// the index is out of range or has left the fleet).
    Direct(usize),
}

/// How stale an answer the caller tolerates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Freshness {
    /// Bypass the result/shard/negative tiers entirely: every term is
    /// re-fetched through the versioned DHT read. The fetched shards still
    /// warm the cache afterwards.
    Fresh,
    /// The default: serve from the cache tiers under the usual version
    /// checks (a superseded entry never serves).
    CacheOk,
    /// Like `CacheOk`, but a cached shard whose version has been superseded
    /// may still serve when it was stored no more than this long ago —
    /// trading a bounded amount of staleness for skipping the DHT trip
    /// (useful when the DHT is partitioned or under load).
    MaxStaleness(SimDuration),
}

/// A fully specified query, built with a fluent builder:
///
/// ```
/// use qb_common::SimDuration;
/// use qb_queenbee::{Freshness, RoutingPolicy, SearchRequest};
///
/// let req = SearchRequest::new("decentralized web")
///     .top_k(5)
///     .page(1)
///     .route(RoutingPolicy::Direct(2))
///     .freshness(Freshness::MaxStaleness(SimDuration::from_secs(30)))
///     .ads(false);
/// assert_eq!(
///     (req.top_k, req.page, req.routing, req.ads),
///     (Some(5), 1, RoutingPolicy::Direct(2), false)
/// );
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchRequest {
    /// The raw query text (analyzed and deduplicated by the planner).
    pub query: String,
    /// Results per page; `None` uses the engine's configured `top_k`.
    pub top_k: Option<usize>,
    /// Zero-based page index; hits `page * top_k ..` of the ranked list.
    pub page: usize,
    /// Frontend routing.
    pub routing: RoutingPolicy,
    /// Staleness tolerance.
    pub freshness: Freshness,
    /// Whether to attach an ad from the on-chain market.
    pub ads: bool,
}

impl SearchRequest {
    /// A request with the seed defaults: engine top-k, first page, routed
    /// from peer 0, cache-friendly freshness, ads on.
    pub fn new(query: impl Into<String>) -> SearchRequest {
        SearchRequest {
            query: query.into(),
            top_k: None,
            page: 0,
            routing: RoutingPolicy::HashPeer(0),
            freshness: Freshness::CacheOk,
            ads: true,
        }
    }

    /// Results per page (overrides the engine's configured `top_k`).
    pub fn top_k(mut self, k: usize) -> SearchRequest {
        self.top_k = Some(k);
        self
    }

    /// Zero-based page of the ranked list to return.
    pub fn page(mut self, page: usize) -> SearchRequest {
        self.page = page;
        self
    }

    /// Frontend routing policy.
    pub fn route(mut self, routing: RoutingPolicy) -> SearchRequest {
        self.routing = routing;
        self
    }

    /// Staleness tolerance.
    pub fn freshness(mut self, freshness: Freshness) -> SearchRequest {
        self.freshness = freshness;
        self
    }

    /// Attach (or suppress) an ad next to the results.
    pub fn ads(mut self, ads: bool) -> SearchRequest {
        self.ads = ads;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_match_the_seed_behaviour() {
        let req = SearchRequest::new("worker bees");
        assert_eq!(req.query, "worker bees");
        assert_eq!(req.top_k, None, "engine top_k applies");
        assert_eq!(req.page, 0);
        assert_eq!(req.routing, RoutingPolicy::HashPeer(0));
        assert_eq!(req.freshness, Freshness::CacheOk);
        assert!(req.ads);
    }

    #[test]
    fn builder_sets_every_knob() {
        let req = SearchRequest::new("honey")
            .top_k(3)
            .page(2)
            .route(RoutingPolicy::Direct(1))
            .freshness(Freshness::MaxStaleness(SimDuration::from_secs(30)))
            .ads(false);
        assert_eq!(req.top_k, Some(3));
        assert_eq!(req.page, 2);
        assert_eq!(req.routing, RoutingPolicy::Direct(1));
        assert_eq!(
            req.freshness,
            Freshness::MaxStaleness(SimDuration::from_secs(30))
        );
        assert!(!req.ads);
    }
}
