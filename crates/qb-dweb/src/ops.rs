//! Publish and fetch operations wiring pages through storage, the DHT and
//! the blockchain registry.

use crate::page::WebPage;
use qb_chain::{AccountId, Blockchain, Call};
use qb_common::{Cid, QbError, QbResult};
use qb_dht::DhtNetwork;
use qb_simnet::SimNet;
use qb_storage::{FetchStats, ObjectRef, StorageNetwork};

/// Result of publishing a page.
#[derive(Debug, Clone)]
pub struct PublishOutcome {
    /// Reference to the stored content.
    pub object: ObjectRef,
    /// Storage/replication cost accounting.
    pub stats: FetchStats,
}

/// Publish (create or update) a page from peer `peer` owned by `creator`:
/// store the rendered HTML in decentralized storage, then register the
/// name → cid mapping and the out-links on the blockchain. The registry
/// transaction is queued; it takes effect when the chain seals its next block
/// (the caller controls sealing cadence).
pub fn publish_page(
    net: &mut SimNet,
    dht: &mut DhtNetwork,
    storage: &mut StorageNetwork,
    chain: &mut Blockchain,
    peer: u64,
    creator: AccountId,
    page: &WebPage,
) -> QbResult<PublishOutcome> {
    let html = page.render_html();
    let (object, stats) = storage.put_object(net, dht, peer, html.as_bytes())?;
    chain.submit_call(
        creator,
        Call::PublishPage {
            name: page.name.clone(),
            cid: object.root,
            out_links: page.out_links.clone(),
        },
    );
    Ok(PublishOutcome { object, stats })
}

/// Fetch a page by content cid and verify it (the caller holds a registry
/// record or an index entry naming the cid).
pub fn fetch_page_by_cid(
    net: &mut SimNet,
    dht: &mut DhtNetwork,
    storage: &mut StorageNetwork,
    peer: u64,
    cid: Cid,
) -> QbResult<(WebPage, FetchStats)> {
    let (bytes, stats) = storage.get_object(net, dht, peer, cid)?;
    let html = String::from_utf8(bytes)
        .map_err(|_| QbError::Codec("page content is not valid UTF-8".into()))?;
    let page = WebPage::from_html(&html)?;
    Ok((page, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qb_common::SimInstant;
    use qb_dht::DhtConfig;
    use qb_simnet::NetConfig;
    use qb_storage::StorageConfig;

    fn setup(n: usize, seed: u64) -> (SimNet, DhtNetwork, StorageNetwork, Blockchain) {
        let mut net = SimNet::new(n, NetConfig::lan(), seed);
        let dht = DhtNetwork::build(&mut net, DhtConfig::small());
        let storage = StorageNetwork::new(n, StorageConfig::small());
        let chain = Blockchain::new();
        (net, dht, storage, chain)
    }

    /// Fetch a page by name, as a browser does: resolve the name through
    /// the on-chain registry, then fetch and verify the content.
    fn fetch_page(
        net: &mut SimNet,
        dht: &mut DhtNetwork,
        storage: &mut StorageNetwork,
        chain: &Blockchain,
        peer: u64,
        name: &str,
    ) -> QbResult<(WebPage, FetchStats)> {
        let record = chain
            .publish_registry()
            .get(name)
            .ok_or_else(|| QbError::NotFound(format!("page '{name}' is not registered")))?;
        fetch_page_by_cid(net, dht, storage, peer, record.cid)
    }

    fn sample_page(name: &str) -> WebPage {
        WebPage::new(
            name,
            format!("Title of {name}"),
            "queenbee indexes the decentralized web without crawling anything at all",
            vec!["other/page".into()],
        )
    }

    #[test]
    fn publish_then_fetch_by_name() {
        let (mut net, mut dht, mut storage, mut chain) = setup(24, 1);
        let page = sample_page("site/home");
        let outcome = publish_page(
            &mut net,
            &mut dht,
            &mut storage,
            &mut chain,
            3,
            AccountId(100),
            &page,
        )
        .unwrap();
        chain.seal_block(SimInstant::ZERO);
        let record = chain.publish_registry().get("site/home").unwrap();
        assert_eq!(record.cid, outcome.object.root);
        let (fetched, stats) =
            fetch_page(&mut net, &mut dht, &mut storage, &chain, 15, "site/home").unwrap();
        assert_eq!(fetched, page);
        assert!(stats.bytes > 0);
        // Creator got the publish reward.
        assert_eq!(chain.balance(AccountId(100)), qb_chain::PUBLISH_REWARD);
    }

    #[test]
    fn fetch_unregistered_page_fails() {
        let (mut net, mut dht, mut storage, chain) = setup(8, 2);
        let err =
            fetch_page(&mut net, &mut dht, &mut storage, &chain, 0, "missing/page").unwrap_err();
        assert!(matches!(err, QbError::NotFound(_)));
    }

    #[test]
    fn update_changes_registry_cid_and_content() {
        let (mut net, mut dht, mut storage, mut chain) = setup(24, 3);
        let v1 = sample_page("blog/post");
        publish_page(
            &mut net,
            &mut dht,
            &mut storage,
            &mut chain,
            1,
            AccountId(7),
            &v1,
        )
        .unwrap();
        chain.seal_block(SimInstant::ZERO);
        let cid_v1 = chain.publish_registry().get("blog/post").unwrap().cid;

        let mut v2 = v1.clone();
        v2.body = "fresh new content that replaces the stale old body".into();
        publish_page(
            &mut net,
            &mut dht,
            &mut storage,
            &mut chain,
            1,
            AccountId(7),
            &v2,
        )
        .unwrap();
        chain.seal_block(SimInstant::ZERO);
        let rec = chain.publish_registry().get("blog/post").unwrap();
        assert_eq!(rec.version, 2);
        assert_ne!(rec.cid, cid_v1);

        let (fetched, _) =
            fetch_page(&mut net, &mut dht, &mut storage, &chain, 9, "blog/post").unwrap();
        assert_eq!(fetched.body, v2.body);
        // The old version remains fetchable by its cid (tamper-proof history).
        let (old, _) = fetch_page_by_cid(&mut net, &mut dht, &mut storage, 9, cid_v1).unwrap();
        assert_eq!(old.body, v1.body);
    }

    #[test]
    fn tampered_content_is_rejected_not_served() {
        let (mut net, mut dht, mut storage, mut chain) = setup(24, 4);
        let page = sample_page("bank/login");
        let outcome = publish_page(
            &mut net,
            &mut dht,
            &mut storage,
            &mut chain,
            0,
            AccountId(1),
            &page,
        )
        .unwrap();
        chain.seal_block(SimInstant::ZERO);
        // Corrupt every pinned replica of the manifest.
        for holder in storage.pinned_holders(&outcome.object.root) {
            storage.corrupt_pinned(
                holder,
                &outcome.object.root,
                b"<html>phishing</html>".to_vec(),
            );
        }
        let err =
            fetch_page(&mut net, &mut dht, &mut storage, &chain, 12, "bank/login").unwrap_err();
        assert!(matches!(err, QbError::IntegrityViolation { .. }));
    }
}
