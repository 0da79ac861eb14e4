//! Integration tests of the substrate stack below the engine: DHT + storage +
//! chain + distributed index working together under churn.

use qb_chain::{AccountId, Blockchain, Call};
use qb_common::{Cid, DhtKey, SimInstant};
use qb_dht::{DhtConfig, DhtNetwork};
use qb_index::{DistributedIndex, IndexStats, ShardEntry, ShardPosting};
use qb_simnet::{NetConfig, SimNet};
use qb_storage::{StorageConfig, StorageNetwork};

fn stack(n: usize, seed: u64) -> (SimNet, DhtNetwork, StorageNetwork) {
    let mut net = SimNet::new(n, NetConfig::lan(), seed);
    let dht = DhtNetwork::build(&mut net, DhtConfig::small());
    let storage = StorageNetwork::new(n, StorageConfig::small());
    (net, dht, storage)
}

#[test]
fn distributed_index_survives_moderate_churn() {
    let (mut net, mut dht, mut storage) = stack(48, 1);
    let dist = DistributedIndex::default();
    // Write shards for ten terms from different peers.
    for i in 0..10u64 {
        let mut shard = ShardEntry::empty(&format!("term{i}"));
        shard.version = 1;
        shard.upsert(ShardPosting {
            doc_id: i,
            term_freq: 2,
            doc_len: 40,
            name: format!("page{i}").into(),
            version: 1,
            creator: 1,
        });
        dist.write_shard(&mut net, &mut dht, &mut storage, i % 20, &shard)
            .unwrap();
    }
    // A quarter of the peers churn out.
    net.fail_fraction(0.25, &[]);
    // Every shard is still readable from some online peer.
    let mut readable = 0;
    for i in 0..10u64 {
        let mut reader = (30 + i) % 48;
        while !net.is_online(reader) {
            reader = (reader + 1) % 48;
        }
        let (shard, _) = dist
            .read_shard_fresh(
                &mut net,
                &mut dht,
                &mut storage,
                reader,
                &format!("term{i}"),
                0,
            )
            .unwrap();
        if shard.doc_freq() == 1 {
            readable += 1;
        }
    }
    assert!(
        readable >= 8,
        "only {readable}/10 shards survived 25% churn"
    );
}

#[test]
fn dht_records_and_storage_objects_share_the_same_key_space() {
    let (mut net, mut dht, mut storage) = stack(32, 2);
    let data = b"an object whose provider record lives at its cid".to_vec();
    let (obj, _) = storage.put_object(&mut net, &mut dht, 3, &data).unwrap();
    // The provider record is stored under the cid-derived DHT key and can be
    // found by any peer.
    let (providers, _, _) = dht
        .get_providers(&mut net, 17, obj.root.to_dht_key())
        .unwrap();
    assert!(!providers.is_empty());
    // A plain record under an unrelated key does not collide.
    let key = DhtKey::for_term("unrelated");
    dht.put_record(&mut net, 5, key, b"x".to_vec(), 1).unwrap();
    assert_ne!(key, obj.root.to_dht_key());
}

#[test]
fn chain_registry_and_storage_stay_consistent() {
    let (mut net, mut dht, mut storage) = stack(24, 3);
    let mut chain = Blockchain::new();
    // Register 20 pages whose contents live in storage.
    let mut cids = Vec::new();
    for i in 0..20u64 {
        let body = format!("<html>page body {i}</html>");
        let (obj, _) = storage
            .put_object(&mut net, &mut dht, i % 20, body.as_bytes())
            .unwrap();
        cids.push((format!("page{i}"), obj.root, body));
        chain.submit_call(
            AccountId(100 + i),
            Call::PublishPage {
                name: format!("page{i}"),
                cid: obj.root,
                out_links: vec![],
            },
        );
    }
    chain.seal_block(SimInstant::ZERO);
    assert_eq!(chain.publish_registry().len(), 20);
    // Every registry entry's cid resolves to the exact registered bytes.
    for (name, cid, body) in &cids {
        let rec = chain.publish_registry().get(name).unwrap();
        assert_eq!(rec.cid, *cid);
        let (bytes, _) = storage.get_object(&mut net, &mut dht, 21, *cid).unwrap();
        assert_eq!(bytes, body.as_bytes());
    }
    assert!(chain.verify_integrity().is_ok());
}

#[test]
fn index_stats_record_converges_to_latest_version() {
    let (mut net, mut dht, mut storage) = stack(24, 4);
    let _ = &mut storage;
    let dist = DistributedIndex::default();
    for v in 1..=5u64 {
        let stats = IndexStats {
            num_docs: v * 10,
            total_len: v * 1000,
            version: v,
        };
        dist.write_stats(&mut net, &mut dht, v % 10, &stats)
            .unwrap();
    }
    let (read, _) = dist.read_stats(&mut net, &mut dht, 15).unwrap();
    assert_eq!(read.version, 5);
    assert_eq!(read.num_docs, 50);
}

#[test]
fn content_addressing_is_end_to_end_tamper_evident() {
    let (mut net, mut dht, mut storage) = stack(24, 5);
    let original = b"the original, signed-by-hash content".to_vec();
    let (obj, _) = storage
        .put_object(&mut net, &mut dht, 0, &original)
        .unwrap();
    // An attacker who controls a replica cannot forge content for the same cid.
    for holder in storage.pinned_holders(&obj.root) {
        storage.corrupt_pinned(holder, &obj.root, b"forged content".to_vec());
    }
    let result = storage.get_object(&mut net, &mut dht, 12, obj.root);
    match result {
        Ok((bytes, _)) => assert_eq!(bytes, original, "only the original may ever be served"),
        Err(e) => assert!(matches!(e, qb_common::QbError::IntegrityViolation { .. })),
    }
    // Re-publishing different bytes always yields a different root cid, so an
    // attacker cannot squat the original's identity.
    let (forged_obj, _) = storage
        .put_object(&mut net, &mut dht, 1, b"forged content")
        .unwrap();
    assert_ne!(forged_obj.root, obj.root);
    let _ = Cid::for_data(&original);
}
