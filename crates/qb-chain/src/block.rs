//! Blocks and block headers.

use crate::account::AccountId;
use crate::tx::Transaction;
use qb_common::{Hash256, SimInstant};
use std::io::Write;

/// Header of a sealed block.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockHeader {
    /// Height in the chain (genesis = 0).
    pub height: u64,
    /// Hash of the parent block header.
    pub parent: Hash256,
    /// The validator that sealed the block (round-robin proof of authority).
    pub sealer: AccountId,
    /// Simulation time at which the block was sealed.
    pub sealed_at: SimInstant,
    /// Number of transactions in the block.
    pub tx_count: u32,
    /// Merkle-style digest over the transaction list (a flat hash is enough
    /// for the simulation: it commits the sealer to the exact tx sequence).
    pub tx_digest: Hash256,
}

impl BlockHeader {
    /// Hash of this header (identifies the block).
    pub fn hash(&self) -> Hash256 {
        let mut bytes = Vec::with_capacity(96);
        bytes.extend_from_slice(&self.height.to_be_bytes());
        bytes.extend_from_slice(self.parent.as_bytes());
        bytes.extend_from_slice(&self.sealer.0.to_be_bytes());
        bytes.extend_from_slice(&self.sealed_at.as_micros().to_be_bytes());
        bytes.extend_from_slice(&self.tx_count.to_be_bytes());
        bytes.extend_from_slice(self.tx_digest.as_bytes());
        Hash256::digest(&bytes)
    }
}

/// A sealed block: header plus the transactions it contains.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// The block header.
    pub header: BlockHeader,
    /// Transactions in sealing order.
    pub transactions: Vec<Transaction>,
}

impl Block {
    /// Digest committing to a transaction list.
    pub fn digest_transactions(txs: &[Transaction]) -> Hash256 {
        let mut bytes = Vec::new();
        for tx in txs {
            bytes.extend_from_slice(&tx.from.0.to_be_bytes());
            bytes.extend_from_slice(&tx.nonce.to_be_bytes());
            // The debug representation is a stable, deterministic encoding of
            // the call for hashing purposes in the simulation, written
            // straight into the buffer (a `Vec` write cannot fail).
            let _ = write!(bytes, "{:?}", tx.call);
        }
        Hash256::digest(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tx::Call;

    fn tx(n: u64) -> Transaction {
        Transaction::new(
            AccountId(1),
            n,
            Call::Transfer {
                to: AccountId(2),
                amount: n,
            },
        )
    }

    #[test]
    fn header_hash_changes_with_contents() {
        let base = BlockHeader {
            height: 1,
            parent: Hash256::ZERO,
            sealer: AccountId(1),
            sealed_at: SimInstant::ZERO,
            tx_count: 0,
            tx_digest: Hash256::ZERO,
        };
        let mut other = base.clone();
        other.height = 2;
        assert_ne!(base.hash(), other.hash());
        let mut other = base.clone();
        other.sealer = AccountId(9);
        assert_ne!(base.hash(), other.hash());
        assert_eq!(base.hash(), base.clone().hash());
    }

    #[test]
    fn tx_digest_commits_to_order_and_content() {
        let a = Block::digest_transactions(&[tx(1), tx(2)]);
        let b = Block::digest_transactions(&[tx(2), tx(1)]);
        let c = Block::digest_transactions(&[tx(1), tx(2)]);
        assert_ne!(a, b);
        assert_eq!(a, c);
        assert_ne!(a, Block::digest_transactions(&[tx(1)]));
    }

    #[test]
    fn tx_digest_is_the_hash_of_each_calls_debug_text() {
        let txs = [
            tx(3),
            Transaction::new(
                AccountId(7),
                0,
                Call::PublishPage {
                    name: "dweb/home".into(),
                    cid: qb_common::Cid::for_data(b"v1"),
                    out_links: vec!["dweb/docs".into(), "wiki/ß".into()],
                },
            ),
            Transaction::new(
                AccountId(8),
                2,
                Call::ClaimIndexReward {
                    page_name: "dweb/home".into(),
                    page_version: 1,
                },
            ),
        ];
        // The formula the chain has always hashed: sender, nonce, then the
        // call's `Debug` text built as a string of its own.
        let mut bytes = Vec::new();
        for tx in &txs {
            bytes.extend_from_slice(&tx.from.0.to_be_bytes());
            bytes.extend_from_slice(&tx.nonce.to_be_bytes());
            bytes.extend_from_slice(format!("{:?}", tx.call).as_bytes());
        }
        assert_eq!(Block::digest_transactions(&txs), Hash256::digest(&bytes));
        assert_eq!(Block::digest_transactions(&[]), Hash256::digest(&[]));
    }
}
