//! The operation chain: where two runs of one scenario part.
//!
//! A run's `sim_fingerprint` is one hash over everything it simulated, so
//! two runs that differ say only *that* they differ. An [`OpChain`] folds
//! each operation's simulated outcome into a running 64-bit hash and keeps
//! the running value after every operation, so two chains of the same
//! scenario are equal up to the first operation whose outcome moved, and
//! [`OpChain::first_divergence`] names it. The engine that keeps one folds
//! only simulated quantities (instants, latencies, ids, versions, score
//! bits, traffic counters), never a host-side one, so equal seeds give
//! equal chains.

use qb_common::SimInstant;

/// What an operation of the chain was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// A query, at its response.
    Query,
    /// One publish event an indexing pass handled.
    PublishEvent,
    /// One gossip round.
    GossipRound,
}

/// One operation's place in the chain: its kind, its instant and the
/// running hash after its outcome was folded in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpLink {
    /// What the operation was.
    pub kind: OpKind,
    /// The simulated instant it completed at.
    pub at: SimInstant,
    /// The running hash over this and every earlier operation.
    pub value: u64,
}

/// The running hash before any operation.
const CHAIN_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// A run's operations, each folded into a running 64-bit hash.
#[derive(Debug, Clone, Default)]
pub struct OpChain {
    links: Vec<OpLink>,
    /// The cumulative counters passed with the last operation, whose
    /// growth the next one folds.
    counters: Vec<u64>,
}

impl OpChain {
    /// An empty chain.
    pub fn new() -> OpChain {
        OpChain::default()
    }

    /// Fold one operation: its kind and instant, the words of its
    /// `outcome`, and how far each of the cumulative `counters` (a
    /// network's traffic counters, say) grew since the previous operation.
    /// Returns the new running hash.
    pub fn push(
        &mut self,
        kind: OpKind,
        at: SimInstant,
        outcome: impl IntoIterator<Item = u64>,
        counters: &[u64],
    ) -> u64 {
        let mut value = mix(self.head(), kind as u64);
        value = mix(value, at.as_micros());
        for word in outcome {
            value = mix(value, word);
        }
        self.counters.resize(counters.len(), 0);
        for (last, &now) in self.counters.iter_mut().zip(counters) {
            value = mix(value, now.wrapping_sub(*last));
            *last = now;
        }
        self.links.push(OpLink { kind, at, value });
        value
    }

    /// The running hash after the last operation (a fixed seed before the
    /// first).
    pub fn head(&self) -> u64 {
        self.links.last().map_or(CHAIN_SEED, |link| link.value)
    }

    /// Every operation folded so far, in order.
    pub fn links(&self) -> &[OpLink] {
        &self.links
    }

    /// The index of the first operation at which `self` and `other` part —
    /// the first whose running hash differs, or the first that one chain
    /// has and the other does not — or `None` when they are equal.
    pub fn first_divergence(&self, other: &OpChain) -> Option<usize> {
        let shared = self.links.len().min(other.links.len());
        let parted = (0..shared).find(|&i| self.links[i].value != other.links[i].value);
        parted.or((self.links.len() != other.links.len()).then_some(shared))
    }
}

/// One word into the running hash: an FxHash step, finished with the
/// murmur3 mixer so every input bit reaches every output bit.
fn mix(value: u64, word: u64) -> u64 {
    let mut h = (value.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^ (h >> 33)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(outcomes: &[(u64, u64)]) -> OpChain {
        let mut chain = OpChain::new();
        for (i, &(outcome, traffic)) in outcomes.iter().enumerate() {
            let kind = [OpKind::Query, OpKind::PublishEvent][i % 2];
            chain.push(kind, SimInstant(i as u64), [outcome], &[traffic]);
        }
        chain
    }

    #[test]
    fn equal_operations_give_equal_chains_and_the_first_change_parts_them() {
        let a = chain(&[(1, 10), (2, 20), (3, 30), (4, 40)]);
        assert_eq!(
            a.links(),
            chain(&[(1, 10), (2, 20), (3, 30), (4, 40)]).links()
        );
        assert_eq!(a.first_divergence(&a.clone()), None);
        // The third operation's outcome moved; everything after it agrees.
        let b = chain(&[(1, 10), (2, 20), (9, 30), (4, 40)]);
        assert_eq!(a.first_divergence(&b), Some(2));
        assert_eq!(b.first_divergence(&a), Some(2));
        assert_eq!(a.links()[..2], b.links()[..2]);
    }

    #[test]
    fn counters_fold_their_growth_and_a_longer_chain_parts_at_its_end() {
        // Traffic moved from the second operation to the first: the same
        // totals, different growths.
        let a = chain(&[(1, 10), (2, 20)]);
        let b = chain(&[(1, 15), (2, 20)]);
        assert_eq!(a.first_divergence(&b), Some(0));
        let longer = chain(&[(1, 10), (2, 20), (3, 30)]);
        assert_eq!(a.first_divergence(&longer), Some(2));
        assert_eq!(OpChain::new().first_divergence(&OpChain::new()), None);
        assert_eq!(OpChain::new().head(), CHAIN_SEED);
    }
}
