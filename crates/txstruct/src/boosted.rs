//! `BoostedHashMap` — a genuinely concurrent sharded hash map with **no
//! TVars on the hot path**, the "boosted" backend of the collection seam.
//!
//! Every other structure in this crate is built from [`stm::TVar`] cells so
//! its memory accesses participate in the enclosing transaction. This one
//! deliberately is not: it is the underlay for transactional *boosting*
//! (Proust's design point, and the production half of the paper's "wrap
//! existing data structures" claim), where the wrapper's semantic locks and
//! commit/abort handlers provide *all* isolation and the wrapped structure
//! only needs to be linearizable on its own operations. Operations here
//! take no `&mut Txn` at all — the `txcollections` backend seam discards
//! the transaction when delegating to this type.
//!
//! Structure: a power-of-two array of shards, each a
//! [`parking_lot::Mutex`]`<`[`StripeMap`]`<K, V>>`. Point operations lock
//! exactly one shard for a few nanoseconds; whole-map operations (`len`,
//! `entries`) visit shards in ascending index order (one lock held at a
//! time), which is consistent *enough* because the semantic layer
//! serializes every committed mutation through the stm handler lane and
//! dooms any observer whose semantic lock the mutation invalidates — the
//! same two-case argument that covers the TVar backends (see
//! `docs/PROTOCOL.md`).
//!
//! Hashing: a point operation makes one [`StripeHasher`] pass to choose
//! the shard ([`stripe_index`], which folds the hash's high half into the
//! low bits it masks) and one more inside the shard's table, which keys
//! its buckets with the same unfolded hash. Keys of one shard agree on the
//! folded low bits, not on the raw ones, so they still spread over the
//! shard's buckets.
//!
//! [`StripeHasher`]: stm::hash::StripeHasher

use parking_lot::Mutex;
use std::hash::Hash;
use stm::hash::{stripe_index, StripeMap};

const DEFAULT_SHARDS: usize = 16;

/// Sharded concurrent hash map; see the module docs. Cheap point
/// operations, no transactional instrumentation — pair it with a
/// `txcollections` wrapper (e.g. `TransactionalMap::boosted()`) to use it
/// from transactions.
pub struct BoostedHashMap<K, V> {
    shards: Box<[Mutex<StripeMap<K, V>>]>,
}

impl<K, V> BoostedHashMap<K, V>
where
    K: Eq + Hash,
{
    /// Create with the default shard count (16).
    pub fn new() -> Self {
        Self::with_shards(DEFAULT_SHARDS)
    }

    /// Create with an explicit shard count (rounded up to a power of two,
    /// minimum 1).
    pub fn with_shards(nshards: usize) -> Self {
        let n = nshards.max(1).next_power_of_two();
        BoostedHashMap {
            shards: (0..n).map(|_| Mutex::default()).collect(),
        }
    }

    /// Number of shards (always a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_of(&self, key: &K) -> &Mutex<StripeMap<K, V>> {
        &self.shards[stripe_index(key, self.shards.len())]
    }

    /// Look up a key.
    #[must_use]
    pub fn get(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        self.shard_of(key).lock().get(key).cloned()
    }

    /// Whether a key is present.
    #[must_use]
    pub fn contains_key(&self, key: &K) -> bool {
        self.shard_of(key).lock().contains_key(key)
    }

    /// Insert or replace; returns the previous value.
    pub fn insert(&self, key: K, value: V) -> Option<V> {
        self.shard_of(&key).lock().insert(key, value)
    }

    /// Remove a key; returns the previous value.
    pub fn remove(&self, key: &K) -> Option<V> {
        self.shard_of(key).lock().remove(key)
    }

    /// Number of entries: per-shard counts summed shard-by-shard (ascending,
    /// one lock held at a time). Not a point-in-time snapshot on its own —
    /// the semantic layer's size lock plus the handler lane make it one.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Whether empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of all entries (arbitrary order), collected shard-by-shard.
    #[must_use]
    pub fn entries(&self) -> Vec<(K, V)>
    where
        K: Clone,
        V: Clone,
    {
        let mut out = Vec::new();
        for s in self.shards.iter() {
            let m = s.lock();
            out.extend(m.iter().map(|(k, v)| (k.clone(), v.clone())));
        }
        out
    }

    /// Snapshot of all keys (arbitrary order), collected shard-by-shard
    /// like [`entries`](Self::entries), cloning no value.
    #[must_use]
    pub fn keys(&self) -> Vec<K>
    where
        K: Clone,
    {
        let mut out = Vec::new();
        for s in self.shards.iter() {
            out.extend(s.lock().keys().cloned());
        }
        out
    }
}

impl<K, V> Default for BoostedHashMap<K, V>
where
    K: Eq + Hash,
{
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_ops_roundtrip() {
        let m: BoostedHashMap<u64, String> = BoostedHashMap::new();
        assert_eq!(m.insert(1, "a".into()), None);
        assert_eq!(m.insert(1, "b".into()), Some("a".into()));
        assert_eq!(m.get(&1).as_deref(), Some("b"));
        assert!(m.contains_key(&1));
        assert_eq!(m.len(), 1);
        assert_eq!(m.remove(&1).as_deref(), Some("b"));
        assert!(m.is_empty());
    }

    #[test]
    fn shard_count_rounds_up() {
        let m: BoostedHashMap<u64, u64> = BoostedHashMap::with_shards(5);
        assert_eq!(m.shard_count(), 8);
        let m: BoostedHashMap<u64, u64> = BoostedHashMap::with_shards(0);
        assert_eq!(m.shard_count(), 1);
    }

    #[test]
    fn entries_cover_all_shards() {
        let m: BoostedHashMap<u64, u64> = BoostedHashMap::with_shards(4);
        for k in 0..64 {
            assert_eq!(m.insert(k, k * 10), None);
        }
        let mut es = m.entries();
        es.sort_unstable();
        assert_eq!(es.len(), 64);
        assert!(es.iter().all(|(k, v)| *v == *k * 10));
        assert_eq!(m.len(), 64);
    }

    #[test]
    fn concurrent_inserts_are_linearizable_per_key() {
        use std::sync::Arc;
        let m: Arc<BoostedHashMap<u64, u64>> = Arc::new(BoostedHashMap::new());
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let m = m.clone();
                s.spawn(move || {
                    for i in 0..500u64 {
                        let k = t * 1000 + (i % 100);
                        let cur = m.get(&k).unwrap_or(0);
                        let _ = m.insert(k, cur + 1);
                    }
                });
            }
        });
        // Disjoint key ranges: every thread's reads and writes were
        // uncontended, so each key counted all the way up.
        assert_eq!(m.len(), 400);
    }
}
