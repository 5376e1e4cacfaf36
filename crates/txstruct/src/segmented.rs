//! A segmented transactional hash map, modeled on the original
//! `java.util.concurrent.ConcurrentHashMap` design.
//!
//! The paper (§2.4) discusses this structure as the conventional remedy for
//! size-field contention: N independent segments, each with its own table
//! and its own size counter, selected by the high bits of the hash. It then
//! argues the remedy is only statistical — "the more updates to the hash
//! table, the more segments likely to be touched. If two long-running
//! transactions perform a number of insert or remove operations on different
//! keys, there is a large probability that at least one key from each
//! transaction will end up in the same segment."
//!
//! This type exists to reproduce that argument quantitatively (the
//! `ablation_segmented` bench): it genuinely spreads single-op transactions,
//! and genuinely fails for multi-op long transactions.

use crate::hashmap::TxHashMap;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use stm::Txn;

/// A hash map split into independently synchronized segments.
pub struct SegmentedTxHashMap<K, V> {
    segments: Vec<TxHashMap<K, V>>,
    shift: u32,
}

impl<K, V> Clone for SegmentedTxHashMap<K, V> {
    fn clone(&self) -> Self {
        SegmentedTxHashMap {
            segments: self.segments.clone(),
            shift: self.shift,
        }
    }
}

/// The segment hash. SipHash, like `TxHashMap`'s bucket index: the
/// segment choice decides which keys share a conflict unit.
fn spread<K: Hash + ?Sized>(key: &K) -> u64 {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    h.finish()
}

impl<K, V> SegmentedTxHashMap<K, V>
where
    K: Clone + Eq + Hash + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    /// Create a map with `segments` independent segments (rounded up to a
    /// power of two; ConcurrentHashMap's default level is 16).
    pub fn new(segments: usize) -> Self {
        let n = segments.next_power_of_two().max(1);
        SegmentedTxHashMap {
            segments: (0..n).map(|_| TxHashMap::new()).collect(),
            shift: 64 - n.trailing_zeros(),
        }
    }

    /// Create with per-segment initial capacity.
    pub fn with_capacity(segments: usize, capacity_per_segment: usize) -> Self {
        let n = segments.next_power_of_two().max(1);
        SegmentedTxHashMap {
            segments: (0..n)
                .map(|_| TxHashMap::with_capacity(capacity_per_segment))
                .collect(),
            shift: 64 - n.trailing_zeros(),
        }
    }

    /// Number of segments.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    fn segment_for(&self, key: &K) -> &TxHashMap<K, V> {
        // High bits select the segment, low bits the bucket within it.
        let idx = if self.segments.len() == 1 {
            0
        } else {
            (spread(key) >> self.shift) as usize
        };
        &self.segments[idx]
    }

    /// Look up a key (touches one segment).
    pub fn get(&self, tx: &mut Txn, key: &K) -> Option<V> {
        self.segment_for(key).get(tx, key)
    }

    /// Whether a key is present.
    pub fn contains_key(&self, tx: &mut Txn, key: &K) -> bool {
        self.segment_for(key).contains_key(tx, key)
    }

    /// Insert or replace (touches one segment's size field).
    pub fn insert(&self, tx: &mut Txn, key: K, value: V) -> Option<V> {
        self.segment_for(&key).insert(tx, key, value)
    }

    /// Remove a key.
    pub fn remove(&self, tx: &mut Txn, key: &K) -> Option<V> {
        self.segment_for(key).remove(tx, key)
    }

    /// Total size. Like `ConcurrentHashMap.size()`, this must visit every
    /// segment — a full-map dependency.
    pub fn len(&self, tx: &mut Txn) -> usize {
        self.segments.iter().map(|s| s.len(tx)).sum()
    }

    /// Whether the map is empty (visits every segment).
    pub fn is_empty(&self, tx: &mut Txn) -> bool {
        self.len(tx) == 0
    }

    /// Snapshot all entries.
    pub fn entries(&self, tx: &mut Txn) -> Vec<(K, V)> {
        let mut out = Vec::new();
        for s in &self.segments {
            out.extend(s.entries(tx));
        }
        out
    }

    /// Snapshot all keys, cloning no value.
    pub fn keys(&self, tx: &mut Txn) -> Vec<K> {
        let mut out = Vec::new();
        for s in &self.segments {
            out.extend(s.keys(tx));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stm::atomic;

    #[test]
    fn routes_by_segment_and_finds_keys() {
        let m: SegmentedTxHashMap<u32, u32> = SegmentedTxHashMap::new(8);
        atomic(|tx| {
            for k in 0..100 {
                m.insert(tx, k, k + 1);
            }
        });
        atomic(|tx| {
            for k in 0..100 {
                assert_eq!(m.get(tx, &k), Some(k + 1));
            }
            assert_eq!(m.len(tx), 100);
        });
    }

    #[test]
    fn remove_updates_one_segment() {
        let m: SegmentedTxHashMap<u32, u32> = SegmentedTxHashMap::new(4);
        atomic(|tx| {
            m.insert(tx, 1, 1);
            m.insert(tx, 2, 2);
        });
        atomic(|tx| {
            assert_eq!(m.remove(tx, &1), Some(1));
            assert_eq!(m.remove(tx, &1), None);
            assert_eq!(m.len(tx), 1);
        });
    }

    #[test]
    fn single_segment_degenerates_to_plain_map() {
        let m: SegmentedTxHashMap<u32, u32> = SegmentedTxHashMap::new(1);
        assert_eq!(m.segment_count(), 1);
        atomic(|tx| {
            m.insert(tx, 42, 0);
            assert!(m.contains_key(tx, &42));
        });
    }

    #[test]
    fn keys_spread_across_segments() {
        let m: SegmentedTxHashMap<u64, ()> = SegmentedTxHashMap::new(16);
        // Count distinct segments touched by 64 keys: with a decent hash it
        // must be well above 1.
        let mut touched = std::collections::HashSet::new();
        for k in 0..64u64 {
            let seg = m.segment_for(&k) as *const _ as usize;
            touched.insert(seg);
        }
        assert!(
            touched.len() >= 8,
            "only {} segments touched",
            touched.len()
        );
    }
}
