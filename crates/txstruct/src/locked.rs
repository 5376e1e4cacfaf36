//! Coarse-grained-lock collections — the "Java" baselines.
//!
//! The paper's Java series use `synchronized` critical sections around plain
//! `java.util` collections. These wrappers reproduce that: each operation
//! takes the collection's mutex for just the duration of the operation, and
//! [`LockHashMap::with_lock`]-style compound sections model holding the lock
//! across several operations (the Figure-3 "coarse grained lock" baseline).

use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::ops::Bound;
use std::sync::Arc;

/// A `Mutex<HashMap>` with per-operation locking, standing in for a
/// synchronized `java.util.HashMap`.
pub struct LockHashMap<K, V> {
    inner: Arc<Mutex<HashMap<K, V>>>,
}

impl<K, V> Clone for LockHashMap<K, V> {
    fn clone(&self) -> Self {
        LockHashMap {
            inner: self.inner.clone(),
        }
    }
}

impl<K: Eq + Hash + Clone, V: Clone> LockHashMap<K, V> {
    /// Create an empty map.
    pub fn new() -> Self {
        LockHashMap {
            inner: Arc::new(Mutex::new(HashMap::new())),
        }
    }

    /// Look up a key (one short critical section).
    pub fn get(&self, key: &K) -> Option<V> {
        self.inner.lock().get(key).cloned()
    }

    /// Insert or replace.
    pub fn insert(&self, key: K, value: V) -> Option<V> {
        self.inner.lock().insert(key, value)
    }

    /// Remove a key.
    pub fn remove(&self, key: &K) -> Option<V> {
        self.inner.lock().remove(key)
    }

    /// Whether a key is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.inner.lock().contains_key(key)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// Whether empty.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }

    /// Run a compound operation while holding the lock — the coarse-grained
    /// composition idiom of Figure 3.
    pub fn with_lock<T>(&self, f: impl FnOnce(&mut HashMap<K, V>) -> T) -> T {
        f(&mut self.inner.lock())
    }
}

impl<K: Eq + Hash + Clone, V: Clone> Default for LockHashMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

/// A `Mutex<BTreeMap>` standing in for a synchronized `java.util.TreeMap`.
pub struct LockTreeMap<K, V> {
    inner: Arc<Mutex<BTreeMap<K, V>>>,
}

impl<K, V> Clone for LockTreeMap<K, V> {
    fn clone(&self) -> Self {
        LockTreeMap {
            inner: self.inner.clone(),
        }
    }
}

impl<K: Ord + Clone, V: Clone> LockTreeMap<K, V> {
    /// Create an empty map.
    pub fn new() -> Self {
        LockTreeMap {
            inner: Arc::new(Mutex::new(BTreeMap::new())),
        }
    }

    /// Look up a key.
    pub fn get(&self, key: &K) -> Option<V> {
        self.inner.lock().get(key).cloned()
    }

    /// Insert or replace.
    pub fn insert(&self, key: K, value: V) -> Option<V> {
        self.inner.lock().insert(key, value)
    }

    /// Remove a key.
    pub fn remove(&self, key: &K) -> Option<V> {
        self.inner.lock().remove(key)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// Whether the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }

    /// Smallest key.
    pub fn first_key(&self) -> Option<K> {
        self.inner.lock().keys().next().cloned()
    }

    /// Largest key.
    pub fn last_key(&self) -> Option<K> {
        self.inner.lock().keys().next_back().cloned()
    }

    /// Entries in `[lower, upper)`-style bounds, in order.
    pub fn range_entries(&self, lower: Bound<K>, upper: Bound<K>) -> Vec<(K, V)> {
        self.inner
            .lock()
            .range((lower, upper))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Run a compound operation while holding the lock.
    pub fn with_lock<T>(&self, f: impl FnOnce(&mut BTreeMap<K, V>) -> T) -> T {
        f(&mut self.inner.lock())
    }
}

impl<K: Ord + Clone, V: Clone> Default for LockTreeMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_hashmap_basic() {
        let m = LockHashMap::new();
        assert_eq!(m.insert(1, "a"), None);
        assert_eq!(m.insert(1, "b"), Some("a"));
        assert_eq!(m.get(&1), Some("b"));
        assert_eq!(m.remove(&1), Some("b"));
        assert!(m.is_empty());
    }

    #[test]
    fn lock_hashmap_compound_is_atomic() {
        let m = Arc::new(LockHashMap::new());
        m.insert(0u32, 0u32);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let m = m.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        m.with_lock(|inner| {
                            let v = *inner.get(&0).unwrap();
                            inner.insert(0, v + 1);
                        });
                    }
                });
            }
        });
        assert_eq!(m.get(&0), Some(4000));
    }

    #[test]
    fn lock_treemap_ranges() {
        let m = LockTreeMap::new();
        for k in 0..10 {
            m.insert(k, k);
        }
        let r = m.range_entries(Bound::Included(2), Bound::Excluded(5));
        assert_eq!(r, vec![(2, 2), (3, 3), (4, 4)]);
        assert_eq!(m.first_key(), Some(0));
        assert_eq!(m.last_key(), Some(9));
    }
}
