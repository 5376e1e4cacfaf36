//! A map commit reads its backend's length only to learn whether the
//! commit moved the size across zero. A boosted backend's length locks
//! every shard, so a commit whose applies net to no size change must not
//! read it; a TVar backend's is one var read, which the simulated figures
//! charge to every commit, so it stays.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use stm::{atomic, Txn};
use txcollections::{MapApplyOps, MapReadOps, TransactionalMap};
use txstruct::{BoostedHashMap, TxHashMap};

/// A backend that counts its `len` calls and delegates everything else.
struct LenCounting<B> {
    inner: B,
    lens: Arc<AtomicUsize>,
}

impl<K, V, B: MapReadOps<K, V>> MapReadOps<K, V> for LenCounting<B> {
    const TRANSACTIONAL_READS: bool = B::TRANSACTIONAL_READS;
    fn get(&self, tx: &mut Txn, key: &K) -> Option<V> {
        self.inner.get(tx, key)
    }
    fn contains_key(&self, tx: &mut Txn, key: &K) -> bool {
        self.inner.contains_key(tx, key)
    }
    fn len(&self, tx: &mut Txn) -> usize {
        self.lens.fetch_add(1, Ordering::SeqCst);
        self.inner.len(tx)
    }
    fn keys(&self, tx: &mut Txn) -> Vec<K> {
        self.inner.keys(tx)
    }
}

impl<K, V, B: MapApplyOps<K, V>> MapApplyOps<K, V> for LenCounting<B> {
    fn insert(&self, tx: &mut Txn, key: K, value: V) -> Option<V> {
        self.inner.insert(tx, key, value)
    }
    fn remove(&self, tx: &mut Txn, key: &K) -> Option<V> {
        self.inner.remove(tx, key)
    }
}

/// `len` calls made by each of five commits on a map wrapping `backend`:
/// inserting, replace-only, net-zero (one remove, one insert), removing
/// and read-only.
fn len_reads_per_commit<B>(backend: B) -> [usize; 5]
where
    B: MapApplyOps<u64, u64>,
{
    let lens = Arc::new(AtomicUsize::new(0));
    let map = TransactionalMap::wrap(LenCounting {
        inner: backend,
        lens: Arc::clone(&lens),
    });
    let mut reads = [0; 5];
    let mut commit = |i: usize, body: &dyn Fn(&mut Txn)| {
        lens.store(0, Ordering::SeqCst);
        atomic(|tx| body(tx));
        reads[i] = lens.load(Ordering::SeqCst);
    };
    commit(0, &|tx| (0..8).for_each(|k| map.put_discard(tx, k, k)));
    commit(1, &|tx| (0..8).for_each(|k| map.put_discard(tx, k, k + 1)));
    commit(2, &|tx| {
        map.remove_discard(tx, &0);
        map.put_discard(tx, 100, 0);
    });
    commit(3, &|tx| map.remove_discard(tx, &1));
    commit(4, &|tx| assert_eq!(map.get(tx, &2), Some(3)));
    assert_eq!(
        atomic(|tx| map.size(tx)),
        7,
        "the commits above net to 7 keys"
    );
    reads
}

#[test]
fn boosted_commit_reads_length_only_when_the_size_moves() {
    let reads = len_reads_per_commit(BoostedHashMap::<u64, u64>::new());
    assert_eq!(
        reads,
        [1, 0, 0, 1, 0],
        "len calls per commit: inserting, replace-only, net-zero, removing, read-only"
    );
}

#[test]
fn tvar_commit_reads_length_once_per_commit() {
    let reads = len_reads_per_commit(TxHashMap::<u64, u64>::new());
    assert_eq!(
        reads,
        [1, 1, 1, 1, 1],
        "len calls per commit: inserting, replace-only, net-zero, removing, read-only"
    );
}
