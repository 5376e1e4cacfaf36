//! The map iterator's completeness check (paper Table 2,
//! `entrySet.iterator`): an exhausted enumeration must equal the committed
//! key set at the moment it takes the size lock.

use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use txcollections::{MapBackend, TransactionalMap};

/// A key committed between `iter()` and exhaustion is missing from the
/// enumeration's key snapshot and covered by none of its locks: only the
/// completeness check at exhaustion can notice it. It must force the
/// enumerating attempt to retry, and the retry must return the new key.
#[test]
fn key_committed_mid_iteration_forces_a_retry_that_sees_it() {
    fn check<B: MapBackend<u32, String>>(m: TransactionalMap<u32, String, B>, backend: &str) {
        stm::atomic(|tx| {
            for k in 1..=3 {
                m.put_discard(tx, k, format!("v{k}"));
            }
        });
        let attempts = AtomicUsize::new(0);
        let mut keys = stm::atomic(|tx| {
            let first = attempts.fetch_add(1, Ordering::SeqCst) == 0;
            let mut it = m.iter(tx);
            let mut keys: Vec<u32> = it.next(tx).into_iter().map(|(k, _)| k).collect();
            if first {
                let w = m.clone();
                std::thread::spawn(move || stm::atomic(|tx| w.put(tx, 99, "new".into())))
                    .join()
                    .expect("writer thread");
            }
            while let Some((k, _)) = it.next(tx) {
                keys.push(k);
            }
            keys
        });
        keys.sort_unstable();
        assert_eq!(
            attempts.load(Ordering::SeqCst),
            2,
            "{backend}: the incomplete enumeration must retry once"
        );
        assert_eq!(
            keys,
            [1, 2, 3, 99],
            "{backend}: the retry must see the new key"
        );
    }
    check(TransactionalMap::new(), "TVar");
    check(TransactionalMap::boosted(), "boosted");
}

/// The completeness check compares counts, not key sets: it relies on the
/// key lock of every visited key. Another transaction that removes a
/// visited key and adds a fresh one leaves the size unchanged, so the
/// counts agree at exhaustion; the removal must doom the enumerating
/// attempt instead, and the retry must return the new key set.
#[test]
fn visited_key_swapped_mid_iteration_dooms_the_attempt() {
    fn check<B: MapBackend<u32, String>>(m: TransactionalMap<u32, String, B>, backend: &str) {
        stm::atomic(|tx| {
            for k in 1..=3 {
                m.put_discard(tx, k, format!("v{k}"));
            }
        });
        let attempts = AtomicUsize::new(0);
        let removed = AtomicU32::new(0);
        let mut keys = stm::atomic(|tx| {
            let first = attempts.fetch_add(1, Ordering::SeqCst) == 0;
            let mut it = m.iter(tx);
            let mut keys: Vec<u32> = it.next(tx).into_iter().map(|(k, _)| k).collect();
            if first {
                let (w, visited) = (m.clone(), keys[0]);
                removed.store(visited, Ordering::SeqCst);
                std::thread::spawn(move || {
                    stm::atomic(|tx| {
                        w.remove_discard(tx, &visited);
                        w.put_discard(tx, 99, "new".into());
                    })
                })
                .join()
                .expect("writer thread");
            }
            while let Some((k, _)) = it.next(tx) {
                keys.push(k);
            }
            keys
        });
        keys.sort_unstable();
        assert_eq!(
            attempts.load(Ordering::SeqCst),
            2,
            "{backend}: the attempt that visited the removed key must not commit"
        );
        let removed = removed.load(Ordering::SeqCst);
        let expected: Vec<u32> = (1..=3).filter(|&k| k != removed).chain([99]).collect();
        assert_eq!(
            keys, expected,
            "{backend}: the retry must see the new key set"
        );
    }
    check(TransactionalMap::new(), "TVar");
    check(TransactionalMap::boosted(), "boosted");
}

/// `entries()` snapshots the keys without their values, then reads each
/// value live under its key lock: one clone per value, on both backends.
#[test]
fn entries_clones_each_value_once() {
    static CLONES: AtomicUsize = AtomicUsize::new(0);
    struct Counted;
    impl Clone for Counted {
        fn clone(&self) -> Self {
            CLONES.fetch_add(1, Ordering::Relaxed);
            Counted
        }
    }
    fn check<B: MapBackend<u32, Counted>>(m: TransactionalMap<u32, Counted, B>, backend: &str) {
        const N: usize = 1_000;
        stm::atomic(|tx| {
            for k in 0..N as u32 {
                m.put_discard(tx, k, Counted);
            }
        });
        CLONES.store(0, Ordering::Relaxed);
        let entries = stm::atomic(|tx| m.entries(tx));
        assert_eq!(entries.len(), N);
        assert_eq!(
            CLONES.load(Ordering::Relaxed),
            N,
            "{backend}: entries() must clone each value once"
        );
    }
    check(TransactionalMap::new(), "TVar");
    check(TransactionalMap::boosted(), "boosted");
}
