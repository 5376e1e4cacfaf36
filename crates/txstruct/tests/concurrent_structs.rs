//! Concurrency stress for the substrates: the red-black tree keeps its
//! invariants under real-thread transactional mutation, the hash map stays
//! consistent for snapshot readers while concurrent writers resize it, and
//! the segmented map linearizes per segment.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use stm::{atomic, atomic_read};
use txstruct::{SegmentedTxHashMap, TxHashMap, TxTreeMap, TxVecDeque};

#[test]
fn treemap_invariants_survive_concurrent_mutation() {
    let t: Arc<TxTreeMap<u64, u64>> = Arc::new(TxTreeMap::new());
    std::thread::scope(|s| {
        for w in 0..4u64 {
            let t = t.clone();
            s.spawn(move || {
                let mut x = 0x1234_5678u64 ^ (w << 8);
                for _ in 0..250 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let k = x % 96;
                    atomic(|tx| {
                        if x.is_multiple_of(3) {
                            t.remove(tx, &k);
                        } else {
                            t.insert(tx, k, x);
                        }
                    });
                }
            });
        }
    });
    atomic(|tx| t.check_invariants(tx)).expect("red-black invariants broken by concurrency");
    // Ordered iteration is still sorted and duplicate-free.
    let entries = atomic(|tx| t.entries(tx));
    let keys: Vec<u64> = entries.iter().map(|(k, _)| *k).collect();
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(keys, sorted);
    assert_eq!(atomic(|tx| t.len(tx)), keys.len());
}

#[test]
fn treemap_multi_op_transactions_are_atomic() {
    // Each transaction inserts a pair and removes a pair: the tree size is
    // invariant at every commit point.
    let t: Arc<TxTreeMap<u64, u64>> = Arc::new(TxTreeMap::new());
    atomic(|tx| {
        for k in 0..40 {
            t.insert(tx, k, k);
        }
    });
    std::thread::scope(|s| {
        for w in 0..3u64 {
            let t = t.clone();
            s.spawn(move || {
                for i in 0..150u64 {
                    let base = 1000 + w * 10_000 + i;
                    atomic(|tx| {
                        t.insert(tx, base, i);
                        t.insert(tx, base + 5000, i);
                        t.remove(tx, &base);
                        t.remove(tx, &(base + 5000));
                    });
                }
            });
        }
    });
    assert_eq!(
        atomic(|tx| t.len(tx)),
        40,
        "net-zero transactions leaked size"
    );
    atomic(|tx| t.check_invariants(tx)).unwrap();
}

#[test]
fn hash_map_resizes_under_concurrent_writers_and_snapshot_scans() {
    // Each writer inserts its keys in order; after each insert the previous
    // key either goes (every third) or takes its final value.
    const KEYS: u64 = 150;
    let key = |w: u64, i: u64| w * 1_000_000 + i;
    let absent = |i: u64| 2_000_000 + i;
    let m: TxHashMap<u64, u64> = TxHashMap::with_capacity(2);
    let start = Barrier::new(3);
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let writers: Vec<_> = (0..2u64)
            .map(|w| {
                let (m, start) = (&m, &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..KEYS {
                        atomic(|tx| m.insert(tx, key(w, i), 0));
                        if let Some(j) = i.checked_sub(1) {
                            atomic(|tx| {
                                if j % 3 == 0 {
                                    m.remove(tx, &key(w, j));
                                } else {
                                    m.insert(tx, key(w, j), j + 1);
                                }
                            });
                        }
                    }
                })
            })
            .collect();
        s.spawn(|| {
            start.wait();
            for i in 0.. {
                let finished = done.load(Ordering::SeqCst);
                let (len, entries) = atomic_read(|tx| (m.len(tx), m.entries(tx)));
                assert_eq!(len, entries.len(), "a scan's size and its entries disagree");
                let mut keys: Vec<u64> = entries.into_iter().map(|(k, _)| k).collect();
                keys.sort_unstable();
                keys.dedup();
                assert_eq!(len, keys.len(), "a scan saw a key twice");
                assert_eq!(atomic_read(|tx| m.get(tx, &absent(i % 64))), None);
                if finished {
                    break;
                }
            }
        });
        // Stop the scanner before checking the writers, so that a writer's
        // panic cannot leave it scanning forever.
        let joined: Vec<_> = writers.into_iter().map(|w| w.join()).collect();
        done.store(true, Ordering::SeqCst);
        assert!(joined.iter().all(Result::is_ok), "a writer panicked");
    });
    // The last key of each writer keeps the value it was inserted with.
    let mut want: Vec<(u64, u64)> = (0..2u64)
        .flat_map(|w| {
            let last = (key(w, KEYS - 1), 0);
            (0..KEYS - 1)
                .filter(|j| j % 3 != 0)
                .map(move |j| (key(w, j), j + 1))
                .chain([last])
        })
        .collect();
    want.sort_unstable();
    let (mut got, buckets) = atomic(|tx| (m.entries(tx), tx.read_set_len() - 1));
    got.sort_unstable();
    assert_eq!(got, want, "lost, duplicated or stale entries");
    // The table only doubles: 2 buckets to at least 128 is 6 resizes.
    assert!(buckets >= 2 << 6, "only {buckets} buckets");
}

#[test]
fn segmented_map_concurrent_counters_are_exact() {
    let m: Arc<SegmentedTxHashMap<u64, u64>> = Arc::new(SegmentedTxHashMap::new(16));
    let keys = 32u64;
    atomic(|tx| {
        for k in 0..keys {
            m.insert(tx, k, 0);
        }
    });
    std::thread::scope(|s| {
        for w in 0..4u64 {
            let m = m.clone();
            s.spawn(move || {
                for i in 0..300u64 {
                    let k = (w * 300 + i) % keys;
                    atomic(|tx| {
                        let v = m.get(tx, &k).unwrap();
                        m.insert(tx, k, v + 1);
                    });
                }
            });
        }
    });
    let total: u64 = atomic(|tx| m.entries(tx).into_iter().map(|(_, v)| v).sum());
    assert_eq!(total, 4 * 300, "lost updates in segmented map");
}

#[test]
fn deque_concurrent_producers_consumers_conserve() {
    let q: Arc<TxVecDeque<u64>> = Arc::new(TxVecDeque::new());
    let consumed = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let n = 500u64;
    std::thread::scope(|s| {
        for p in 0..2u64 {
            let q = q.clone();
            s.spawn(move || {
                for i in 0..n / 2 {
                    let item = p * (n / 2) + i;
                    atomic(|tx| q.push_back(tx, item));
                }
            });
        }
        for _ in 0..2 {
            let q = q.clone();
            let consumed = consumed.clone();
            s.spawn(move || {
                let mut idle = 0;
                while idle < 300 {
                    match atomic(|tx| q.pop_front(tx)) {
                        Some(x) => {
                            consumed.lock().push(x);
                            idle = 0;
                        }
                        None => {
                            idle += 1;
                            std::thread::yield_now();
                        }
                    }
                }
            });
        }
    });
    let mut got = consumed.lock().clone();
    got.extend(atomic(|tx| q.to_vec(tx)));
    got.sort_unstable();
    let want: Vec<u64> = (0..n).collect();
    assert_eq!(got, want, "deque lost or duplicated items");
}
