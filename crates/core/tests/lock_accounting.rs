//! Exact lock and conflict accounting of every semantic-locking class.
//!
//! Each test runs one fixed single-threaded script against one class: a
//! reader that takes every lock kind the class has (some twice, so the
//! repeats are lock-cache hits) and stays live, a writer whose commit
//! dooms it, an explicitly aborted transaction, and a plain commit. The
//! per-instance `SemanticStats` counts and the window of process-wide
//! counters the script leaves are pinned exactly: they are what the
//! benchmark's `core.locks.*` and `core.kernel.*` metrics read, so a
//! refactor of the lock tables must leave every one of them where it was.
//! A doom is charged once, to the mode of the sweep that landed it: a
//! victim that later sweeps meet again is neither charged nor traced
//! again, so each instance's conflicts sum to the dooms it issued.
//!
//! The process-wide counters are shared by every test in this binary, so
//! the tests serialize on a file-local mutex.

use std::ops::Bound;
use std::sync::atomic::Ordering;
use std::sync::{Mutex, MutexGuard};
use stm::{AbortCause, StatsSnapshot, Txn};
use txcollections::{
    Channel, EagerPolicy, EagerTransactionalMap, SemanticStats, TransactionalIntervalMap,
    TransactionalMap, TransactionalMultiset, TransactionalPriorityQueue, TransactionalQueue,
    TransactionalSortedMap,
};

static SERIAL: Mutex<()> = Mutex::new(());

fn serialize() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// One instance's lock counters. `conflicts` lists the per-mode conflict
/// counters as `[key, size, range, first, last, empty]`.
#[derive(Debug, PartialEq, Eq)]
struct Locks {
    acquisitions: u64,
    cache_hits: u64,
    global_entries: u64,
    stripe_spins: u64,
    conflicts: [u64; 6],
}

fn locks(s: &SemanticStats) -> Locks {
    let load = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed);
    Locks {
        acquisitions: load(&s.lock_acquisitions),
        cache_hits: load(&s.lock_cache_hits),
        global_entries: load(&s.global_stripe_entries),
        stripe_spins: load(&s.stripe_lock_spins),
        conflicts: [
            load(&s.key_conflicts),
            load(&s.size_conflicts),
            load(&s.range_conflicts),
            load(&s.first_conflicts),
            load(&s.last_conflicts),
            load(&s.empty_conflicts),
        ],
    }
}

/// The process-wide counters a script moved, in the order
/// `[commits, aborts_doomed, aborts_explicit, dooms_issued,
/// lock_cache_hits, global_stripe_entries, handler_runs, lane_entries,
/// open_commits, open_flattened]`.
fn window(before: &StatsSnapshot) -> [u64; 10] {
    let d = stm::global_stats().diff(before);
    [
        d.commits,
        d.aborts_doomed,
        d.aborts_explicit,
        d.dooms_issued,
        d.lock_cache_hits,
        d.global_stripe_entries,
        d.handler_runs,
        d.lane_entries,
        d.open_commits,
        d.open_flattened,
    ]
}

/// `reader` runs and stays live, `writer` commits, then the reader aborts
/// as doomed (it must have been).
fn doomed_by(reader: impl FnOnce(&mut Txn), writer: impl FnOnce(&mut Txn)) {
    let (_, r) = stm::speculate(reader, 0).expect("reader speculation");
    let (_, w) = stm::speculate(writer, 0).expect("writer speculation");
    w.commit();
    assert!(
        r.handle().is_doomed(),
        "the writer's commit dooms the reader"
    );
    r.abort(AbortCause::Doomed);
}

/// Run `body` and abort it explicitly.
fn aborted(body: impl FnOnce(&mut Txn)) {
    let (_, t) = stm::speculate(body, 0).expect("speculation");
    t.abort(AbortCause::Explicit);
}

#[test]
fn map_counts() {
    let _g = serialize();
    let before = stm::global_stats();
    let m: TransactionalMap<u32, u32> = TransactionalMap::new();
    let (r, w) = (m.clone(), m.clone());
    doomed_by(
        move |tx| {
            assert!(r.is_empty_primitive(tx));
            assert_eq!(r.size(tx), 0);
            assert_eq!(r.get(tx, &1), None);
            assert_eq!(r.get(tx, &1), None);
            assert_eq!(r.size(tx), 0);
        },
        move |tx| {
            w.put(tx, 1, 10);
        },
    );
    let a = m.clone();
    aborted(move |tx| {
        assert_eq!(a.get(tx, &1), Some(10));
        a.put_discard(tx, 2, 20);
        assert_eq!(a.size(tx), 2);
    });
    stm::atomic(|tx| m.put_discard(tx, 3, 30));
    assert_eq!(
        locks(m.semantic_stats()),
        Locks {
            acquisitions: 7,
            cache_hits: 2,
            global_entries: 7,
            stripe_spins: 0,
            conflicts: [1, 0, 0, 0, 0, 0],
        }
    );
    assert_eq!(window(&before), [2, 1, 1, 1, 2, 7, 4, 4, 0, 9]);
}

#[test]
fn sorted_map_counts() {
    let _g = serialize();
    let before = stm::global_stats();
    let m: TransactionalSortedMap<u32, u32> = TransactionalSortedMap::new();
    stm::atomic(|tx| {
        for k in [10, 20, 30] {
            m.put_discard(tx, k, k);
        }
    });
    let (r, w) = (m.clone(), m.clone());
    doomed_by(
        move |tx| {
            assert_eq!(r.first_key(tx), Some(10));
            assert_eq!(r.last_key(tx), Some(30));
            let mid = r.range_entries(tx, Bound::Included(15), Bound::Included(25));
            assert_eq!(mid, vec![(20, 20)]);
            assert_eq!(r.size(tx), 3);
            assert_eq!(r.first_key(tx), Some(10));
            assert!(!r.is_empty_primitive(tx));
        },
        move |tx| {
            w.put(tx, 5, 5);
            w.put(tx, 20, 21);
            w.put(tx, 40, 40);
            w.remove(tx, &30);
        },
    );
    let a = m.clone();
    aborted(move |tx| {
        assert_eq!(a.entries(tx).len(), 4);
        assert_eq!(a.ceiling_key(tx, &6), Some(10));
    });
    stm::atomic(|tx| m.first_key(tx));
    assert_eq!(
        locks(m.semantic_stats()),
        Locks {
            acquisitions: 21,
            cache_hits: 2,
            global_entries: 23,
            stripe_spins: 0,
            conflicts: [1, 0, 0, 0, 0, 0],
        }
    );
    assert_eq!(window(&before), [3, 1, 1, 1, 2, 23, 5, 5, 0, 30]);
}

#[test]
fn multiset_counts() {
    let _g = serialize();
    let before = stm::global_stats();
    let s: TransactionalMultiset<u32> = TransactionalMultiset::new();
    let (r, w) = (s.clone(), s.clone());
    doomed_by(
        move |tx| {
            assert_eq!(r.count(tx, &1), 0);
            assert_eq!(r.count(tx, &1), 0);
            assert_eq!(r.len(tx), 0);
            assert_eq!(r.len(tx), 0);
            assert!(r.is_empty_primitive(tx));
        },
        move |tx| {
            w.add(tx, 1);
            w.add(tx, 2);
        },
    );
    let a = s.clone();
    aborted(move |tx| {
        assert!(a.remove_one(tx, &1));
        assert_eq!(a.len(tx), 1);
    });
    stm::atomic(|tx| s.add(tx, 3));
    assert_eq!(
        locks(s.semantic_stats()),
        Locks {
            acquisitions: 5,
            cache_hits: 2,
            global_entries: 7,
            stripe_spins: 0,
            conflicts: [1, 0, 0, 0, 0, 0],
        }
    );
    assert_eq!(window(&before), [2, 1, 1, 1, 2, 7, 4, 4, 0, 7]);
}

#[test]
fn priority_queue_counts() {
    let _g = serialize();
    let before = stm::global_stats();
    let q: TransactionalPriorityQueue<u32> = TransactionalPriorityQueue::new();
    let (r, w) = (q.clone(), q.clone());
    doomed_by(
        move |tx| {
            assert_eq!(r.peek_min(tx), None);
            assert_eq!(r.len(tx), 0);
            assert!(r.is_empty_primitive(tx));
        },
        move |tx| {
            w.insert(tx, 5);
            w.insert(tx, 7);
        },
    );
    let a = q.clone();
    aborted(move |tx| {
        assert_eq!(a.peek_min(tx), Some(5));
        assert_eq!(a.pop_min(tx), Some(5));
        assert_eq!(a.len(tx), 1);
    });
    stm::atomic(|tx| q.pop_min(tx));
    assert_eq!(
        locks(q.semantic_stats()),
        Locks {
            acquisitions: 8,
            cache_hits: 3,
            global_entries: 10,
            stripe_spins: 0,
            conflicts: [0, 0, 0, 1, 0, 0],
        }
    );
    assert_eq!(window(&before), [2, 1, 1, 1, 3, 10, 4, 4, 0, 7]);
}

#[test]
fn interval_map_counts() {
    let _g = serialize();
    let before = stm::global_stats();
    let m: TransactionalIntervalMap<u32, u32> = TransactionalIntervalMap::new();
    let (r, w) = (m.clone(), m.clone());
    doomed_by(
        move |tx| {
            assert!(r.stab(tx, &5).is_empty());
            assert!(r.overlapping(tx, 0, 3).is_empty());
            assert_eq!(r.len(tx), 0);
            assert!(r.is_empty_primitive(tx));
        },
        move |tx| {
            w.insert(tx, 4, 8, 1);
        },
    );
    let a = m.clone();
    aborted(move |tx| {
        let id = a.stab(tx, &6)[0].0;
        a.insert(tx, 0, 1, 2);
        assert!(a.remove(tx, id));
        assert_eq!(a.len(tx), 1);
    });
    stm::atomic(|tx| m.insert(tx, 10, 12, 3));
    assert_eq!(m.locked_range_count(), 0);
    assert_eq!(
        locks(m.semantic_stats()),
        Locks {
            acquisitions: 7,
            cache_hits: 0,
            global_entries: 12,
            stripe_spins: 0,
            conflicts: [0, 0, 1, 0, 0, 0],
        }
    );
    assert_eq!(window(&before), [2, 1, 1, 1, 0, 12, 4, 4, 0, 8]);
}

/// The queue's conflicts are read through `total()`: which per-mode
/// counter a fullness doom lands in is not part of what is pinned here.
#[test]
fn queue_counts() {
    let _g = serialize();
    let before = stm::global_stats();
    let q: TransactionalQueue<u32> = TransactionalQueue::bounded(2);
    // An emptiness observer, doomed by a producing commit.
    let (r, w) = (q.clone(), q.clone());
    doomed_by(
        move |tx| {
            assert_eq!(r.poll(tx), None);
            assert_eq!(r.peek(tx), None);
        },
        move |tx| {
            w.put(tx, 1);
            w.put(tx, 2);
        },
    );
    // A fullness observer, doomed by a consuming commit.
    let (r, w) = (q.clone(), q.clone());
    doomed_by(
        move |tx| assert!(!r.offer(tx, 3)),
        move |tx| assert_eq!(w.poll(tx), Some(1)),
    );
    // An emptiness observer, doomed when an aborting poll puts its item
    // back.
    let (p, r) = (q.clone(), q.clone());
    let (_, polled) = stm::speculate(move |tx| assert_eq!(p.poll(tx), Some(2)), 0).unwrap();
    let (_, observer) = stm::speculate(move |tx| assert_eq!(r.poll(tx), None), 0).unwrap();
    polled.abort(AbortCause::Explicit);
    assert!(observer.handle().is_doomed());
    observer.abort(AbortCause::Doomed);
    stm::atomic(|tx| q.poll(tx));
    let stats = q.semantic_stats();
    let load = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed);
    assert_eq!(
        [
            load(&stats.lock_acquisitions),
            load(&stats.lock_cache_hits),
            load(&stats.global_stripe_entries),
            load(&stats.stripe_lock_spins),
            stats.total(),
        ],
        [3, 1, 10, 0, 3]
    );
    assert_eq!(window(&before), [3, 3, 1, 3, 1, 10, 7, 10, 5, 4]);
}

#[test]
fn eager_map_counts() {
    let _g = serialize();
    let before = stm::global_stats();
    let m: EagerTransactionalMap<u32, u32> = EagerTransactionalMap::new(EagerPolicy::DoomReaders);
    stm::atomic(|tx| {
        m.put(tx, 1, 1);
    });
    let (r, w) = (m.clone(), m.clone());
    let (_, reader) = stm::speculate(
        move |tx| {
            assert_eq!(r.get(tx, &1), Some(1));
            assert_eq!(r.get(tx, &1), Some(1));
            assert_eq!(r.size(tx), 1);
            assert_eq!(r.size(tx), 1);
        },
        0,
    )
    .unwrap();
    let (_, writer) = stm::speculate(
        move |tx| {
            w.put(tx, 2, 2);
            w.put(tx, 1, 10);
        },
        0,
    )
    .unwrap();
    assert!(reader.handle().is_doomed(), "doomed at write time");
    writer.commit();
    reader.abort(AbortCause::Doomed);
    let a = m.clone();
    aborted(move |tx| {
        assert_eq!(a.get(tx, &2), Some(2));
        a.put(tx, 3, 3);
        assert_eq!(a.size(tx), 3);
    });
    stm::atomic(|tx| m.remove(tx, &2));
    assert_eq!(
        locks(m.semantic_stats()),
        Locks {
            acquisitions: 11,
            cache_hits: 0,
            global_entries: 12,
            stripe_spins: 0,
            conflicts: [0, 1, 0, 0, 0, 0],
        }
    );
    assert_eq!(window(&before), [3, 1, 1, 1, 0, 12, 5, 10, 5, 10]);
}
