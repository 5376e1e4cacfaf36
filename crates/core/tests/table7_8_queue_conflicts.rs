//! Conformance suite for paper **Table 7** (semantic operational analysis of
//! the `Channel` interface), **Table 8** (its semantic locks) and **Table 9**
//! (the `TransactionalQueue` state inventory), including the
//! reduced-isolation behaviour that distinguishes the queue from the fully
//! serializable maps.

mod conflict_harness;
use conflict_harness::assert_cell;
use txcollections::{Channel, TransactionalQueue};

fn seeded(items: &[i32]) -> TransactionalQueue<i32> {
    let q = TransactionalQueue::new();
    stm::atomic(|tx| {
        for &i in items {
            q.put(tx, i);
        }
    });
    q
}

// ---------------------------------------------------------------------
// Table 7: the only conflicts are null-peek/null-poll vs put
// ---------------------------------------------------------------------

#[test]
fn peek_null_vs_put_conflicts() {
    let q = seeded(&[]);
    let (r, w) = (q.clone(), q.clone());
    assert_cell(
        true,
        "peek()=null vs put — emptiness observation invalidated",
        move |tx| {
            assert_eq!(r.peek(tx), None);
        },
        move |tx| {
            w.put(tx, 1);
        },
    );
}

#[test]
fn poll_null_vs_put_conflicts() {
    let q = seeded(&[]);
    let (r, w) = (q.clone(), q.clone());
    assert_cell(
        true,
        "poll()=null vs put",
        move |tx| {
            assert_eq!(r.poll(tx), None);
        },
        move |tx| {
            w.put(tx, 1);
        },
    );
}

#[test]
fn peek_nonnull_vs_put_commutes() {
    let q = seeded(&[7]);
    let (r, w) = (q.clone(), q.clone());
    assert_cell(
        false,
        "peek()=7 vs put — unordered queue, no conflict",
        move |tx| {
            assert_eq!(r.peek(tx), Some(7));
        },
        move |tx| {
            w.put(tx, 8);
        },
    );
}

#[test]
fn poll_nonnull_vs_put_commutes() {
    let q = seeded(&[7]);
    let (r, w) = (q.clone(), q.clone());
    assert_cell(
        false,
        "poll()=7 vs put",
        move |tx| {
            assert_eq!(r.poll(tx), Some(7));
        },
        move |tx| {
            w.put(tx, 8);
        },
    );
}

#[test]
fn put_vs_put_commutes() {
    let q = seeded(&[]);
    let (r, w) = (q.clone(), q.clone());
    assert_cell(
        false,
        "put vs put — never a conflict",
        move |tx| {
            r.put(tx, 1);
        },
        move |tx| {
            w.put(tx, 2);
        },
    );
}

#[test]
fn take_vs_take_commutes() {
    let q = seeded(&[1, 2]);
    let (r, w) = (q.clone(), q.clone());
    assert_cell(
        false,
        "take vs take — each gets a distinct element",
        move |tx| {
            assert!(r.poll(tx).is_some());
        },
        move |tx| {
            assert!(w.poll(tx).is_some());
        },
    );
}

// ---------------------------------------------------------------------
// Table 8 corollary: compensation (abort) also invalidates emptiness
// ---------------------------------------------------------------------

#[test]
fn abort_compensation_dooms_emptiness_observers() {
    let q = seeded(&[42]);
    // T1 drains the queue (reduced isolation: immediately visible).
    let q1 = q.clone();
    let (_, t1) = stm::speculate(
        move |tx| {
            assert_eq!(q1.poll(tx), Some(42));
        },
        0,
    )
    .unwrap();
    // T2 now observes the queue empty.
    let q2 = q.clone();
    let (_, t2) = stm::speculate(
        move |tx| {
            assert_eq!(q2.poll(tx), None);
        },
        0,
    )
    .unwrap();
    // T1 aborts: the compensating abort handler returns 42 to the queue,
    // invalidating T2's emptiness observation.
    t1.abort(stm::AbortCause::Explicit);
    assert!(
        t2.handle().is_doomed(),
        "compensation made the queue non-empty; emptiness observer must be doomed"
    );
    t2.abort(stm::AbortCause::Explicit);
    assert_eq!(stm::atomic(|tx| q.committed_len(tx)), 1);
}

/// A bounded queue's fullness doom — `offer() = false` vs a consuming
/// commit — is a `Full`-mode conflict, counted as one and not as an
/// emptiness conflict.
#[test]
fn fullness_dooms_are_charged_to_full_conflicts() {
    let q: TransactionalQueue<i32> = TransactionalQueue::bounded(1);
    stm::atomic(|tx| q.put(tx, 1));
    let (r, w) = (q.clone(), q.clone());
    assert_cell(
        true,
        "offer()=false vs poll — freed capacity invalidates the fullness observation",
        move |tx| {
            assert!(!r.offer(tx, 2));
        },
        move |tx| {
            assert_eq!(w.poll(tx), Some(1));
        },
    );
    let stats = q.semantic_stats();
    let load = |c: &std::sync::atomic::AtomicU64| c.load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(load(&stats.full_conflicts), 1);
    assert_eq!(load(&stats.empty_conflicts), 0);
    assert_eq!(stats.total(), 1);
}

// ---------------------------------------------------------------------
// Table 9: state inventory — addBuffer / removeBuffer behaviour
// ---------------------------------------------------------------------

#[test]
fn table9_adds_are_buffered_until_commit() {
    let q: TransactionalQueue<i32> = TransactionalQueue::new();
    let q1 = q.clone();
    let (_, t1) = stm::speculate(
        move |tx| {
            q1.put(tx, 1);
            q1.put(tx, 2);
        },
        0,
    )
    .unwrap();
    // Not yet visible.
    assert_eq!(stm::atomic(|tx| q.committed_len(tx)), 0);
    t1.commit();
    assert_eq!(stm::atomic(|tx| q.committed_len(tx)), 2);
}

#[test]
fn table9_aborted_adds_are_never_published() {
    // The Delaunay problem: "if transactions abort, the new work added to
    // the queue is invalid" — buffering fixes it.
    let q: TransactionalQueue<i32> = TransactionalQueue::new();
    let q1 = q.clone();
    let (_, t1) = stm::speculate(
        move |tx| {
            q1.put(tx, 99);
        },
        0,
    )
    .unwrap();
    t1.abort(stm::AbortCause::Explicit);
    assert_eq!(
        stm::atomic(|tx| q.committed_len(tx)),
        0,
        "aborted transaction's work items leaked into the queue"
    );
}

#[test]
fn table9_removes_are_immediate_but_compensated() {
    let q = seeded(&[5]);
    let q1 = q.clone();
    let (_, t1) = stm::speculate(
        move |tx| {
            assert_eq!(q1.poll(tx), Some(5));
        },
        0,
    )
    .unwrap();
    // Reduced isolation: the removal is immediately visible to others.
    assert_eq!(
        stm::atomic(|tx| q.committed_len(tx)),
        0,
        "poll must remove from the shared queue before commit"
    );
    // Abort returns the item: no work is ever lost.
    t1.abort(stm::AbortCause::Explicit);
    assert_eq!(stm::atomic(|tx| q.committed_len(tx)), 1);
    assert_eq!(stm::atomic(|tx| q.poll(tx)), Some(5));
}

#[test]
fn table9_own_buffered_adds_are_pollable() {
    let q: TransactionalQueue<i32> = TransactionalQueue::new();
    stm::atomic(|tx| {
        q.put(tx, 1);
        q.put(tx, 2);
        assert_eq!(q.poll(tx), Some(1), "own pending adds are consumable");
        assert_eq!(q.peek(tx), Some(2));
    });
    assert_eq!(stm::atomic(|tx| q.committed_len(tx)), 1);
}

#[test]
fn no_element_lost_or_duplicated_under_abort_storm() {
    // Conservation property: producers put 1..=N, consumers poll with random
    // aborts; after the storm every element must exist exactly once
    // (consumed exactly once or still queued).
    use std::sync::atomic::{AtomicU32, Ordering};
    let q: TransactionalQueue<u32> = TransactionalQueue::new();
    let consumed = std::sync::Arc::new(parking_lot::Mutex::new(Vec::<u32>::new()));
    let n_items = 400u32;

    std::thread::scope(|s| {
        // Two producers.
        for p in 0..2u32 {
            let q = q.clone();
            s.spawn(move || {
                for i in 0..n_items / 2 {
                    let item = p * (n_items / 2) + i;
                    let fail_once = AtomicU32::new(1);
                    stm::atomic(|tx| {
                        q.put(tx, item);
                        // Every producer transaction aborts once before
                        // committing: buffered adds must not leak.
                        if item.is_multiple_of(3) && fail_once.swap(0, Ordering::SeqCst) == 1 {
                            stm::abort_and_retry();
                        }
                    });
                }
            });
        }
        // Two consumers with occasional aborts after polling.
        for _ in 0..2 {
            let q = q.clone();
            let consumed = consumed.clone();
            s.spawn(move || {
                let mut idle = 0;
                while idle < 200 {
                    let fail_once = AtomicU32::new(1);
                    let got = stm::atomic(|tx| {
                        let item = q.poll(tx);
                        if let Some(i) = item {
                            if i % 5 == 0 && fail_once.swap(0, Ordering::SeqCst) == 1 {
                                // Abort after taking: the item must return.
                                stm::abort_and_retry();
                            }
                        }
                        item
                    });
                    match got {
                        Some(i) => {
                            consumed.lock().push(i);
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

    let mut seen = consumed.lock().clone();
    let leftovers = stm::atomic(|tx| {
        let mut v = Vec::new();
        while let Some(i) = q.poll(tx) {
            v.push(i);
        }
        v
    });
    seen.extend(leftovers);
    seen.sort_unstable();
    let expect: Vec<u32> = (0..n_items).collect();
    assert_eq!(seen, expect, "queue lost or duplicated elements");
}
