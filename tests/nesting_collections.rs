//! Interaction of closed-nested partial rollback with collection-class
//! transaction-local state: store buffers and queue buffers must be restored
//! when a closed frame aborts (the kernel's `local_undo`), and effects of the
//! surviving attempt must be exactly once — for every buffering class. A
//! collection operation inside an open-nested body is rejected outright.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use stm::{atomic, TVar, Txn};
use txcollections::{
    Channel, TransactionalIntervalMap, TransactionalMap, TransactionalMultiset,
    TransactionalPriorityQueue, TransactionalQueue, TransactionalSortedMap,
};

/// Run `body` as a closed frame whose first attempt rolls back: the frame
/// reads a probe TVar, another thread commits a write to it, and the
/// frame's re-read conflicts inside the frame only. `body` gets the attempt
/// number; returns how many attempts ran.
fn closed_with_one_retry(tx: &mut Txn, mut body: impl FnMut(&mut Txn, u32)) -> u32 {
    let probe = Arc::new(TVar::new(0u32));
    let mut attempts = 0;
    tx.closed(|tx| {
        let attempt = attempts;
        attempts += 1;
        body(tx, attempt);
        let _ = probe.read(tx);
        if attempt == 0 {
            let p = probe.clone();
            std::thread::spawn(move || {
                atomic(|tx| {
                    let v = p.read(tx);
                    p.write(tx, v + 1);
                });
            })
            .join()
            .unwrap();
            let _ = probe.read(tx); // triggers the frame retry
        }
    });
    attempts
}

/// Force one partial rollback of a closed frame by invalidating a TVar read
/// from another thread, and check the map's store buffer rolled back with
/// the frame.
#[test]
fn closed_frame_abort_rolls_back_map_buffer() {
    let map: Arc<TransactionalMap<u32, String>> = Arc::new(TransactionalMap::new());
    let probe = Arc::new(TVar::new(0u32));
    let frame_runs = Arc::new(AtomicU32::new(0));

    let (m, p, fr) = (map.clone(), probe.clone(), frame_runs.clone());
    atomic(move |tx| {
        m.put(tx, 1, "outer".into());
        let m2 = m.clone();
        let p2 = p.clone();
        let fr2 = fr.clone();
        tx.closed(move |tx| {
            let attempt = fr2.fetch_add(1, Ordering::SeqCst);
            // Buffered write inside the frame.
            m2.put(tx, 2, format!("frame-attempt-{attempt}"));
            let _ = p2.read(tx);
            if attempt == 0 {
                // Invalidate our probe read so the frame (only) retries.
                let pp = p2.clone();
                std::thread::spawn(move || {
                    atomic(|tx| {
                        let v = pp.read(tx);
                        pp.write(tx, v + 1);
                    });
                })
                .join()
                .unwrap();
                let _ = p2.read(tx); // triggers the frame retry
            }
        });
        // Inside the transaction: exactly one buffered value for key 2 (the
        // second attempt's), and the outer write is untouched.
        assert_eq!(m.get(tx, &2).as_deref(), Some("frame-attempt-1"));
        assert_eq!(m.get(tx, &1).as_deref(), Some("outer"));
        assert_eq!(m.size(tx), 2, "store-buffer delta not rolled back");
    });

    assert_eq!(
        frame_runs.load(Ordering::SeqCst),
        2,
        "frame must retry once"
    );
    let final_v = atomic(|tx| map.get(tx, &2));
    assert_eq!(final_v.as_deref(), Some("frame-attempt-1"));
    assert_eq!(atomic(|tx| map.size(tx)), 2);
}

/// Same exercise for the queue: a poll inside an aborted closed frame must
/// not lose the item (it is marked for return, and returns at commit).
#[test]
fn closed_frame_abort_returns_polled_item() {
    let queue: Arc<TransactionalQueue<u32>> = Arc::new(TransactionalQueue::new());
    atomic(|tx| queue.put(tx, 7));

    let probe = Arc::new(TVar::new(0u32));
    let frame_runs = Arc::new(AtomicU32::new(0));
    let (q, p, fr) = (queue.clone(), probe.clone(), frame_runs.clone());
    atomic(move |tx| {
        let q2 = q.clone();
        let p2 = p.clone();
        let fr2 = fr.clone();
        tx.closed(move |tx| {
            let attempt = fr2.fetch_add(1, Ordering::SeqCst);
            let item = q2.poll(tx);
            let _ = p2.read(tx);
            if attempt == 0 {
                assert_eq!(item, Some(7), "first frame attempt takes the item");
                let pp = p2.clone();
                std::thread::spawn(move || {
                    atomic(|tx| {
                        let v = pp.read(tx);
                        pp.write(tx, v + 1);
                    });
                })
                .join()
                .unwrap();
                let _ = p2.read(tx); // frame retry
            }
        });
    });
    assert_eq!(frame_runs.load(Ordering::SeqCst), 2);
    // The item consumed by the aborted frame attempt must be back: either
    // the retry consumed it again or it's still queued. Total must be
    // conserved.
    let remaining = atomic(|tx| {
        let mut v = Vec::new();
        while let Some(x) = queue.poll(tx) {
            v.push(x);
        }
        v
    });
    // The second frame attempt re-polled: the first attempt's item was
    // marked for return (published at commit), so the shared queue was
    // empty and the retry polled None; commit then returned the item.
    // Hence it must still be present now.
    assert_eq!(remaining, vec![7], "item lost across frame abort");
}

/// Handlers registered by collections inside aborted closed frames are
/// discarded with the frame — no double application.
#[test]
fn no_double_application_after_frame_retry() {
    // Repeat the map exercise but measure committed state changes globally:
    // the committed map must gain exactly the surviving attempt's writes.
    let map: Arc<TransactionalMap<u32, u32>> = Arc::new(TransactionalMap::new());
    let probe = Arc::new(TVar::new(0u32));
    let runs = Arc::new(AtomicU32::new(0));
    let (m, p, r) = (map.clone(), probe.clone(), runs.clone());
    atomic(move |tx| {
        let m2 = m.clone();
        let p2 = p.clone();
        let r2 = r.clone();
        tx.closed(move |tx| {
            let attempt = r2.fetch_add(1, Ordering::SeqCst);
            // This put's delta must be counted once in the commit.
            m2.put(tx, 100 + attempt, attempt);
            let _ = p2.read(tx);
            if attempt == 0 {
                let pp = p2.clone();
                std::thread::spawn(move || {
                    atomic(|tx| {
                        let v = pp.read(tx);
                        pp.write(tx, v + 1);
                    });
                })
                .join()
                .unwrap();
                let _ = p2.read(tx);
            }
        });
    });
    assert_eq!(runs.load(Ordering::SeqCst), 2);
    let entries = atomic(|tx| map.entries(tx));
    assert_eq!(
        entries,
        vec![(101, 1)],
        "aborted frame attempt's write leaked into the commit"
    );
}

/// A blind write that a size observation resolved inside a closed frame
/// comes back blind when the frame rolls back, so the retry resolves it
/// again and the size counts it once, on both map kinds.
#[test]
fn closed_frame_abort_restores_blind_entries() {
    let map: TransactionalMap<u32, u32> = TransactionalMap::new();
    let sorted: TransactionalSortedMap<u32, u32> = TransactionalSortedMap::new();
    atomic(|tx| {
        map.put_discard(tx, 1, 1);
        sorted.put_discard(tx, 1, 1);
    });
    atomic(|tx| {
        let attempts = closed_with_one_retry(tx, |tx, attempt| {
            map.put_discard(tx, 2, 2);
            sorted.put_discard(tx, 2, 2);
            assert_eq!(map.size(tx), 2, "hash map, frame attempt {attempt}");
            assert_eq!(sorted.size(tx), 2, "sorted map, frame attempt {attempt}");
        });
        assert_eq!(attempts, 2);
        assert_eq!(map.size(tx), 2, "hash map after the frame");
        assert_eq!(sorted.size(tx), 2, "sorted map after the frame");
    });
    assert_eq!(atomic(|tx| map.size(tx)), 2);
    assert_eq!(atomic(|tx| sorted.size(tx)), 2);
}

/// Sorted map: the aborted attempt's put, remove and blind overwrite are
/// rolled back; the root write and the surviving attempt's write commit
/// once; every key lock (including the aborted attempt's) is released.
#[test]
fn closed_frame_abort_rolls_back_sorted_map_buffer() {
    let map: TransactionalSortedMap<u32, String> = TransactionalSortedMap::new();
    atomic(|tx| map.put(tx, 10, "committed".into()));
    let attempts = atomic(|tx| {
        map.put(tx, 1, "outer".into());
        let attempts = closed_with_one_retry(tx, |tx, attempt| {
            if attempt == 0 {
                map.put(tx, 2, "aborted".into());
                map.remove(tx, &10);
                map.put_discard(tx, 1, "aborted".into());
            } else {
                map.put(tx, 3, "frame".into());
            }
        });
        assert_eq!(map.get(tx, &2), None);
        assert_eq!(map.get(tx, &1).as_deref(), Some("outer"));
        assert_eq!(map.get(tx, &10).as_deref(), Some("committed"));
        assert_eq!(map.size(tx), 3, "store-buffer delta not rolled back");
        attempts
    });
    assert_eq!(attempts, 2, "frame must retry once");
    let entries = atomic(|tx| map.entries(tx));
    let expect: Vec<(u32, String)> = [(1, "outer"), (3, "frame"), (10, "committed")]
        .map(|(k, v)| (k, v.to_string()))
        .into();
    assert_eq!(entries, expect);
    assert_eq!(map.locked_key_count(), 0);
}

/// Multiset: the aborted attempt's adds and its removal of a committed
/// element roll back; surviving counts apply exactly once.
#[test]
fn closed_frame_abort_rolls_back_multiset_deltas() {
    let ms: TransactionalMultiset<u32> = TransactionalMultiset::new();
    atomic(|tx| ms.add(tx, 7));
    let attempts = atomic(|tx| {
        ms.add(tx, 1);
        let attempts = closed_with_one_retry(tx, |tx, attempt| {
            if attempt == 0 {
                ms.add_n(tx, 1, 5);
                assert!(ms.remove_one(tx, &7));
                ms.add(tx, 2);
            } else {
                ms.add(tx, 3);
            }
        });
        assert_eq!(ms.count(tx, &1), 1);
        assert_eq!(ms.count(tx, &2), 0);
        assert_eq!(ms.count(tx, &7), 1);
        assert_eq!(ms.len(tx), 3);
        attempts
    });
    assert_eq!(attempts, 2, "frame must retry once");
    let counts = atomic(|tx| [1, 2, 3, 7].map(|v| ms.count(tx, &v)));
    assert_eq!(counts, [1, 0, 1, 1]);
    assert_eq!(atomic(|tx| ms.len(tx)), 3);
    assert_eq!(ms.locked_key_count(), 0);
}

/// Priority queue: the aborted attempt's insert and its pop of the
/// committed minimum roll back; the surviving insert applies once.
#[test]
fn closed_frame_abort_rolls_back_priority_queue_deltas() {
    let pq: TransactionalPriorityQueue<u32> = TransactionalPriorityQueue::new();
    atomic(|tx| pq.insert(tx, 50));
    let attempts = atomic(|tx| {
        pq.insert(tx, 40);
        let attempts = closed_with_one_retry(tx, |tx, attempt| {
            if attempt == 0 {
                pq.insert(tx, 60);
                assert_eq!(pq.pop_min(tx), Some(40));
                assert_eq!(pq.pop_min(tx), Some(50));
            } else {
                pq.insert(tx, 30);
            }
        });
        assert_eq!(pq.len(tx), 3);
        assert_eq!(pq.peek_min(tx), Some(30));
        attempts
    });
    assert_eq!(attempts, 2, "frame must retry once");
    let drained = atomic(|tx| std::iter::from_fn(|| pq.pop_min(tx)).collect::<Vec<_>>());
    assert_eq!(drained, vec![30, 40, 50]);
    assert_eq!(pq.locked_key_count(), 0);
}

/// Interval map: the aborted attempt's insert, its removal of a committed
/// entry and its removal of the root's own buffered insert all roll back;
/// the surviving insert applies once and no span lock stays held.
#[test]
fn closed_frame_abort_rolls_back_interval_map_buffer() {
    let im: TransactionalIntervalMap<u32, &'static str> = TransactionalIntervalMap::new();
    let kept = atomic(|tx| im.insert(tx, 0, 10, "committed"));
    let attempts = atomic(|tx| {
        let outer = im.insert(tx, 20, 30, "outer");
        let attempts = closed_with_one_retry(tx, |tx, attempt| {
            if attempt == 0 {
                im.insert(tx, 40, 50, "aborted");
                assert!(im.remove(tx, kept));
                assert!(im.remove(tx, outer));
            } else {
                im.insert(tx, 60, 70, "frame");
            }
        });
        assert_eq!(im.len(tx), 3);
        attempts
    });
    assert_eq!(attempts, 2, "frame must retry once");
    let mut values: Vec<&str> = atomic(|tx| im.overlapping(tx, 0, 100))
        .into_iter()
        .map(|(_, v)| v)
        .collect();
    values.sort_unstable();
    assert_eq!(values, vec!["committed", "frame", "outer"]);
    assert_eq!(im.locked_range_count(), 0);
}

/// A collection operation inside an open-nested body would buffer state in
/// the open child, which dies with the child: it is a misuse abort. The
/// parent's footprint is compensated (its key lock released, its buffered
/// write dropped) before the diagnostic surfaces at the `atomic` boundary.
#[test]
fn collection_operation_inside_open_body_is_a_misuse_abort() {
    let map: TransactionalMap<u32, u32> = TransactionalMap::new();
    atomic(|tx| map.put(tx, 1, 1));
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        atomic(|tx| {
            let _ = map.get(tx, &1);
            map.put(tx, 3, 3);
            tx.open(|otx| map.put(otx, 2, 2));
        })
    }));
    let payload = outcome.expect_err("an open-body collection operation must not commit");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(msg.contains("tx.open"), "unexpected diagnostic: {msg:?}");
    assert_eq!(map.locked_key_count(), 0, "a misuse abort left a lock held");
    assert_eq!(atomic(|tx| map.entries(tx)), vec![(1, 1)]);
}

/// The panic message of a transaction whose commit handler runs `call`
/// (its abort handler has nothing to compensate).
fn commit_handler_panic(call: impl Fn(&mut Txn) + Clone + Send + 'static) -> String {
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        atomic(|tx| {
            tx.on_commit_top(call.clone());
            tx.on_abort_top(|_| {});
        })
    }));
    let payload = outcome.expect_err("a handler-side collection call must panic");
    payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default()
}

/// A collection call from a commit handler is a programming error: the
/// handler runs in direct mode, after the point of no return. The kernel's
/// one mode assert fires and its message names the class.
#[test]
fn collection_operation_inside_commit_handler_panics_naming_the_class() {
    let map: TransactionalMap<u32, u32> = TransactionalMap::new();
    let sorted: TransactionalSortedMap<u32, u32> = TransactionalSortedMap::new();
    let queue: TransactionalQueue<u32> = TransactionalQueue::new();
    let messages = [
        (
            "map",
            commit_handler_panic(move |htx| {
                let _ = map.get(htx, &1);
            }),
        ),
        (
            "sorted_map",
            commit_handler_panic(move |htx| sorted.put_discard(htx, 1, 1)),
        ),
        (
            "queue",
            commit_handler_panic(move |htx| {
                let _ = queue.poll(htx);
            }),
        ),
    ];
    for (class, msg) in messages {
        assert!(
            msg.contains(&format!(
                "`{class}` operations cannot run inside commit/abort handlers"
            )),
            "unexpected diagnostic: {msg:?}"
        );
    }
}
