//! Doom-protocol regression for the sharded commit path.
//!
//! The collection classes' soundness rests on commit handlers that apply
//! buffered writes and *then* doom conflicting semantic-lock holders. With
//! the global commit mutex gone, that scan runs under the handler lane —
//! these tests pin down, with real threads, that a doom posted by a
//! committing writer's handler still lands on a lock-holding reader and
//! forces it to retry against the applied state.

use std::sync::mpsc;
use std::thread;
use std::time::Duration;
use stm::{atomic, global_stats};
use txcollections::TransactionalMap;

const WAIT: Duration = Duration::from_secs(10);

/// A reader holding the size lock is doomed by a size-changing commit and,
/// on retry, observes the fully applied new size.
#[test]
fn size_locker_is_doomed_by_committing_writer() {
    let m: TransactionalMap<u32, u64> = TransactionalMap::new();
    let before = global_stats();
    let (sized_tx, sized_rx) = mpsc::channel::<()>();
    let (resume_tx, resume_rx) = mpsc::channel::<()>();

    thread::scope(|s| {
        let m = &m;
        let reader = s.spawn(move || {
            let mut first = true;
            atomic(|tx| {
                // Takes the size lock in an open-nested transaction.
                let sz = m.size(tx);
                if first {
                    first = false;
                    assert_eq!(sz, 0, "first attempt runs against the empty map");
                    // Test scaffolding: park the attempt so the writer's
                    // doom provably races a live size-lock holder.
                    sized_tx.send(()).unwrap(); // txlint: allow(TX001) scaffolding, attempt is meant to die
                    resume_rx.recv_timeout(WAIT).unwrap();
                }
                sz
            })
        });

        sized_rx
            .recv_timeout(WAIT)
            .expect("reader never took the size lock");
        // Size change 0 -> 1: the commit handler applies the insert and
        // dooms every size-lock holder, all under the handler lane.
        atomic(|tx| m.put(tx, 7, 42));
        resume_tx.send(()).unwrap();

        let observed = reader.join().unwrap();
        assert_eq!(observed, 1, "retry must see the applied insert");
    });

    let d = global_stats().diff(&before);
    assert!(
        d.aborts_doomed >= 1,
        "the size-locker must have been doomed, got {d:?}"
    );
}

/// A reader holding a key lock is doomed by a conflicting put to that key
/// and, on retry, observes the written value.
#[test]
fn key_locker_is_doomed_by_conflicting_put() {
    let m: TransactionalMap<u32, u64> = TransactionalMap::new();
    let before = global_stats();
    let (locked_tx, locked_rx) = mpsc::channel::<()>();
    let (resume_tx, resume_rx) = mpsc::channel::<()>();

    thread::scope(|s| {
        let m = &m;
        let reader = s.spawn(move || {
            let mut first = true;
            atomic(|tx| {
                let v = m.get(tx, &1);
                if first {
                    first = false;
                    assert_eq!(v, None);
                    locked_tx.send(()).unwrap(); // txlint: allow(TX001) scaffolding, as above
                    resume_rx.recv_timeout(WAIT).unwrap();
                }
                v
            })
        });

        locked_rx
            .recv_timeout(WAIT)
            .expect("reader never took the key lock");
        atomic(|tx| m.put(tx, 1, 99));
        resume_tx.send(()).unwrap();

        let observed = reader.join().unwrap();
        assert_eq!(observed, Some(99), "retry must see the conflicting put");
    });

    let d = global_stats().diff(&before);
    assert!(
        d.aborts_doomed >= 1,
        "the key-locker must have been doomed, got {d:?}"
    );
}

/// Mixed-operation soak: concurrent collection transactions (all
/// handler-bearing, hence lane-serialized at commit) plus handler-free
/// plain-TVar transactions. Conservation must hold for both.
#[test]
fn collection_and_plain_commits_soak() {
    const THREADS: u64 = 4;
    const PER: u64 = 200;
    let m: TransactionalMap<u64, u64> = TransactionalMap::new();
    let free = stm::TVar::new(0u64);

    thread::scope(|s| {
        let m = &m;
        let free = &free;
        for t in 0..THREADS {
            s.spawn(move || {
                for i in 0..PER {
                    // Disjoint key space per thread: every put inserts.
                    atomic(|tx| m.put(tx, t * PER + i, i));
                    atomic(|tx| {
                        let x = free.read(tx);
                        free.write(tx, x + 1);
                    });
                }
            });
        }
    });

    assert_eq!(atomic(|tx| m.size(tx)), (THREADS * PER) as usize);
    assert_eq!(free.read_committed(), THREADS * PER);
}
