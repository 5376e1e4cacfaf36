//! Multi-thread soak tests for the sharded commit path: per-TVar versioned
//! locks + the handler lane (no global commit mutex).
//!
//! What must hold after the refactor:
//!
//! * disjoint-write transactions commit without ever touching the handler
//!   lane, and no update is lost;
//! * per-var versions are strictly monotonic and globally unique (each
//!   commit draws a fresh version from the fetch-add clock);
//! * a transaction blocked inside its commit handler — holding the lane —
//!   does not block handler-free commits;
//! * the doom-vs-commit decision is atomic: a doom that lands before the
//!   victim's point of no return aborts it exactly once, and the retry
//!   commits.

use std::collections::HashSet;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;
use stm::{atomic, global_stats, TVar};

const WAIT: Duration = Duration::from_secs(10);

#[test]
fn disjoint_commits_lose_no_updates_and_skip_the_lane() {
    const THREADS: usize = 8;
    const PER: u64 = 300;
    let vars: Vec<TVar<u64>> = (0..THREADS).map(|_| TVar::new(0)).collect();
    let before = global_stats();

    thread::scope(|s| {
        for v in &vars {
            s.spawn(move || {
                let mut last = v.version();
                for _ in 0..PER {
                    atomic(|tx| {
                        let x = v.read(tx);
                        v.write(tx, x + 1);
                    });
                    let now = v.version();
                    assert!(now > last, "per-var version must be strictly monotonic");
                    last = now;
                }
            });
        }
    });

    for v in &vars {
        assert_eq!(v.read_committed(), PER, "no update may be lost");
    }
    // Every commit drew a distinct version from the global clock, so the
    // final versions of the (disjointly written) vars are pairwise distinct.
    let finals: HashSet<u64> = vars.iter().map(TVar::version).collect();
    assert_eq!(finals.len(), THREADS, "commit versions must be unique");

    let d = global_stats().diff(&before);
    assert!(
        d.lane_free_commits >= (THREADS as u64) * PER,
        "handler-free commits must take the lane-free fast path, got {}",
        d.lane_free_commits
    );
}

#[test]
fn lane_holder_does_not_block_handler_free_commits() {
    let flagged = TVar::new(false);
    let counter = TVar::new(0u64);
    let (entered_tx, entered_rx) = mpsc::channel::<()>();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let release_rx = Arc::new(Mutex::new(release_rx));

    thread::scope(|s| {
        let flagged = &flagged;
        let entered_tx = entered_tx.clone();
        let release_rx = Arc::clone(&release_rx);
        let blocker = s.spawn(move || {
            atomic(|tx| {
                let x = flagged.read(tx);
                flagged.write(tx, !x);
                let e = entered_tx.clone();
                let r = Arc::clone(&release_rx);
                // The handler blocks while holding the handler lane.
                tx.on_commit_top(move |_| {
                    e.send(()).unwrap();
                    r.lock().unwrap().recv_timeout(WAIT).unwrap();
                });
                tx.on_abort_top(|_| {});
            });
        });

        // The blocker is now past its point of no return, inside its commit
        // handler, holding the lane.
        entered_rx
            .recv_timeout(WAIT)
            .expect("handler never entered");

        // A handler-free commit needs no lane: it must complete while the
        // lane is held.
        atomic(|tx| {
            let x = counter.read(tx);
            counter.write(tx, x + 1);
        });
        assert_eq!(counter.read_committed(), 1);

        release_tx.send(()).unwrap();
        blocker.join().unwrap();
    });
    assert!(atomic(|tx| flagged.read(tx)));
}

#[test]
fn contended_counter_soak_conserves_increments() {
    const THREADS: u64 = 8;
    const PER: u64 = 500;
    let c = TVar::new(0u64);

    thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                for _ in 0..PER {
                    atomic(|tx| {
                        let x = c.read(tx);
                        c.write(tx, x + 1);
                    });
                }
            });
        }
    });

    assert_eq!(c.read_committed(), THREADS * PER);
}

#[test]
fn doom_vs_commit_decides_exactly_once() {
    let v = TVar::new(0u64);
    let before = global_stats();
    let (handle_tx, handle_rx) = mpsc::channel();
    let (resume_tx, resume_rx) = mpsc::channel::<()>();

    thread::scope(|s| {
        let v = &v;
        let victim = s.spawn(move || {
            let mut first = true;
            atomic(|tx| {
                let x = v.read(tx);
                v.write(tx, x + 1);
                if first {
                    first = false;
                    // Exporting the handle is test scaffolding, not a leaked
                    // effect: the attempt is meant to be doomed. // txlint: allow(TX001)
                    handle_tx.send(tx.handle().clone()).unwrap();
                    // Hold the attempt open until the doom has landed. The
                    // doom is a flag CAS on our handle; we only notice it at
                    // the commit-time decision point.
                    resume_rx.recv_timeout(WAIT).unwrap();
                }
            });
        });

        let h = handle_rx.recv_timeout(WAIT).unwrap();
        // The victim is still Active (it is parked in its body), so the doom
        // must win the state-word CAS.
        assert!(h.doom(), "doom must land on an Active transaction");
        resume_tx.send(()).unwrap();
        victim.join().unwrap();
    });

    // The first attempt lost the doom-vs-commit race; the retry committed.
    assert_eq!(v.read_committed(), 1);
    let d = global_stats().diff(&before);
    assert!(
        d.aborts_doomed >= 1,
        "the doomed attempt must be recorded, got {d:?}"
    );
}
