//! The counter store's edge cases: counts that outlive their threads, a
//! shard registry bounded by peak thread concurrency, and transactions run
//! from thread-local destructors.
//!
//! The totals behind `global_stats()` are process-global, and these tests
//! assert exact deltas, so every test serializes on a file-local mutex.
//! Each integration-test file is its own process, so this suffices.

use std::cell::RefCell;
use std::sync::{Arc, Barrier, Mutex};
use stm::{abort_and_retry, atomic, global_stats, metrics, StatsSnapshot, TVar};

static SERIAL: Mutex<()> = Mutex::new(());

fn serialize() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

const THREADS: usize = 4;
const WAVES: usize = 3;
const TXNS: u64 = 25;

/// A load shape with an exactly known count of every event it causes.
struct Workload {
    name: &'static str,
    /// Explicit aborts transaction `i` of a thread takes before it commits.
    aborts: fn(u64) -> u64,
    /// Every attempt registers one commit handler and one abort handler.
    handlers: bool,
}

const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "commit_only",
        aborts: |_| 0,
        handlers: false,
    },
    Workload {
        name: "one_retry",
        aborts: |_| 1,
        handlers: false,
    },
    Workload {
        name: "mixed_retries",
        aborts: |i| i % 3,
        handlers: false,
    },
    Workload {
        name: "compensated",
        aborts: |i| i % 2,
        handlers: true,
    },
];

/// Run `w` on `THREADS` short-lived threads per wave, each on its own
/// `TVar` so that no attempt aborts for any reason but the workload's own.
/// A wave's threads all hold their shards at once (they meet at a barrier
/// after their first transaction), so every wave reaches the same peak
/// concurrency. Every thread is joined before the next wave starts.
fn run_waves(w: &Workload) {
    for _ in 0..WAVES {
        let barrier = Arc::new(Barrier::new(THREADS));
        let threads: Vec<_> = (0..THREADS)
            .map(|_| {
                let aborts = w.aborts;
                let handlers = w.handlers;
                let barrier = barrier.clone();
                std::thread::spawn(move || {
                    let v = TVar::new(0u64);
                    for i in 0..TXNS {
                        if i == 1 {
                            barrier.wait();
                        }
                        let mut attempt = 0;
                        atomic(|tx| {
                            attempt += 1;
                            if handlers {
                                tx.on_commit_top(|_| {});
                                tx.on_abort_top(|_| {});
                            }
                            let cur = v.read(tx);
                            v.write(tx, cur + 1);
                            if attempt <= aborts(i) {
                                abort_and_retry();
                            }
                        });
                    }
                    assert_eq!(atomic(|tx| v.read(tx)), TXNS);
                })
            })
            .collect();
        for t in threads {
            t.join().expect("load thread panicked");
        }
    }
}

/// The counts `w` must produce, derived from its shape alone.
fn expected(w: &Workload) -> StatsSnapshot {
    let runs = (THREADS * WAVES) as u64;
    let txns = runs * TXNS;
    let aborts = runs * (0..TXNS).map(w.aborts).sum::<u64>();
    let handled = if w.handlers { txns + aborts } else { 0 };
    StatsSnapshot {
        // Each thread's final read is one more, lane-free, commit.
        commits: txns + runs,
        aborts_explicit: aborts,
        lane_free_commits: if w.handlers { runs } else { txns + runs },
        handler_runs: handled,
        lane_entries: handled,
        ..StatsSnapshot::default()
    }
}

/// Waves of exited threads leave exact totals behind, and
/// `attempts_per_txn` computed from them after the load threads are gone
/// matches each workload's shape.
#[test]
fn exited_threads_leave_exact_totals() {
    let _g = serialize();
    for w in &WORKLOADS {
        let before = global_stats();
        run_waves(w);
        let d = global_stats().diff(&before);
        let want = expected(w);
        assert_eq!(d.commits, want.commits, "{}: commits", w.name);
        assert_eq!(d.aborts_explicit, want.aborts_explicit, "{}", w.name);
        assert_eq!(d.aborts_read_invalid, 0, "{}: disjoint vars", w.name);
        assert_eq!(d.aborts_doomed, 0, "{}: no dooms", w.name);
        assert_eq!(d.lane_free_commits, want.lane_free_commits, "{}", w.name);
        assert_eq!(d.handler_runs, want.handler_runs, "{}", w.name);
        assert_eq!(d.lane_entries, want.lane_entries, "{}", w.name);

        let attempts_per_txn = (d.commits + d.aborts()) as f64 / d.commits as f64;
        let per_thread_aborts: u64 = (0..TXNS).map(w.aborts).sum();
        let shape = (TXNS + 1 + per_thread_aborts) as f64 / (TXNS + 1) as f64;
        assert_eq!(attempts_per_txn, shape, "{}: attempts_per_txn", w.name);
    }
}

/// Shards of exited threads are reused: after a warm-up wave, waves of the
/// same width register no new shard.
#[test]
fn shard_registry_follows_peak_concurrency() {
    let _g = serialize();
    let w = &WORKLOADS[0];
    run_waves(w);
    let warm = metrics::registered_shards();
    for wave in 0..5 {
        run_waves(w);
        assert_eq!(
            metrics::registered_shards(),
            warm,
            "wave {wave} of {THREADS} threads grew the shard registry"
        );
    }
}

/// Runs one read-modify-write transaction when dropped.
struct TxnOnDrop(TVar<u64>);

impl Drop for TxnOnDrop {
    fn drop(&mut self) {
        atomic(|tx| {
            let cur = self.0.read(tx);
            self.0.write(tx, cur + 1);
        });
    }
}

thread_local! {
    static LATE: RefCell<Option<TxnOnDrop>> = const { RefCell::new(None) };
}

/// A transaction run from a thread-local destructor that drops after the
/// thread's shard was parked commits, is counted (in the spill), and does
/// not panic.
#[test]
fn transaction_in_late_tls_destructor_is_counted() {
    let _g = serialize();
    let v = TVar::new(0u64);
    let before = global_stats();
    let tv = v.clone();
    std::thread::spawn(move || {
        // Registered before the thread's first transaction claims a shard,
        // so this destructor runs after the shard's own.
        LATE.with(|l| *l.borrow_mut() = Some(TxnOnDrop(tv.clone())));
        atomic(|tx| {
            let cur = tv.read(tx);
            tv.write(tx, cur + 1);
        });
    })
    .join()
    .expect("a transaction in a late destructor must not panic");
    let d = global_stats().diff(&before);
    assert_eq!(atomic(|tx| v.read(tx)), 2, "both transactions committed");
    assert_eq!(d.commits, 2, "the late commit is counted");
    assert_eq!(d.lane_free_commits, 2);
}
