//! Stress test of the cell word: publishers swapping a var's head while
//! readers register in the same word, with fixed iteration counts and no
//! sleeps. CI runs it 50 times in release, and under `taskset -c 0` in the
//! single-CPU job, where a publisher waiting for readers must yield to them.
//! Every thread yields after each round, so on one CPU the rounds of the
//! four threads interleave.
//!
//! Two publishers write `Arc<[u64; 4]>` values whose four words are equal:
//! one through body commits, one through direct writes from a commit
//! handler. Both commit under the handler lane (the body publisher
//! registers an empty handler), so every publish to `v` raises its count by
//! exactly one and a count is a place in `v`'s commit order. A word is
//! `count << 1 | who`, `who` 0 for the body publisher and 1 for the direct
//! one. The body publisher also writes `w` in the same commit, with the
//! value it writes to `v`, so every committed state has `w <= v`, and
//! `v == w` when the body publisher wrote `v` last.
//!
//! Two readers each cycle through a validated read, `read_committed` and
//! `atomic_read`. No value may be torn, the counts and versions a reader
//! sees may only grow, and a snapshot may return only a consistent `(v, w)`
//! whose count some commit published by the time `atomic_read` returned,
//! no older than what was committed before it began.
//!
//! A second test commits values whose clone panics from the end of the
//! transaction body on: a publish moves each buffered value into its var,
//! so a commit clones nothing and cannot unwind half published, also while
//! another thread commits on the first var of the write set.

use std::cell::Cell;
use std::sync::Arc;
use std::thread;
use stm::{atomic, atomic_read, TVar};

type Val = Arc<[u64; 4]>;

const PUBLISHES: u64 = 10_000;
const READS: usize = 5_000;

fn val(count: u64, who: u64) -> Val {
    Arc::new([count << 1 | who; 4])
}

/// The word of a value whose four words are equal.
fn word(v: &Val) -> u64 {
    assert!(v.iter().all(|&x| x == v[0]), "torn value {v:?}");
    v[0]
}

fn count(v: &Val) -> u64 {
    word(v) >> 1
}

/// `(v, w)` is a state some commit left behind.
fn check_pair(v: &Val, w: &Val, how: &str) {
    let (v, w) = (word(v), word(w));
    assert!(w <= v, "{how}: w {w} past v {v}");
    assert!(
        v & 1 == 1 || v == w,
        "{how}: v {v} from a body commit, w {w}"
    );
}

struct Reader {
    count: u64,
    version: u64,
}

impl Reader {
    fn saw(&mut self, count: u64, how: &str) {
        assert!(
            count >= self.count,
            "{how}: count {count} after {}",
            self.count
        );
        self.count = count;
    }
}

#[test]
fn readers_never_see_torn_stale_or_out_of_order_values() {
    let v: TVar<Val> = TVar::new(val(0, 0));
    let w: TVar<Val> = TVar::new(val(0, 0));
    thread::scope(|s| {
        s.spawn(|| {
            for _ in 0..PUBLISHES {
                atomic(|tx| {
                    let next = val(count(&v.read(tx)) + 1, 0);
                    v.write(tx, next.clone());
                    w.write(tx, next);
                    // txlint: allow(TX004) — an empty handler, only to commit under the lane
                    tx.on_commit(|_| {});
                });
                thread::yield_now();
            }
        });
        s.spawn(|| {
            for _ in 0..PUBLISHES {
                let v = v.clone();
                atomic(|tx| {
                    let v = v.clone();
                    // txlint: allow(TX004) — the body has no effect to compensate
                    tx.on_commit(move |h| {
                        let next = val(count(&v.read(h)) + 1, 1);
                        v.write(h, next);
                    });
                });
                thread::yield_now();
            }
        });
        for _ in 0..2 {
            s.spawn(|| {
                let mut r = Reader {
                    count: 0,
                    version: 0,
                };
                for _ in 0..READS {
                    let (a, b) = atomic(|tx| (v.read(tx), w.read(tx)));
                    check_pair(&a, &b, "validated read");
                    r.saw(count(&a), "validated read");

                    let before = v.read_committed();
                    r.saw(count(&before), "read_committed");
                    let version = v.version();
                    assert!(
                        version >= r.version,
                        "version {version} after {}",
                        r.version
                    );
                    r.version = version;

                    let (a, b) = atomic_read(|tx| (v.read(tx), w.read(tx)));
                    let after = v.read_committed();
                    check_pair(&a, &b, "snapshot");
                    assert!(
                        count(&a) <= count(&after),
                        "snapshot count {} never published by {}",
                        count(&a),
                        count(&after)
                    );
                    r.saw(count(&a), "snapshot");
                    r.saw(count(&after), "read_committed");
                    thread::yield_now();
                }
            });
        }
    });
    assert_eq!(
        count(&v.read_committed()),
        2 * PUBLISHES,
        "a publish was lost"
    );
    check_pair(&v.read_committed(), &w.read_committed(), "final state");
}

thread_local! {
    /// Set from the end of a transaction body until its `atomic` returns.
    static COMMITTING: Cell<bool> = const { Cell::new(false) };
}

/// A counter whose clone panics on a thread that is committing.
struct NoCloneAtCommit(u64);

impl Clone for NoCloneAtCommit {
    fn clone(&self) -> Self {
        assert!(!COMMITTING.get(), "a commit cloned a buffered value");
        NoCloneAtCommit(self.0)
    }
}

const COMMITS: u64 = 5_000;

#[test]
fn a_commit_clones_no_buffered_value_beside_a_committer_on_the_first_var() {
    let (a, b) = (TVar::new(NoCloneAtCommit(0)), TVar::new(NoCloneAtCommit(0)));
    // A commit locks and publishes its write set in id order.
    let (first, second) = if a.id() < b.id() { (a, b) } else { (b, a) };
    thread::scope(|s| {
        s.spawn(|| {
            for _ in 0..COMMITS {
                atomic(|tx| {
                    COMMITTING.set(false);
                    let (x, y) = (first.read(tx).0, second.read(tx).0);
                    first.write(tx, NoCloneAtCommit(x + 1));
                    second.write(tx, NoCloneAtCommit(y + 1));
                    COMMITTING.set(true);
                });
                COMMITTING.set(false);
                thread::yield_now();
            }
        });
        s.spawn(|| {
            for _ in 0..COMMITS {
                atomic(|tx| {
                    let x = first.read(tx).0;
                    first.write(tx, NoCloneAtCommit(x + 1));
                });
                thread::yield_now();
            }
        });
    });
    assert_eq!(first.read_committed().0, 2 * COMMITS, "a commit was lost");
    assert_eq!(second.read_committed().0, COMMITS, "a commit was lost");
}
