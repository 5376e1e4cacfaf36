//! The eager map's `size` returns only sizes some committed state had.
//!
//! An eager writer changes the backend's length in place before it commits,
//! and its abort's compensation changes it back. A size reader that commits
//! must never have counted another transaction's uncommitted in-place write:
//! while one may be in the backend, `size` aborts and retries, and a writer
//! that arrives after a size read dooms the reader.

use std::sync::Barrier;
use stm::{atomic, atomic_with, AbortCause, BackoffPolicy, RunOpts};
use txcollections::{EagerPolicy, EagerTransactionalMap};

/// Eight committed keys; one thread speculates an insert of a ninth key and
/// aborts it, over and over, while another commits size reads. Every
/// committed read must be 8. Fixed iteration counts, no sleeps: the reader
/// retries without back-off.
#[test]
fn committed_size_reads_see_only_committed_sizes() {
    const WRITER_ABORTS: usize = 50_000;
    const READS: usize = 20_000;
    let m: EagerTransactionalMap<u64, u64> = EagerTransactionalMap::new(EagerPolicy::DoomReaders);
    atomic(|tx| {
        for k in 0..8 {
            m.put(tx, k, k);
        }
    });
    let start = Barrier::new(2);
    let no_backoff = RunOpts {
        backoff: BackoffPolicy::None,
        max_attempts: None,
    };
    let wrong = std::thread::scope(|s| {
        s.spawn(|| {
            start.wait();
            for _ in 0..WRITER_ABORTS {
                let w = m.clone();
                let (_, t) = stm::speculate(move |tx| w.put(tx, 8, 8), 0)
                    .expect("a lone writer takes its key lock");
                t.abort(AbortCause::Explicit);
            }
        });
        let reader = s.spawn(|| {
            start.wait();
            (0..READS)
                .filter(|_| atomic_with(no_backoff, |tx| m.size(tx)) != 8)
                .count()
        });
        reader.join().expect("reader thread")
    });
    assert_eq!(
        wrong, 0,
        "{wrong} of {READS} committed size reads saw a size no committed state had"
    );
    assert_eq!(atomic(|tx| m.size(tx)), 8);
}
