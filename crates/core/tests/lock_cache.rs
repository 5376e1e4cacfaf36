//! Conformance and safety of the txn-local semantic lock cache (PR 8).
//!
//! The cache is a pure performance transform: repeating an observation
//! inside one transaction must change nothing about the doom verdict, the
//! release sweep, or the post-transaction lock-table state — it may only
//! skip redundant stripe visits. Three layers check that:
//!
//! 1. Replayed oracle cells: every reachable conflict-matrix cell is driven
//!    with the observer op repeated (second and later repeats are cache
//!    hits) and must deliver the same verdict as the single-op run.
//! 2. Stripe invariance: repeated-op cells at stripe counts 1, 2, and 16
//!    agree with the abstract matrix, so caching composes with striping.
//! 3. Accounting + release: interleaved cached/uncached ops acquire exactly
//!    one stripe lock per distinct (kind, key) footprint entry, on the TVar
//!    and the boosted backend, with no open-nested commit, and the release
//!    sweep leaves zero locked keys after commit AND after abort —
//!    including a doomed-then-retried transaction, whose fresh attempt must
//!    re-acquire from an empty cache (the stale-cache regression).

mod conflict_harness;

use conflict_harness::writer_dooms_reader;
use proptest::prelude::*;
use std::ops::Bound;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard};
use txcollections::{
    mode_compatible, Channel, MapBackend, ObsMode, TransactionalMap, TransactionalQueue,
    TransactionalSortedMap, UpdateEffect,
};

const REPEATS: usize = 3;

/// Held by the test here that runs an open-nested child (the queue cell's
/// `poll`), and by the tests that assert a window of the process-wide
/// counters saw no open commit: without it, that child's commit can land
/// in the window.
static OPEN_NESTING: Mutex<()> = Mutex::new(());

fn exclusive_open_nesting() -> MutexGuard<'static, ()> {
    OPEN_NESTING.lock().unwrap_or_else(|e| e.into_inner())
}

fn seeded_map(nstripes: usize, pairs: &[(u32, &str)]) -> Arc<TransactionalMap<u32, String>> {
    let m = Arc::new(TransactionalMap::with_stripes(nstripes));
    let m2 = m.clone();
    let pairs: Vec<(u32, String)> = pairs.iter().map(|(k, v)| (*k, v.to_string())).collect();
    stm::atomic(move |tx| {
        for (k, v) in &pairs {
            m2.put_discard(tx, *k, v.clone());
        }
    });
    m
}

fn seeded_sorted(keys: &[u32]) -> Arc<TransactionalSortedMap<u32, u32>> {
    let m = Arc::new(TransactionalSortedMap::new());
    let (m2, keys) = (m.clone(), keys.to_vec());
    stm::atomic(move |tx| {
        for k in &keys {
            m2.put_discard(tx, *k, *k);
        }
    });
    m
}

/// Drive one reachable oracle cell with the observer op repeated `REPEATS`
/// times (all repeats after the first are answered by the lock cache) and
/// return whether the observer was doomed by the writer's commit.
fn drive_cell_repeated(obs: ObsMode, effect: UpdateEffect, overlap: bool) -> Option<bool> {
    match (obs, effect) {
        (ObsMode::Key, UpdateEffect::KeyWrite) => {
            let m = seeded_map(8, &[(1, "a"), (2, "b")]);
            let (r, w) = (m.clone(), m);
            let wkey = if overlap { 1 } else { 2 };
            Some(writer_dooms_reader(
                move |tx| {
                    for _ in 0..REPEATS {
                        let _ = r.get(tx, &1);
                    }
                },
                move |tx| w.put_discard(tx, wkey, "new".into()),
            ))
        }
        (ObsMode::Size, UpdateEffect::SizeChange) => {
            let m = seeded_map(8, &[(1, "a")]);
            let (r, w) = (m.clone(), m);
            Some(writer_dooms_reader(
                move |tx| {
                    for _ in 0..REPEATS {
                        let _ = r.size(tx);
                    }
                },
                move |tx| w.put_discard(tx, 9, "new".into()),
            ))
        }
        (ObsMode::Empty, UpdateEffect::ZeroCross) => {
            let m = seeded_map(8, &[]);
            let (r, w) = (m.clone(), m);
            Some(writer_dooms_reader(
                move |tx| {
                    for _ in 0..REPEATS {
                        let _ = r.is_empty_primitive(tx);
                    }
                },
                move |tx| w.put_discard(tx, 1, "first".into()),
            ))
        }
        (ObsMode::First, UpdateEffect::FirstChange) => {
            let m = seeded_sorted(&[10, 20, 30]);
            let (r, w) = (m.clone(), m);
            Some(writer_dooms_reader(
                move |tx| {
                    for _ in 0..REPEATS {
                        let _ = r.first_key(tx);
                    }
                },
                move |tx| w.put_discard(tx, 5, 5),
            ))
        }
        (ObsMode::Last, UpdateEffect::LastChange) => {
            let m = seeded_sorted(&[10, 20, 30]);
            let (r, w) = (m.clone(), m);
            Some(writer_dooms_reader(
                move |tx| {
                    for _ in 0..REPEATS {
                        let _ = r.last_key(tx);
                    }
                },
                move |tx| w.put_discard(tx, 40, 40),
            ))
        }
        (ObsMode::Range, UpdateEffect::KeyWrite) => {
            let m = seeded_sorted(&[10, 20, 30, 40]);
            let (r, w) = (m.clone(), m);
            let wkey = if overlap { 15 } else { 35 };
            Some(writer_dooms_reader(
                move |tx| {
                    for _ in 0..REPEATS {
                        let _ = r.range_entries(tx, Bound::Included(10), Bound::Included(20));
                    }
                },
                move |tx| w.put_discard(tx, wkey, wkey),
            ))
        }
        (ObsMode::Full, UpdateEffect::Consume) => {
            let q = Arc::new(TransactionalQueue::bounded(1));
            let q2 = q.clone();
            stm::atomic(move |tx| q2.put(tx, 7u32));
            let (r, w) = (q.clone(), q);
            Some(writer_dooms_reader(
                move |tx| {
                    for _ in 0..REPEATS {
                        assert!(!r.offer(tx, 8), "bounded queue at capacity");
                    }
                },
                move |tx| {
                    let _ = w.poll(tx);
                },
            ))
        }
        _ => None,
    }
}

#[test]
fn repeated_observers_deliver_each_cell_verdict() {
    let _g = exclusive_open_nesting();
    let mut driven = 0;
    for obs in ObsMode::ALL {
        for effect in UpdateEffect::ALL {
            for overlap in [false, true] {
                if let Some(doomed) = drive_cell_repeated(obs, effect, overlap) {
                    driven += 1;
                    assert_eq!(
                        doomed,
                        !mode_compatible(obs, effect, overlap),
                        "cached replay disagrees with oracle at \
                         ({obs:?}, {effect:?}, overlap={overlap})"
                    );
                }
            }
        }
    }
    assert!(driven >= 8, "only {driven} repeated cells driven");
}

#[test]
fn repeated_key_cells_are_stripe_invariant() {
    for nstripes in [1, 2, 16] {
        for (rkey, wkey, overlap) in [(1u32, 1u32, true), (1, 2, false)] {
            let m = seeded_map(nstripes, &[(rkey, "r"), (wkey, "w")]);
            let (r, w) = (m.clone(), m);
            let doomed = writer_dooms_reader(
                move |tx| {
                    for _ in 0..REPEATS {
                        let _ = r.get(tx, &rkey);
                    }
                },
                move |tx| w.put_discard(tx, wkey, "new".into()),
            );
            assert_eq!(
                doomed,
                !mode_compatible(ObsMode::Key, UpdateEffect::KeyWrite, overlap),
                "cached key cell diverges at {nstripes} stripes \
                 (rkey={rkey}, wkey={wkey})"
            );
        }
    }
}

/// Gets per transaction in the amortization sweep. Distinct-key cells read
/// keys `0..ops`, so every map is seeded with the largest count.
const SWEEP_OPS: [u32; 3] = [1, 16, 64];
/// Transactions per sweep cell.
const SWEEP_TXNS: u64 = 8;

/// One stripe acquisition per distinct footprint entry, cache hits for the
/// rest, no open-nested commit, and a clean table after commit — on both
/// backends.
#[test]
fn repeat_ops_acquire_once_and_release_cleanly() {
    let _g = exclusive_open_nesting();
    repeat_ops_on("tvar", TransactionalMap::with_stripes(16));
    repeat_ops_on("boosted", TransactionalMap::boosted_with_stripes(16));
}

/// [`repeat_ops_acquire_once_and_release_cleanly`] on one backend: a mixed
/// body of repeated key and size reads, then the amortization sweep —
/// transactions of 1, 16 and 64 `get`s over one repeated key or over
/// distinct keys.
fn repeat_ops_on<B: MapBackend<u32, String>>(backend: &str, m: TransactionalMap<u32, String, B>) {
    stm::atomic(|tx| {
        for k in 0..SWEEP_OPS[2] {
            m.put_discard(tx, k, format!("v{k}"));
        }
    });
    let stats = m.semantic_stats();
    let taken = || {
        (
            stats.lock_acquisitions.load(Ordering::Relaxed),
            stats.lock_cache_hits.load(Ordering::Relaxed),
        )
    };

    let (acq0, hits0) = taken();
    stm::atomic(|tx| {
        for _ in 0..4 {
            let _ = m.get(tx, &1); // Key(1): one take, three hits
        }
        let _ = m.get(tx, &2); // Key(2): one take
        for _ in 0..3 {
            let _ = m.size(tx); // Size: one take, two hits
        }
    });
    let (acq, hits) = taken();
    assert_eq!(acq - acq0, 3, "{backend}: {{Key(1), Key(2), Size}}");
    assert_eq!(hits - hits0, 5, "{backend}: repeats are cache hits");
    assert_eq!(m.locked_key_count(), 0, "{backend}: all released");

    for ops in SWEEP_OPS {
        for repeat in [true, false] {
            let cell = format!(
                "{backend}, {ops} ops/txn, {} keys",
                if repeat { "repeated" } else { "distinct" }
            );
            let distinct = if repeat { 1 } else { u64::from(ops) };
            let (acq0, hits0) = taken();
            let before = stm::global_stats();
            for _ in 0..SWEEP_TXNS {
                stm::atomic(|tx| {
                    for j in 0..ops {
                        let _ = m.get(tx, &if repeat { 0 } else { j });
                    }
                });
            }
            let d = stm::global_stats().diff(&before);
            let (acq, hits) = taken();
            assert_eq!(d.open_commits, 0, "{cell}: reads flatten, no child commits");
            assert_eq!(
                acq - acq0,
                SWEEP_TXNS * distinct,
                "{cell}: one acquisition per distinct key per transaction"
            );
            assert_eq!(
                hits - hits0,
                SWEEP_TXNS * (u64::from(ops) - distinct),
                "{cell}: every other op is a cache hit"
            );
            assert_eq!(m.locked_key_count(), 0, "{cell}: all released");
        }
    }
}

/// A doomed transaction's retry starts from an empty cache: the fresh
/// attempt re-acquires its locks (no stale hit against a lock the abort
/// sweep already released) and observes the writer's committed value.
#[test]
fn doomed_retry_starts_with_cold_cache() {
    let m = seeded_map(8, &[(1, "old")]);
    let stats = m.semantic_stats();

    let (_, t1) = stm::speculate(
        {
            let r = m.clone();
            move |tx| {
                for _ in 0..REPEATS {
                    let _ = r.get(tx, &1);
                }
            }
        },
        0,
    )
    .expect("reader speculation");
    let (_, t2) = stm::speculate(
        {
            let w = m.clone();
            move |tx| w.put_discard(tx, 1, "new".into())
        },
        0,
    )
    .expect("writer speculation");
    t2.commit();
    assert!(
        t1.handle().is_doomed(),
        "same-key write must doom the reader"
    );
    t1.abort(stm::AbortCause::Doomed);
    assert_eq!(m.locked_key_count(), 0, "abort sweep must release all");

    // The retry is a fresh Txn: its first get must take the stripe lock
    // again (one new acquisition), not answer from a dead cache.
    let acq0 = stats.lock_acquisitions.load(Ordering::Relaxed);
    let m2 = m.clone();
    let seen = stm::atomic(move |tx| m2.get(tx, &1));
    assert_eq!(seen.as_deref(), Some("new"));
    assert_eq!(
        stats.lock_acquisitions.load(Ordering::Relaxed) - acq0,
        1,
        "fresh attempt re-acquires the key lock"
    );
    assert_eq!(m.locked_key_count(), 0);
}

/// Read-only ops on a fresh transaction must not force-create a locals
/// entry beyond what lock recording needs, and flattened reads must not
/// count as open-nested commits.
#[test]
fn flattened_reads_skip_open_commits() {
    let _g = exclusive_open_nesting();
    let m = seeded_map(8, &[(1, "a")]);
    let before = stm::global_stats();
    let m2 = m.clone();
    stm::atomic(move |tx| {
        let _ = m2.get(tx, &1);
        let _ = m2.size(tx);
    });
    let d = stm::global_stats().diff(&before);
    assert_eq!(d.open_commits, 0, "read-only ops flatten; no child commits");
    assert!(d.open_flattened >= 2, "each read validates in place");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random interleavings of cached and uncached observations: the
    /// acquisition count equals the distinct (kind, key) footprint, the
    /// hit count is the remainder, and the sweep releases everything.
    #[test]
    fn interleaved_ops_acquire_exactly_the_footprint(
        ops in prop::collection::vec((0u8..3, 0u32..4), 1..24)
    ) {
        let m = Arc::new(TransactionalMap::new());
        let m2 = m.clone();
        stm::atomic(move |tx| {
            for k in 0u32..4 {
                m2.put_discard(tx, k, format!("v{k}"));
            }
        });
        let stats = m.semantic_stats();
        let acq0 = stats.lock_acquisitions.load(Ordering::Relaxed);
        let hits0 = stats.lock_cache_hits.load(Ordering::Relaxed);

        let m2 = m.clone();
        let ops2 = ops.clone();
        stm::atomic(move |tx| {
            for &(kind, key) in &ops2 {
                match kind {
                    0 => { let _ = m2.get(tx, &key); }
                    1 => { let _ = m2.size(tx); }
                    _ => { let _ = m2.is_empty_primitive(tx); }
                }
            }
        });

        let mut footprint = std::collections::HashSet::new();
        for &(kind, key) in &ops {
            footprint.insert(match kind {
                0 => (0u8, key),
                1 => (1, u32::MAX),
                _ => (2, u32::MAX),
            });
        }
        let acq = stats.lock_acquisitions.load(Ordering::Relaxed) - acq0;
        let hits = stats.lock_cache_hits.load(Ordering::Relaxed) - hits0;
        prop_assert_eq!(acq, footprint.len() as u64);
        prop_assert_eq!(acq + hits, ops.len() as u64);
        prop_assert_eq!(m.locked_key_count(), 0);
    }
}
