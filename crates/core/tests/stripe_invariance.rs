//! Stripe-count invariance of the semantic conflict protocol (PR 3).
//!
//! Striping the semantic lock tables is a pure performance transform: the
//! doom verdict for any pair of operations must depend only on the abstract
//! conflict matrix (paper Tables 1–8), never on how keys happen to hash
//! across stripes. These tests drive real two-transaction executions at
//! stripe counts 1 (the old single-table behavior), 2, and 16 and assert
//! identical verdicts, including for key pairs chosen specifically to
//! collide / not collide in the stripe hash.

mod conflict_harness;

use conflict_harness::writer_dooms_reader;
use proptest::prelude::*;
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use txcollections::{
    mode_compatible, stripe_index, ObsMode, TransactionalIntervalMap, TransactionalMap,
    TransactionalMultiset, TransactionalPriorityQueue, TransactionalSortedMap, UpdateEffect,
};

const STRIPE_COUNTS: [usize; 3] = [1, 2, 16];

/// The stripe index the striped tables assign to `key` — the production
/// key→stripe map, re-exported by the crate precisely so tests can pick
/// colliding / non-colliding key pairs.
fn stripe_of(key: &u32, nstripes: usize) -> usize {
    stripe_index(key, nstripes)
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

fn seeded_sorted(nstripes: usize, keys: &[u32]) -> Arc<TransactionalSortedMap<u32, u32>> {
    let m = Arc::new(TransactionalSortedMap::with_stripes(nstripes));
    let (m2, keys) = (m.clone(), keys.to_vec());
    stm::atomic(move |tx| {
        for k in &keys {
            m2.put_discard(tx, *k, *k);
        }
    });
    m
}

/// Drive one get-vs-put cell at a given stripe count: reader observes
/// `rkey`, writer commits a write of `wkey`.
fn key_cell(nstripes: usize, rkey: u32, wkey: u32) -> bool {
    let m = seeded_map(nstripes, &[(rkey, "r"), (wkey, "w")]);
    let (r, w) = (m.clone(), m);
    writer_dooms_reader(
        move |tx| {
            let _ = r.get(tx, &rkey);
        },
        move |tx| w.put_discard(tx, wkey, "new".into()),
    )
}

#[test]
fn oracle_cells_hold_at_every_stripe_count() {
    for n in STRIPE_COUNTS {
        // Key vs KeyWrite: conflicts iff same key.
        assert_eq!(
            key_cell(n, 1, 1),
            !mode_compatible(ObsMode::Key, UpdateEffect::KeyWrite, true),
            "key/overlap at {n} stripes"
        );
        assert_eq!(
            key_cell(n, 1, 2),
            !mode_compatible(ObsMode::Key, UpdateEffect::KeyWrite, false),
            "key/no-overlap at {n} stripes"
        );

        // Size vs SizeChange conflicts; vs value-replacing KeyWrite does not.
        let m = seeded_map(n, &[(1, "a")]);
        let (r, w) = (m.clone(), m);
        assert!(
            writer_dooms_reader(
                move |tx| {
                    let _ = r.size(tx);
                },
                move |tx| w.put_discard(tx, 9, "new".into()),
            ),
            "size observer must be doomed by an inserting commit at {n} stripes"
        );
        let m = seeded_map(n, &[(1, "a")]);
        let (r, w) = (m.clone(), m);
        assert!(
            !writer_dooms_reader(
                move |tx| {
                    let _ = r.size(tx);
                },
                move |tx| w.put_discard(tx, 1, "replaced".into()),
            ),
            "size observer must survive a value-replacing commit at {n} stripes"
        );

        // Empty vs ZeroCross conflicts; vs non-crossing SizeChange does not.
        let m = seeded_map(n, &[]);
        let (r, w) = (m.clone(), m);
        assert!(
            writer_dooms_reader(
                move |tx| {
                    let _ = r.is_empty_primitive(tx);
                },
                move |tx| w.put_discard(tx, 1, "first".into()),
            ),
            "emptiness observer must be doomed by a zero-crossing commit at {n} stripes"
        );
        let m = seeded_map(n, &[(1, "a")]);
        let (r, w) = (m.clone(), m);
        assert!(
            !writer_dooms_reader(
                move |tx| {
                    let _ = r.is_empty_primitive(tx);
                },
                move |tx| w.put_discard(tx, 2, "second".into()),
            ),
            "emptiness observer must survive a non-crossing commit at {n} stripes"
        );

        // Sorted map: endpoint and range semantics live in the global
        // stripe and must be unaffected by the key-stripe count.
        let m = seeded_sorted(n, &[10, 20, 30]);
        let (r, w) = (m.clone(), m);
        assert!(
            writer_dooms_reader(
                move |tx| {
                    let _ = r.first_key(tx);
                },
                move |tx| w.put_discard(tx, 5, 5),
            ),
            "first-key observer must be doomed by a new minimum at {n} stripes"
        );
        let m = seeded_sorted(n, &[10, 20, 30, 40]);
        let (r, w) = (m.clone(), m);
        assert!(
            writer_dooms_reader(
                move |tx| {
                    let _ = r.range_entries(tx, Bound::Included(10), Bound::Included(20));
                },
                move |tx| w.put_discard(tx, 15, 15),
            ),
            "range observer must be doomed by an in-range insert at {n} stripes"
        );
        let m = seeded_sorted(n, &[10, 20, 30, 40]);
        let (r, w) = (m.clone(), m);
        assert!(
            !writer_dooms_reader(
                move |tx| {
                    let _ = r.range_entries(tx, Bound::Included(10), Bound::Included(20));
                },
                move |tx| w.put_discard(tx, 35, 35),
            ),
            "range observer must survive an out-of-range insert at {n} stripes"
        );
    }
}

/// The three synthesized-lock classes (PR 6) must give identical verdicts
/// at every stripe count, exactly like the hand-tabled classes: stripe
/// count is a parallelism knob, never a semantics knob.
#[test]
fn synthesized_class_verdicts_are_stripe_invariant() {
    for n in STRIPE_COUNTS {
        // Multiset: same-element conflict, distinct-element commute.
        let ms = Arc::new(TransactionalMultiset::with_stripes(n));
        let m2 = ms.clone();
        stm::atomic(move |tx| {
            m2.add(tx, 1u32);
            m2.add(tx, 2u32);
        });
        let (r, w) = (ms.clone(), ms.clone());
        assert!(
            writer_dooms_reader(
                move |tx| {
                    let _ = r.count(tx, &1);
                },
                move |tx| w.add(tx, 1),
            ),
            "multiset same-element conflict lost at {n} stripes"
        );
        let (r, w) = (ms.clone(), ms);
        assert!(
            !writer_dooms_reader(
                move |tx| {
                    let _ = r.count(tx, &1);
                },
                move |tx| w.add(tx, 2),
            ),
            "multiset distinct elements conflicted at {n} stripes"
        );

        // Priority queue: endpoint movement conflicts, interior insert
        // commutes with the min observer.
        let pq = Arc::new(TransactionalPriorityQueue::with_stripes(n));
        let q2 = pq.clone();
        stm::atomic(move |tx| q2.insert(tx, 50u64));
        let (r, w) = (pq.clone(), pq.clone());
        assert!(
            writer_dooms_reader(
                move |tx| {
                    let _ = r.peek_min(tx);
                },
                move |tx| w.insert(tx, 10),
            ),
            "priority-queue min movement missed at {n} stripes"
        );
        let (r, w) = (pq.clone(), pq);
        assert!(
            !writer_dooms_reader(
                move |tx| {
                    let _ = r.peek_min(tx);
                },
                move |tx| w.insert(tx, 90),
            ),
            "priority-queue interior insert conflicted at {n} stripes"
        );

        // Interval map: span overlap conflicts, disjoint spans commute.
        let im = Arc::new(TransactionalIntervalMap::new());
        let i2 = im.clone();
        stm::atomic(move |tx| {
            i2.insert(tx, 10u32, 20u32, "seed");
        });
        let (r, w) = (im.clone(), im.clone());
        assert!(
            writer_dooms_reader(
                move |tx| {
                    let _ = r.stab(tx, &15);
                },
                move |tx| {
                    w.insert(tx, 12, 18, "overlap");
                },
            ),
            "interval-map span overlap missed at {n} stripes"
        );
        let (r, w) = (im.clone(), im);
        assert!(
            !writer_dooms_reader(
                move |tx| {
                    let _ = r.stab(tx, &15);
                },
                move |tx| {
                    w.insert(tx, 40, 50, "disjoint");
                },
            ),
            "interval-map disjoint spans conflicted at {n} stripes"
        );
    }
}

#[test]
fn stripe_collision_never_creates_or_hides_a_conflict() {
    // Find two distinct keys sharing a stripe at 16, and two in different
    // stripes (both exist in any 64-key prefix with overwhelming margin).
    let colliding = (1u32..64)
        .find(|k| *k != 0 && stripe_of(k, 16) == stripe_of(&0, 16))
        .expect("some key collides with 0 in 16 stripes");
    let distinct = (1u32..64)
        .find(|k| stripe_of(k, 16) != stripe_of(&0, 16))
        .expect("some key misses 0's stripe");

    for n in STRIPE_COUNTS {
        // Distinct keys commute whether or not they share a stripe.
        assert!(
            !key_cell(n, 0, colliding),
            "stripe-colliding distinct keys must not conflict ({n} stripes)"
        );
        assert!(
            !key_cell(n, 0, distinct),
            "distinct-stripe keys must not conflict ({n} stripes)"
        );
        // The same key conflicts regardless of striping.
        assert!(
            key_cell(n, 0, 0),
            "same-key conflict must survive striping ({n} stripes)"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random reader/writer key pairs: the verdict is `rk == wk` at every
    /// stripe count — stripe hashing is invisible to the conflict matrix.
    #[test]
    fn key_conflict_verdicts_are_stripe_invariant(rk in 0u32..48, wk in 0u32..48) {
        let mut verdicts = Vec::new();
        for n in STRIPE_COUNTS {
            let doomed = key_cell(n, rk, wk);
            prop_assert_eq!(
                doomed,
                rk == wk,
                "stripes={} rk={} wk={} (stripe_of rk={} wk={})",
                n, rk, wk, stripe_of(&rk, n.max(2)), stripe_of(&wk, n.max(2))
            );
            verdicts.push(doomed);
        }
        prop_assert!(verdicts.windows(2).all(|w| w[0] == w[1]));
    }
}

/// Multi-thread distinct-key soak: threads hammer disjoint key ranges of one
/// shared striped map. Distinct keys never semantically conflict, so the run
/// must complete with zero dooms (every attempt commits first try) and zero
/// conflict-counter traffic.
#[test]
fn distinct_key_soak_produces_zero_dooms() {
    let map: Arc<TransactionalMap<u64, u64>> = Arc::new(TransactionalMap::with_stripes(16));
    let attempts = Arc::new(AtomicU64::new(0));
    const THREADS: u64 = 4;
    const OPS: u64 = 200;
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let map = map.clone();
            let attempts = attempts.clone();
            s.spawn(move || {
                for i in 0..OPS {
                    let k = t * 10_000 + (i % 50);
                    stm::atomic(|tx| {
                        attempts.fetch_add(1, Ordering::Relaxed);
                        let cur = map.get(tx, &k).unwrap_or(0);
                        map.put(tx, k, cur + 1);
                    });
                }
            });
        }
    });
    assert_eq!(
        attempts.load(Ordering::Relaxed),
        THREADS * OPS,
        "distinct-key transactions retried: a spurious cross-stripe doom occurred"
    );
    assert_eq!(
        map.semantic_stats().total(),
        0,
        "distinct-key soak bumped a semantic conflict counter"
    );
    // All locks released.
    assert_eq!(map.locked_key_count(), 0);
}

/// Regression: an abort racing a doom must release every lock the victim
/// took and publish none of its buffered writes — its buffer leaves with
/// the aborted attempt, whatever state the doom caught it in.
#[test]
fn doomed_then_aborted_transaction_leaves_no_stale_locals() {
    let map: Arc<TransactionalMap<u32, String>> = Arc::new(TransactionalMap::with_stripes(16));
    let m2 = map.clone();
    stm::atomic(move |tx| m2.put_discard(tx, 1, "seed".into()));

    for round in 0..10 {
        // Victim reads key 1 (takes its key lock) and buffers writes.
        let v = map.clone();
        let (_, victim) = stm::speculate(
            move |tx| {
                let _ = v.get(tx, &1);
                v.put(tx, 2, "victim".into());
                v.put_discard(tx, 3, "victim-blind".into());
            },
            0,
        )
        .expect("victim speculation");
        // Writer dooms it by committing a write to key 1.
        let w = map.clone();
        let (_, writer) = stm::speculate(move |tx| w.put_discard(tx, 1, "clobber".into()), 0)
            .expect("writer speculation");
        writer.commit();
        assert!(victim.handle().is_doomed(), "round {round}: doom missed");
        // The doomed victim aborts: its abort handler must release its key
        // lock even though the doom landed while its buffer was live.
        victim.abort(stm::AbortCause::Doomed);
        assert_eq!(
            map.locked_key_count(),
            0,
            "round {round}: semantic key locks leaked by a doomed abort"
        );
        // The victim's buffered writes must not have leaked.
        let r = map.clone();
        let leaked = stm::atomic(move |tx| r.get(tx, &2).is_some() || r.get(tx, &3).is_some());
        assert!(!leaked, "round {round}: aborted buffer leaked into the map");
    }
}
