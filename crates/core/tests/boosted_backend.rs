//! The boosted backend under the full conflict protocol (PR 7).
//!
//! `BoostedHashMap` has no TVars: isolation for collections built over it
//! comes entirely from the semantic locks, the handler lane, and (for the
//! eager wrapper) its undo log. These tests rerun the oracle-matrix
//! map cells and the stripe-invariance discipline as live two-transaction
//! executions over `TransactionalMap::boosted*`, and check the undo path
//! with an abort-compensation proptest over
//! `EagerTransactionalMap::boosted`: any random operation sequence followed
//! by a forced abort must leave the map exactly at its pre-transaction
//! snapshot.

mod conflict_harness;

use conflict_harness::writer_dooms_reader;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use txcollections::{
    mode_compatible, EagerPolicy, EagerTransactionalMap, ObsMode, TransactionalMap,
    TransactionalMultiset, TransactionalSet, UpdateEffect,
};
use txstruct::BoostedHashMap;

const STRIPE_COUNTS: [usize; 3] = [1, 2, 16];

type BoostedMap = TransactionalMap<u32, String, BoostedHashMap<u32, String>>;

fn seeded_boosted(nstripes: usize, pairs: &[(u32, &str)]) -> Arc<BoostedMap> {
    let m = Arc::new(BoostedMap::boosted_with_stripes(nstripes));
    let m2 = m.clone();
    let pairs: Vec<(u32, String)> = pairs.iter().map(|(k, v)| (*k, v.to_string())).collect();
    stm::atomic(move |tx| {
        for (k, v) in &pairs {
            m2.put_discard(tx, *k, v.clone());
        }
    });
    m
}

/// One get-vs-put cell over the boosted map at a given stripe count.
fn key_cell(nstripes: usize, rkey: u32, wkey: u32) -> bool {
    let m = seeded_boosted(nstripes, &[(rkey, "r"), (wkey, "w")]);
    let (r, w) = (m.clone(), m);
    writer_dooms_reader(
        move |tx| {
            let _ = r.get(tx, &rkey);
        },
        move |tx| w.put_discard(tx, wkey, "new".into()),
    )
}

/// Every reachable map cell of the oracle matrix, driven live over the
/// boosted backend at 1/2/16 stripes — same verdicts as the TVar backends
/// (the backend is a performance knob, never a semantics knob).
#[test]
fn boosted_map_delivers_every_oracle_cell_at_every_stripe_count() {
    for n in STRIPE_COUNTS {
        // Key vs KeyWrite: conflicts iff same key.
        assert_eq!(
            key_cell(n, 1, 1),
            !mode_compatible(ObsMode::Key, UpdateEffect::KeyWrite, true),
            "boosted key/overlap at {n} stripes"
        );
        assert_eq!(
            key_cell(n, 1, 2),
            !mode_compatible(ObsMode::Key, UpdateEffect::KeyWrite, false),
            "boosted key/no-overlap at {n} stripes"
        );

        // Size vs SizeChange conflicts; vs value-replacing KeyWrite does not.
        let m = seeded_boosted(n, &[(1, "a")]);
        let (r, w) = (m.clone(), m);
        assert!(
            writer_dooms_reader(
                move |tx| {
                    let _ = r.size(tx);
                },
                move |tx| w.put_discard(tx, 9, "new".into()),
            ),
            "boosted size observer must be doomed by an inserting commit at {n} stripes"
        );
        let m = seeded_boosted(n, &[(1, "a")]);
        let (r, w) = (m.clone(), m);
        assert!(
            !writer_dooms_reader(
                move |tx| {
                    let _ = r.size(tx);
                },
                move |tx| w.put_discard(tx, 1, "replaced".into()),
            ),
            "boosted size observer must survive a value-replacing commit at {n} stripes"
        );

        // Empty vs ZeroCross conflicts; vs non-crossing SizeChange does not.
        let m = seeded_boosted(n, &[]);
        let (r, w) = (m.clone(), m);
        assert!(
            writer_dooms_reader(
                move |tx| {
                    let _ = r.is_empty_primitive(tx);
                },
                move |tx| w.put_discard(tx, 1, "first".into()),
            ),
            "boosted emptiness observer must be doomed by a zero-crossing commit at {n} stripes"
        );
        let m = seeded_boosted(n, &[(1, "a")]);
        let (r, w) = (m.clone(), m);
        assert!(
            !writer_dooms_reader(
                move |tx| {
                    let _ = r.is_empty_primitive(tx);
                },
                move |tx| w.put_discard(tx, 2, "second".into()),
            ),
            "boosted emptiness observer must survive a non-crossing commit at {n} stripes"
        );
    }
}

/// Stripe collisions in the semantic tables and shard collisions in the
/// backend are both invisible to the conflict matrix.
#[test]
fn boosted_stripe_collision_never_creates_or_hides_a_conflict() {
    let colliding = (1u32..64)
        .find(|k| txcollections::stripe_index(k, 16) == txcollections::stripe_index(&0u32, 16))
        .expect("some key collides with 0 in 16 stripes");
    let distinct = (1u32..64)
        .find(|k| txcollections::stripe_index(k, 16) != txcollections::stripe_index(&0u32, 16))
        .expect("some key misses 0's stripe");
    for n in STRIPE_COUNTS {
        assert!(
            !key_cell(n, 0, colliding),
            "boosted stripe-colliding distinct keys must not conflict ({n} stripes)"
        );
        assert!(
            !key_cell(n, 0, distinct),
            "boosted distinct-stripe keys must not conflict ({n} stripes)"
        );
        assert!(
            key_cell(n, 0, 0),
            "boosted same-key conflict must survive striping ({n} stripes)"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random reader/writer key pairs over the boosted map: verdict is
    /// `rk == wk` at every stripe count.
    #[test]
    fn boosted_key_verdicts_are_stripe_invariant(rk in 0u32..32, wk in 0u32..32) {
        for n in STRIPE_COUNTS {
            prop_assert_eq!(key_cell(n, rk, wk), rk == wk, "stripes={}", n);
        }
    }
}

/// Distinct-key soak over the boosted map: disjoint key ranges must commit
/// first-try with zero semantic-conflict traffic and no leaked locks — the
/// same zero-doom guarantee the TVar map gives.
#[test]
fn boosted_distinct_key_soak_produces_zero_dooms() {
    let map: Arc<TransactionalMap<u64, u64, BoostedHashMap<u64, u64>>> =
        Arc::new(TransactionalMap::boosted_with_stripes(16));
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
                        map.put_discard(tx, k, cur + 1);
                    });
                }
            });
        }
    });
    assert_eq!(
        attempts.load(Ordering::Relaxed),
        THREADS * OPS,
        "distinct-key transactions over the boosted map retried"
    );
    assert_eq!(map.semantic_stats().total(), 0);
    assert_eq!(map.locked_key_count(), 0);
    // Every committed increment landed in the concurrent structure.
    let total: u64 = stm::atomic(|tx| {
        let mut sum = 0;
        for t in 0..THREADS {
            for j in 0..50u64 {
                sum += map.get(tx, &(t * 10_000 + j)).unwrap_or(0);
            }
        }
        sum
    });
    assert_eq!(
        total,
        THREADS * OPS,
        "lost updates over the boosted backend"
    );
}

/// A doomed-then-aborted transaction over the boosted map leaves no leaked
/// locks and no leaked buffered writes.
#[test]
fn boosted_doomed_abort_leaves_no_stale_state() {
    let map = seeded_boosted(16, &[(1, "seed")]);
    for round in 0..10 {
        let v = map.clone();
        let (_, victim) = stm::speculate(
            move |tx| {
                let _ = v.get(tx, &1);
                v.put_discard(tx, 2, "victim".into());
            },
            0,
        )
        .expect("victim speculation");
        let w = map.clone();
        let (_, writer) = stm::speculate(move |tx| w.put_discard(tx, 1, "clobber".into()), 0)
            .expect("writer speculation");
        writer.commit();
        assert!(victim.handle().is_doomed(), "round {round}: doom missed");
        victim.abort(stm::AbortCause::Doomed);
        assert_eq!(map.locked_key_count(), 0, "round {round}");
        let r = map.clone();
        let leaked = stm::atomic(move |tx| r.get(tx, &2).is_some());
        assert!(!leaked, "round {round}: aborted buffer leaked");
    }
}

/// The sibling wrappers run over the boosted backend too.
#[test]
fn boosted_set_and_multiset_roundtrip() {
    let set: TransactionalSet<u32, BoostedHashMap<u32, ()>> = TransactionalSet::boosted();
    stm::atomic(|tx| {
        assert!(set.add(tx, 7));
        assert!(!set.add(tx, 7));
        assert!(set.contains(tx, &7));
        assert!(set.remove(tx, &7));
    });
    let ms: TransactionalMultiset<u32, BoostedHashMap<u32, u64>> = TransactionalMultiset::boosted();
    stm::atomic(|tx| {
        ms.add(tx, 1);
        ms.add(tx, 1);
        assert_eq!(ms.count(tx, &1), 2);
        assert_eq!(ms.len(tx), 2);
    });
}

// ----------------------------------------------------------------------
// Abort compensation: eager (undo-logging) wrapper over the boosted map
// ----------------------------------------------------------------------

const KEY_DOMAIN: u32 = 8;

#[derive(Debug, Clone)]
enum Op {
    Put(u32, u32),
    Remove(u32),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..KEY_DOMAIN, any::<u32>()).prop_map(|(k, v)| Op::Put(k, v)),
        (0..KEY_DOMAIN).prop_map(Op::Remove),
    ]
}

/// Full observable state of the eager boosted map: every key in the domain
/// plus the reported size.
fn snapshot(
    m: &EagerTransactionalMap<u32, u32, BoostedHashMap<u32, u32>>,
) -> (BTreeMap<u32, u32>, usize) {
    let m = m.clone();
    stm::atomic(move |tx| {
        let mut s = BTreeMap::new();
        for k in 0..KEY_DOMAIN {
            if let Some(v) = m.get(tx, &k) {
                s.insert(k, v);
            }
        }
        (s, m.size(tx))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Eager mutations hit the concurrent map in place; a forced abort must
    /// replay the eager map's undo log (newest first, before any lock release)
    /// and leave the map exactly at its pre-transaction snapshot, with no
    /// residual locks or locals.
    #[test]
    fn eager_boosted_abort_restores_pre_txn_snapshot(
        seed in proptest::collection::vec(op_strategy(), 0..6),
        ops in proptest::collection::vec(op_strategy(), 1..12),
    ) {
        let m: EagerTransactionalMap<u32, u32, BoostedHashMap<u32, u32>> =
            EagerTransactionalMap::boosted(EagerPolicy::WriterWaits);
        let m2 = m.clone();
        let seed2 = seed.clone();
        stm::atomic(move |tx| {
            for op in &seed2 {
                match op {
                    Op::Put(k, v) => {
                        let _ = m2.put(tx, *k, *v);
                    }
                    Op::Remove(k) => {
                        let _ = m2.remove(tx, k);
                    }
                }
            }
        });
        let before = snapshot(&m);

        // Apply the random sequence in place, then force an abort.
        let m3 = m.clone();
        let ops2 = ops.clone();
        let (_, t) = stm::speculate(
            move |tx| {
                for op in &ops2 {
                    match op {
                        Op::Put(k, v) => {
                            let _ = m3.put(tx, *k, *v);
                        }
                        Op::Remove(k) => {
                            let _ = m3.remove(tx, k);
                        }
                    }
                }
            },
            0,
        )
        .expect("speculation");
        t.abort(stm::AbortCause::Explicit);

        let after = snapshot(&m);
        prop_assert_eq!(&before, &after, "ops={:?}", ops);
    }

    /// Control: the same sequences *committed* must equal a plain
    /// sequential application of the ops to a reference BTreeMap.
    #[test]
    fn eager_boosted_commit_matches_reference(
        ops in proptest::collection::vec(op_strategy(), 1..12),
    ) {
        let m: EagerTransactionalMap<u32, u32, BoostedHashMap<u32, u32>> =
            EagerTransactionalMap::boosted(EagerPolicy::WriterWaits);
        let m2 = m.clone();
        let ops2 = ops.clone();
        stm::atomic(move |tx| {
            for op in &ops2 {
                match op {
                    Op::Put(k, v) => {
                        let _ = m2.put(tx, *k, *v);
                    }
                    Op::Remove(k) => {
                        let _ = m2.remove(tx, k);
                    }
                }
            }
        });
        let mut reference = BTreeMap::new();
        for op in &ops {
            match op {
                Op::Put(k, v) => {
                    reference.insert(*k, *v);
                }
                Op::Remove(k) => {
                    reference.remove(k);
                }
            }
        }
        let (got, size) = snapshot(&m);
        prop_assert_eq!(&got, &reference, "ops={:?}", ops);
        prop_assert_eq!(size, reference.len());
    }
}

/// Deterministic spot check of the compensation order: put-then-remove of
/// the same key across an abort restores the original value (one undo
/// entry, logged at first write, replayed last-first).
#[test]
fn eager_boosted_rollback_spot_check() {
    let m: EagerTransactionalMap<u32, u32, BoostedHashMap<u32, u32>> =
        EagerTransactionalMap::boosted(EagerPolicy::WriterWaits);
    stm::atomic(|tx| {
        let _ = m.put(tx, 1, 10);
    });
    let m2 = m.clone();
    let (_, t) = stm::speculate(
        move |tx| {
            let _ = m2.put(tx, 1, 99);
            let _ = m2.put(tx, 2, 20);
            let _ = m2.remove(tx, &1);
            let _ = m2.put(tx, 1, 77);
        },
        0,
    )
    .unwrap();
    t.abort(stm::AbortCause::Explicit);
    stm::atomic(|tx| {
        assert_eq!(m.get(tx, &1), Some(10), "restore missed");
        assert_eq!(m.get(tx, &2), None, "delete missed");
        assert_eq!(m.size(tx), 1);
    });
}
