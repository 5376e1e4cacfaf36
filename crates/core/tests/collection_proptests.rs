//! Property tests for the collection classes: single-transaction behaviour
//! must match the plain `std` model exactly (buffer merging, iteration
//! order, views), and the queue must conserve elements under arbitrary
//! operation/abort interleavings.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::atomic::{AtomicU32, Ordering};
use stm::atomic;
use txcollections::{
    Channel, MapBackend, TransactionalMap, TransactionalQueue, TransactionalSortedMap,
};

#[derive(Debug, Clone)]
enum MapOp {
    Get(u16),
    Put(u16, u32),
    PutDiscard(u16, u32),
    Remove(u16),
    RemoveDiscard(u16),
    Size,
    Contains(u16),
}

/// Run `ops` in one transaction on `map` (preloaded with `preload`)
/// beside a `BTreeMap` model: every answer and the committed result must
/// match.
fn map_matches_model<B: MapBackend<u16, u32>>(
    map: TransactionalMap<u16, u32, B>,
    preload: &BTreeMap<u16, u32>,
    ops: &[MapOp],
) -> Result<(), TestCaseError> {
    atomic(|tx| {
        for (k, v) in preload {
            map.put_discard(tx, *k, *v);
        }
    });
    let mut model: BTreeMap<u16, u32> = preload.clone();
    atomic(|tx| {
        let mut m = preload.clone();
        for op in ops {
            match op {
                MapOp::Get(k) => assert_eq!(map.get(tx, k), m.get(k).copied()),
                MapOp::Put(k, v) => {
                    assert_eq!(map.put(tx, *k, *v), m.insert(*k, *v));
                }
                MapOp::PutDiscard(k, v) => {
                    map.put_discard(tx, *k, *v);
                    m.insert(*k, *v);
                }
                MapOp::Remove(k) => {
                    assert_eq!(map.remove(tx, k), m.remove(k));
                }
                MapOp::RemoveDiscard(k) => {
                    map.remove_discard(tx, k);
                    m.remove(k);
                }
                MapOp::Size => assert_eq!(map.size(tx), m.len()),
                MapOp::Contains(k) => {
                    assert_eq!(map.contains_key(tx, k), m.contains_key(k))
                }
            }
        }
        model = m;
    });
    // Committed state equals the model after commit.
    let mut got = atomic(|tx| map.entries(tx));
    got.sort_unstable();
    let want: Vec<(u16, u32)> = model.into_iter().collect();
    prop_assert_eq!(got, want);
    Ok(())
}

fn map_op() -> impl Strategy<Value = MapOp> {
    prop_oneof![
        any::<u16>().prop_map(|k| MapOp::Get(k % 48)),
        (any::<u16>(), any::<u32>()).prop_map(|(k, v)| MapOp::Put(k % 48, v)),
        (any::<u16>(), any::<u32>()).prop_map(|(k, v)| MapOp::PutDiscard(k % 48, v)),
        any::<u16>().prop_map(|k| MapOp::Remove(k % 48)),
        any::<u16>().prop_map(|k| MapOp::RemoveDiscard(k % 48)),
        Just(MapOp::Size),
        any::<u16>().prop_map(|k| MapOp::Contains(k % 48)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A whole random program inside ONE transaction must behave like a
    /// plain map — the store buffer, delta, and blind-write machinery are
    /// invisible to the user — on the TVar and the boosted backend.
    #[test]
    fn transactional_map_matches_model_in_one_txn(
        preload in prop::collection::btree_map(any::<u16>().prop_map(|k| k % 48), any::<u32>(), 0..20),
        ops in prop::collection::vec(map_op(), 1..40),
    ) {
        // Both backends: the TVar map validates its reads, the boosted map
        // (`TRANSACTIONAL_READS == false`) serves them straight.
        map_matches_model(TransactionalMap::new(), &preload, &ops)?;
        map_matches_model(TransactionalMap::boosted(), &preload, &ops)?;
    }

    /// Same for the sorted map, which must additionally iterate in key
    /// order and answer range/navigation queries like `BTreeMap`.
    #[test]
    fn sorted_map_matches_model_in_one_txn(
        preload in prop::collection::btree_map(any::<u16>().prop_map(|k| k % 48), any::<u32>(), 0..20),
        ops in prop::collection::vec(map_op(), 1..30),
        probe in any::<u16>(),
        lo in any::<u16>(),
        hi in any::<u16>(),
    ) {
        let probe = probe % 48;
        let (lo, hi) = ((lo % 48).min(hi % 48), (lo % 48).max(hi % 48));
        let map: TransactionalSortedMap<u16, u32> = TransactionalSortedMap::new();
        atomic(|tx| {
            for (k, v) in &preload {
                map.put_discard(tx, *k, *v);
            }
        });
        atomic(|tx| {
            let mut m = preload.clone();
            for op in &ops {
                match op {
                    MapOp::Get(k) => assert_eq!(map.get(tx, k), m.get(k).copied()),
                    MapOp::Put(k, v) => {
                        assert_eq!(map.put(tx, *k, *v), m.insert(*k, *v));
                    }
                    MapOp::PutDiscard(k, v) => {
                        map.put_discard(tx, *k, *v);
                        m.insert(*k, *v);
                    }
                    MapOp::Remove(k) => {
                        assert_eq!(map.remove(tx, k), m.remove(k));
                    }
                    MapOp::RemoveDiscard(k) => {
                        map.remove_discard(tx, k);
                        m.remove(k);
                    }
                    MapOp::Size => assert_eq!(map.size(tx), m.len()),
                    MapOp::Contains(k) => {
                        assert_eq!(map.contains_key(tx, k), m.contains_key(k))
                    }
                }
            }
            // Merged iteration in key order.
            let got = map.entries(tx);
            let want: Vec<(u16, u32)> = m.iter().map(|(k, v)| (*k, *v)).collect();
            assert_eq!(got, want, "merged iteration diverged");
            // Range query.
            let got = map.range_entries(tx, Bound::Included(lo), Bound::Excluded(hi));
            let want: Vec<(u16, u32)> = m
                .range((Bound::Included(lo), Bound::Excluded(hi)))
                .map(|(k, v)| (*k, *v))
                .collect();
            assert_eq!(got, want, "range query diverged");
            // Endpoints and navigation.
            assert_eq!(map.first_key(tx), m.keys().next().copied());
            assert_eq!(map.last_key(tx), m.keys().next_back().copied());
            assert_eq!(
                map.ceiling_key(tx, &probe),
                m.range(probe..).next().map(|(k, _)| *k)
            );
            assert_eq!(
                map.floor_key(tx, &probe),
                m.range(..=probe).next_back().map(|(k, _)| *k)
            );
            assert_eq!(
                map.higher_key(tx, &probe),
                m.range((Bound::Excluded(probe), Bound::Unbounded)).next().map(|(k, _)| *k)
            );
            assert_eq!(
                map.lower_key(tx, &probe),
                m.range(..probe).next_back().map(|(k, _)| *k)
            );
        });
    }

    /// Queue conservation under random ops with injected aborts: whatever
    /// was put and not polled by a committed transaction is still there.
    #[test]
    fn queue_conserves_elements(
        script in prop::collection::vec((0u8..3, any::<bool>()), 1..40)
    ) {
        let q: TransactionalQueue<u32> = TransactionalQueue::new();
        let mut next_item = 0u32;
        let mut committed_in: Vec<u32> = Vec::new();
        let mut committed_out: Vec<u32> = Vec::new();
        for (op, inject_abort) in script {
            let fail = AtomicU32::new(u32::from(inject_abort));
            match op {
                0 => {
                    let item = next_item;
                    next_item += 1;
                    let q2 = q.clone();
                    let ok = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        atomic(|tx| {
                            q2.put(tx, item);
                            if fail.swap(0, Ordering::SeqCst) == 1 {
                                stm::user_abort(); // abort WITHOUT retry
                            }
                        })
                    }))
                    .is_ok();
                    if ok {
                        committed_in.push(item);
                    }
                }
                1 => {
                    let q2 = q.clone();
                    let got = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        atomic(|tx| {
                            let it = q2.poll(tx);
                            if fail.swap(0, Ordering::SeqCst) == 1 {
                                stm::user_abort();
                            }
                            it
                        })
                    }));
                    if let Ok(Some(item)) = got {
                        committed_out.push(item);
                    }
                }
                _ => {
                    let q2 = q.clone();
                    let _ = atomic(|tx| q2.peek(tx));
                }
            }
        }
        let mut rest = atomic(|tx| {
            let mut v = Vec::new();
            while let Some(x) = q.poll(tx) {
                v.push(x);
            }
            v
        });
        let mut have: Vec<u32> = committed_out.clone();
        have.append(&mut rest);
        have.sort_unstable();
        committed_in.sort_unstable();
        prop_assert_eq!(have, committed_in, "queue lost or duplicated items");
    }
}
