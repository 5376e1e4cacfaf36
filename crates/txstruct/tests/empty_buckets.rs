//! `TxHashMap` leaves std's shared empty slice alone.
//!
//! `Arc::<[T]>::default()` hands out clones of one process-wide static
//! empty slice, so a table whose empty buckets held it would make every
//! build, read and replacement of an empty bucket, on any thread, a
//! read-modify-write of that one shared count. This test guards that
//! static: its strong count must not move while a map is built, read and
//! resized. It is a binary of its own so that no other test in the process
//! moves the count meanwhile. If std ever allocates a fresh empty slice per
//! call, the count always reads 1 and the check holds trivially.

use std::sync::Arc;
use stm::atomic;
use txstruct::TxHashMap;

/// The strong count of std's shared empty `[(u64, u64)]` slice (counting
/// the probe's own clone).
fn shared_empty_count() -> usize {
    Arc::strong_count(&Arc::<[(u64, u64)]>::default())
}

#[test]
fn a_hash_map_never_touches_the_shared_empty_slice() {
    let before = shared_empty_count();
    let m: TxHashMap<u64, u64> = TxHashMap::with_capacity(8192);
    assert_eq!(shared_empty_count(), before, "after building 8,192 buckets");
    atomic(|tx| {
        for k in 0..1_000 {
            assert_eq!(m.get(tx, &k), None);
        }
    });
    assert_eq!(shared_empty_count(), before, "after 1,000 absent-key gets");
    // Two buckets hold one key at most: the second insert resizes them.
    let small: TxHashMap<u64, u64> = TxHashMap::with_capacity(2);
    atomic(|tx| {
        for k in 0..3 {
            small.insert(tx, k, k);
        }
    });
    assert_eq!(shared_empty_count(), before, "after a resize");
    assert_eq!(atomic(|tx| small.len(tx)), 3);
}
