//! The read and write sets a `TxHashMap` transaction logs.
//!
//! Figs. 1 and 3 measure conflicts that come from the map's shared header
//! (table pointer and size) and from one conflict unit per bucket: a lookup
//! reads the header and one bucket, an insert of a new key writes both, and
//! a resize reads every bucket of the old table. This test runs a fixed
//! single-threaded script and checks each transaction's exact read-set and
//! write-set sizes, so a change to how buckets are stored cannot change
//! what a transaction conflicts on.

use stm::{atomic, Txn};
use txstruct::TxHashMap;

/// One transaction's `(read_set_len, write_set_len)` at commit time.
fn sets(f: impl Fn(&mut Txn)) -> (usize, usize) {
    atomic(|tx| {
        f(tx);
        (tx.read_set_len(), tx.write_set_len())
    })
}

#[test]
fn hash_map_transactions_log_the_same_read_and_write_sets() {
    // Four buckets: the fourth new key trips a resize to 8 buckets, the
    // seventh one to 16.
    let m: TxHashMap<u64, u64> = TxHashMap::with_capacity(4);
    let mut got = Vec::new();
    for k in 1..=8 {
        got.push(sets(|tx| {
            assert_eq!(m.insert(tx, k, k * 10), None);
        }));
    }
    // Replace: the bucket is written, the header is not.
    got.push(sets(|tx| {
        assert_eq!(m.insert(tx, 3, 1), Some(30));
    }));
    // Lookups, hit and miss.
    got.push(sets(|tx| {
        assert_eq!(m.get(tx, &3), Some(1));
    }));
    got.push(sets(|tx| {
        assert!(!m.contains_key(tx, &99));
    }));
    got.push(sets(|tx| {
        assert_eq!(m.len(tx), 8);
    }));
    // Removes: a present key writes its bucket and the header; a missing
    // one writes nothing.
    got.push(sets(|tx| {
        assert_eq!(m.remove(tx, &5), Some(50));
    }));
    got.push(sets(|tx| {
        assert_eq!(m.remove(tx, &5), None);
    }));
    // Several operations in one transaction, then one that resizes midway
    // and keeps going in the new table.
    got.push(sets(|tx| {
        m.insert(tx, 20, 20);
        m.insert(tx, 21, 21);
        assert_eq!(m.get(tx, &20), Some(20));
        assert_eq!(m.remove(tx, &1), Some(10));
    }));
    got.push(sets(|tx| {
        for k in 30..36 {
            m.insert(tx, k, k);
        }
        assert_eq!(m.get(tx, &31), Some(31));
        m.remove(tx, &2);
    }));
    // A whole-table enumeration, then clear.
    got.push(sets(|tx| {
        assert_eq!(m.entries(tx).len(), 13);
    }));
    got.push(sets(|tx| {
        m.clear(tx);
        assert!(m.is_empty(tx));
    }));
    let expected = [
        // Inserts; the fourth and seventh resize.
        (2, 2),
        (2, 2),
        (2, 2),
        (5, 2),
        (2, 2),
        (2, 2),
        (9, 2),
        (2, 2),
        // Replace.
        (2, 1),
        // Lookups and len.
        (2, 0),
        (2, 0),
        (1, 0),
        // Removes.
        (2, 2),
        (2, 0),
        // Multi-operation transactions; the second resizes to 32 buckets.
        (3, 3),
        (20, 8),
        // Entries (the header and 32 buckets), clear.
        (33, 0),
        (33, 12),
    ];
    assert_eq!(got, expected);
}
